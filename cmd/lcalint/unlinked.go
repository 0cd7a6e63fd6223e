package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// unlinkedFileName is the checked-in allowlist at the module root: the
// production functions that no binary links and that stay anyway,
// each with one of unlinkedReasons.
const unlinkedFileName = "UNLINKED.json"

// unlinkedReasons are the only reasons an unlinked function may stay:
// library API of the facade package, a function an open ROADMAP item
// names, a reference implementation tests check others against, and a
// helper the tests of two or more packages share.
var unlinkedReasons = map[string]bool{
	"api":          true,
	"reserved":     true,
	"reference":    true,
	"test support": true,
}

// unlinkedFile is the schema of UNLINKED.json.
type unlinkedFile struct {
	// Comment documents the file for human readers.
	Comment string `json:"comment,omitempty"`
	// Functions are the allowlisted unlinked functions.
	Functions []unlinkedEntry `json:"functions"`
}

// unlinkedEntry allows one function to stay unlinked.
type unlinkedEntry struct {
	// Name is the function's linker symbol with type arguments
	// dropped, as `go tool nm` prints it ("lcakp.Exhaustive",
	// "lcakp/internal/obs.(*Span).WarnEvent"); a main package's
	// functions are named by its import path instead of "main".
	Name string `json:"name"`
	// Reason is one of unlinkedReasons.
	Reason string `json:"reason"`
	// Note says which caller, item or test the reason refers to.
	Note string `json:"note,omitempty"`
}

// declaredFunc is one function or method declared in a production
// (non-_test.go) file of the main module.
type declaredFunc struct {
	symbol string // import path, ".", then "F", "T.M" or "(*T).M"
	pos    token.Position
	lines  int // with its doc comment
}

// goPackage is the subset of `go list -json` output the inventory
// reads.
type goPackage struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
}

// runUnlinked takes the inventory of the module at root and compares
// it with UNLINKED.json. Exit status: 0 when the unlinked functions are
// exactly the listed ones, 1 on an unlisted unlinked function or a bad
// entry, 2 on load or toolchain errors.
func runUnlinked(root string, stdout, stderr io.Writer) int {
	allow, err := loadUnlinked(filepath.Join(root, unlinkedFileName))
	if err != nil {
		fmt.Fprintln(stderr, "lcalint:", err)
		return 2
	}
	decls, linked, bins, err := inventory(root)
	if err != nil {
		fmt.Fprintln(stderr, "lcalint:", err)
		return 2
	}

	listed := map[string]bool{}
	for _, e := range allow.Functions {
		listed[e.Name] = true
	}
	declared := map[string]bool{}
	unlinked := map[string]bool{}
	failures, lines := 0, 0
	for _, d := range decls {
		declared[d.symbol] = true
		if linked[d.symbol] {
			continue
		}
		unlinked[d.symbol] = true
		lines += d.lines
		if !listed[d.symbol] {
			failures++
			file, err := filepath.Rel(root, d.pos.Filename)
			if err != nil {
				file = d.pos.Filename
			}
			fmt.Fprintf(stdout, "UNLINKED %s (%s:%d): no binary links it and %s does not list it\n", d.symbol, file, d.pos.Line, unlinkedFileName)
		}
	}
	for _, e := range allow.Functions {
		switch {
		case !unlinkedReasons[e.Reason]:
			failures++
			fmt.Fprintf(stdout, "NOREASON %s: reason %q is not one of api, reserved, reference, test support\n", e.Name, e.Reason)
		case !declared[e.Name]:
			failures++
			fmt.Fprintf(stdout, "STALE    %s: listed in %s but no longer declared\n", e.Name, unlinkedFileName)
		case !unlinked[e.Name]:
			failures++
			fmt.Fprintf(stdout, "STALE    %s: listed in %s but a binary links it\n", e.Name, unlinkedFileName)
		}
	}
	fmt.Fprintf(stdout, "%d of %d declared functions unlinked (%d lines with doc comments) in %d binaries; %d listed in %s\n",
		len(unlinked), len(decls), lines, bins, len(allow.Functions), unlinkedFileName)
	if failures > 0 {
		fmt.Fprintf(stdout, "%d unlinked-function finding(s)\n", failures)
		return 1
	}
	return 0
}

// inventory builds every main package of the module at root, and of
// each module nested under it, with inlining off, so that every
// function a binary calls keeps a symbol, and reads the binaries'
// text symbols. It returns the functions declared in the main module's
// production files, the set of symbols some binary links, and the
// number of binaries. A main package's functions count as linked only
// through its own binary; nested modules' code is linked against, not
// checked.
//
// The linker keeps a method whose name and signature match an
// interface method any binary calls (Len, String), so such a method
// reads as linked even when nothing calls it.
func inventory(root string) ([]declaredFunc, map[string]bool, int, error) {
	tmp, err := os.MkdirTemp("", "lcalint-unlinked-")
	if err != nil {
		return nil, nil, 0, err
	}
	defer os.RemoveAll(tmp)
	nested, err := nestedModules(root)
	if err != nil {
		return nil, nil, 0, err
	}
	var decls []declaredFunc
	linked := map[string]bool{}
	bins := 0
	for i, dir := range append([]string{root}, nested...) {
		pkgs, err := listPackages(dir)
		if err != nil {
			return nil, nil, 0, err
		}
		var mains []goPackage
		for _, p := range pkgs {
			if dir == root {
				ds, err := declaredFuncs(p)
				if err != nil {
					return nil, nil, 0, err
				}
				decls = append(decls, ds...)
			}
			if p.Name == "main" {
				mains = append(mains, p)
			}
		}
		out := filepath.Join(tmp, fmt.Sprint(i))
		if err := buildMains(dir, mains, out); err != nil {
			return nil, nil, 0, err
		}
		for _, m := range mains {
			syms, err := textSymbols(filepath.Join(out, filepath.Base(m.ImportPath)))
			if err != nil {
				return nil, nil, 0, err
			}
			bins++
			for s := range syms {
				if local, ok := strings.CutPrefix(s, "main."); ok {
					if dir != root {
						continue
					}
					s = m.ImportPath + "." + local
				}
				linked[s] = true
			}
		}
	}
	return decls, linked, bins, nil
}

// loadUnlinked reads the allowlist. A missing file is an empty list,
// so that the inventory of a tree without one lists every unlinked
// function.
func loadUnlinked(path string) (*unlinkedFile, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return &unlinkedFile{}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("load unlinked allowlist: %w", err)
	}
	var f unlinkedFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	seen := map[string]bool{}
	for _, e := range f.Functions {
		if e.Name == "" || seen[e.Name] {
			return nil, fmt.Errorf("%s: entry %q is unnamed or listed twice", path, e.Name)
		}
		seen[e.Name] = true
	}
	return &f, nil
}

// listPackages lists the packages of the module at dir with their
// production files for this platform.
func listPackages(dir string) ([]goPackage, error) {
	cmd := exec.Command("go", "list", "-json=ImportPath,Name,Dir,GoFiles", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.String())
	}
	var pkgs []goPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var p goPackage
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("go list in %s: %w", dir, err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// declaredFuncs parses a package's production files and returns its
// top-level functions and methods, init functions and blank names
// aside.
func declaredFuncs(p goPackage) ([]declaredFunc, error) {
	fset := token.NewFileSet()
	var out []declaredFunc
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "init" || fn.Name.Name == "_" {
				continue
			}
			name := fn.Name.Name
			if fn.Recv != nil && len(fn.Recv.List) == 1 {
				name = receiverName(fn.Recv.List[0].Type) + "." + name
			}
			start := fn.Pos()
			if fn.Doc != nil {
				start = fn.Doc.Pos()
			}
			out = append(out, declaredFunc{
				symbol: p.ImportPath + "." + name,
				pos:    fset.Position(fn.Pos()),
				lines:  fset.Position(fn.End()).Line - fset.Position(start).Line + 1,
			})
		}
	}
	return out, nil
}

// receiverName renders a method receiver as the linker names it: "T"
// or "(*T)", type parameters dropped.
func receiverName(expr ast.Expr) string {
	star := false
	if s, ok := expr.(*ast.StarExpr); ok {
		star, expr = true, s.X
	}
	switch e := expr.(type) {
	case *ast.IndexExpr:
		expr = e.X
	case *ast.IndexListExpr:
		expr = e.X
	}
	name := "?"
	if id, ok := expr.(*ast.Ident); ok {
		name = id.Name
	}
	if star {
		return "(*" + name + ")"
	}
	return name
}

// buildMains builds the given main packages of the module at dir into
// out with inlining off, in one go build; each binary is named by the
// last element of its import path.
func buildMains(dir string, mains []goPackage, out string) error {
	if len(mains) == 0 {
		return nil
	}
	args := []string{"build", "-gcflags=all=-l", "-o", out + string(filepath.Separator)}
	names := map[string]string{}
	for _, m := range mains {
		base := filepath.Base(m.ImportPath)
		if prev, dup := names[base]; dup {
			return fmt.Errorf("main packages %s and %s build to the same binary name", prev, m.ImportPath)
		}
		names[base] = m.ImportPath
		args = append(args, m.ImportPath)
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	if b, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build in %s: %v\n%s", dir, err, b)
	}
	return nil
}

// nestedModules returns the directories under root, other than root,
// that hold their own go.mod, skipping what the go command skips:
// testdata and names starting with "." or "_".
func nestedModules(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() || path == root {
			return err
		}
		name := d.Name()
		if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			return filepath.SkipDir
		}
		if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
			dirs = append(dirs, path)
			return filepath.SkipDir
		}
		return nil
	})
	return dirs, err
}

// textSymbols returns the binary's text symbols with type arguments
// dropped.
func textSymbols(bin string) (map[string]bool, error) {
	out, err := exec.Command("go", "tool", "nm", bin).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool nm %s: %w", bin, err)
	}
	syms := map[string]bool{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		// "  4a1b20 T lcakp/internal/oracle.(*AliasSampler).Sample"
		fields := strings.Fields(sc.Text())
		if len(fields) >= 3 && (fields[1] == "T" || fields[1] == "t") {
			syms[dropTypeArgs(strings.Join(fields[2:], " "))] = true
		}
	}
	return syms, sc.Err()
}

// dropTypeArgs removes every bracketed type-argument list from a
// symbol, so that an instantiation "pkg.F[go.shape.int]" matches the
// declaration "pkg.F".
func dropTypeArgs(sym string) string {
	if !strings.Contains(sym, "[") {
		return sym
	}
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}
