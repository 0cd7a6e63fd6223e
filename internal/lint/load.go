package lint

import (
	"crypto/sha256"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one loaded analysis unit: a typechecked package plus its
// syntax. A directory yields up to two units — the package itself
// (with its in-package _test.go files merged, as `go test` compiles
// it) and, when present, the external _test package.
type Package struct {
	// Path is the import path. External test packages carry the
	// "_test" suffix (e.g. "lcakp/internal/cluster_test").
	Path string
	// Dir is the directory holding the source files.
	Dir string
	// Fset is the loader-wide file set.
	Fset *token.FileSet
	// Files are the unit's parsed files, comments included.
	Files []*ast.File
	// Types is the typechecked package.
	Types *types.Package
	// Info holds the typechecker's facts for Files.
	Info *types.Info
	// TestVariant is true when Files include _test.go files.
	TestVariant bool
}

// Loader parses and typechecks packages of one module without any
// tooling beyond the standard library. Module-internal imports resolve
// against the module source tree; all other imports resolve from
// GOROOT source via go/importer's "source" compiler, so the loader
// works fully offline.
type Loader struct {
	fset       *token.FileSet
	moduleRoot string
	modulePath string
	stdlib     types.ImporterFrom

	// base memoizes non-test package variants used to resolve imports.
	base map[string]*types.Package
	// loading detects import cycles during base typechecking.
	loading map[string]bool

	// mu guards the unit memos below so a shared (cached) loader is
	// safe under concurrent RunSuite calls.
	mu sync.Mutex
	// dirUnits memoizes LoadDir results; moduleUnits memoizes the
	// LoadModule result. Both stay valid for the loader's lifetime:
	// the content-hash cache (sharedLoader) discards the whole loader
	// the moment any source file under the module root changes.
	dirUnits     map[string][]*Package
	moduleUnits  []*Package
	moduleLoaded bool
}

// NewLoader builds a loader for the module rooted at moduleRoot
// (the directory holding go.mod).
func NewLoader(moduleRoot string) (*Loader, error) {
	modulePath, err := readModulePath(filepath.Join(moduleRoot, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		fset:       fset,
		moduleRoot: moduleRoot,
		modulePath: modulePath,
		stdlib:     importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		base:       make(map[string]*types.Package),
		loading:    make(map[string]bool),
		dirUnits:   make(map[string][]*Package),
	}, nil
}

// loadCache holds one reusable loader per module root, keyed by a
// content hash of every source file under it. Typechecking a unit
// from scratch re-typechecks its stdlib imports from GOROOT source —
// by far the dominant cost of a suite run — so reusing the loader
// across RunSuite calls (the analyzer test suite alone makes a dozen)
// keeps lint time flat as the suite grows. A single changed byte in
// any .go file or go.mod invalidates the whole module: coarse, but
// correctness-trivial, and rebuilding one module's units is cheap
// next to the stdlib typecheck the cache exists to amortize.
var loadCache = struct {
	mu      sync.Mutex
	entries map[string]*cachedModule
}{entries: map[string]*cachedModule{}}

// cachedModule pairs a loader with the module content hash it was
// built against.
type cachedModule struct {
	hash   string
	loader *Loader
}

// sharedLoader returns a loader for moduleRoot, reusing the cached
// one when the module's source content is unchanged.
func sharedLoader(moduleRoot string) (*Loader, error) {
	hash, err := moduleContentHash(moduleRoot)
	if err != nil {
		return nil, err
	}
	loadCache.mu.Lock()
	defer loadCache.mu.Unlock()
	if e, ok := loadCache.entries[moduleRoot]; ok && e.hash == hash {
		return e.loader, nil
	}
	loader, err := NewLoader(moduleRoot)
	if err != nil {
		return nil, err
	}
	loadCache.entries[moduleRoot] = &cachedModule{hash: hash, loader: loader}
	return loader, nil
}

// moduleContentHash digests the path, size, and content of every .go
// file and go.mod under the module root (testdata included — golden
// packages load through the same cache), skipping hidden directories.
func moduleContentHash(moduleRoot string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(moduleRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != moduleRoot && strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") && name != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(moduleRoot, path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "", fmt.Errorf("lint: hash module: %w", err)
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}

// readModulePath extracts the module path from a go.mod file.
func readModulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("lint: read %s: %w", gomod, err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// Fset returns the loader-wide file set.
func (l *Loader) Fset() *token.FileSet { return l.fset }

// LoadModule loads every package directory under the module root,
// skipping testdata and hidden directories. Results are memoized for
// the loader's lifetime.
func (l *Loader) LoadModule() ([]*Package, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.moduleLoaded {
		return l.moduleUnits, nil
	}
	var dirs []string
	err := filepath.WalkDir(l.moduleRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.moduleRoot && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		if hasGoFiles(path) {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("lint: walk module: %w", err)
	}
	sort.Strings(dirs)
	var pkgs []*Package
	for _, dir := range dirs {
		units, err := l.loadDirLocked(dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, units...)
	}
	l.moduleUnits = pkgs
	l.moduleLoaded = true
	return pkgs, nil
}

// hasGoFiles reports whether dir directly contains .go files.
func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true
		}
	}
	return false
}

// LoadDir loads the analysis units of one directory: the package with
// its in-package test files, plus the external _test package if one
// exists. Results are memoized for the loader's lifetime.
func (l *Loader) LoadDir(dir string) ([]*Package, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.loadDirLocked(dir)
}

// loadDirLocked is LoadDir with l.mu held.
func (l *Loader) loadDirLocked(dir string) ([]*Package, error) {
	key := filepath.Clean(dir)
	if units, ok := l.dirUnits[key]; ok {
		return units, nil
	}
	units, err := l.loadDirUncached(dir)
	if err != nil {
		return nil, err
	}
	l.dirUnits[key] = units
	return units, nil
}

// loadDirUncached performs the actual parse and typecheck of one
// directory's units.
func (l *Loader) loadDirUncached(dir string) ([]*Package, error) {
	importPath, err := l.importPath(dir)
	if err != nil {
		return nil, err
	}
	prim, ext, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(prim.files) == 0 && len(ext) == 0 {
		return nil, nil
	}

	var pkgs []*Package
	var primary *Package
	if len(prim.files) > 0 {
		primary, err = l.check(importPath, dir, prim.files, prim.hasTests, nil)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, primary)
	}
	if len(ext) > 0 {
		// The external test package imports the test variant of its
		// subject package, as under `go test`.
		override := map[string]*types.Package{}
		if primary != nil {
			override[importPath] = primary.Types
		}
		extPkg, err := l.check(importPath+"_test", dir, ext, true, override)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, extPkg)
	}
	return pkgs, nil
}

// parsed groups a directory's primary-package files.
type parsed struct {
	files    []*ast.File
	hasTests bool
}

// parseDir parses all .go files of dir into the primary package's
// files (non-test plus in-package tests) and the external test
// package's files.
func (l *Loader) parseDir(dir string) (parsed, []*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return parsed{}, nil, fmt.Errorf("lint: read dir %s: %w", dir, err)
	}
	var prim parsed
	var ext []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		file, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return parsed{}, nil, fmt.Errorf("lint: parse: %w", err)
		}
		switch {
		case strings.HasSuffix(file.Name.Name, "_test"):
			ext = append(ext, file)
		case strings.HasSuffix(name, "_test.go"):
			prim.files = append(prim.files, file)
			prim.hasTests = true
		default:
			prim.files = append(prim.files, file)
		}
	}
	return prim, ext, nil
}

// importPath maps a directory under the module root to its import
// path.
func (l *Loader) importPath(dir string) (string, error) {
	rel, err := filepath.Rel(l.moduleRoot, dir)
	if err != nil {
		return "", fmt.Errorf("lint: %s is not under the module root: %w", dir, err)
	}
	if rel == "." {
		return l.modulePath, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside the module root %s", dir, l.moduleRoot)
	}
	return l.modulePath + "/" + filepath.ToSlash(rel), nil
}

// check typechecks one analysis unit.
func (l *Loader) check(path, dir string, files []*ast.File, testVariant bool, override map[string]*types.Package) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: &unitImporter{loader: l, override: override}}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: typecheck %s: %w", path, err)
	}
	return &Package{
		Path:        path,
		Dir:         dir,
		Fset:        l.fset,
		Files:       files,
		Types:       tpkg,
		Info:        info,
		TestVariant: testVariant,
	}, nil
}

// unitImporter resolves one unit's imports: overrides first (the
// external-test-to-test-variant edge), then module-internal base
// variants, then GOROOT source.
type unitImporter struct {
	loader   *Loader
	override map[string]*types.Package
}

// Import resolves path for the unit being typechecked.
func (u *unitImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := u.override[path]; ok {
		return pkg, nil
	}
	return u.loader.importBase(path)
}

// importBase returns the non-test variant of a package, typechecking
// module-internal packages from source and delegating everything else
// to the stdlib source importer.
func (l *Loader) importBase(path string) (*types.Package, error) {
	if path != l.modulePath && !strings.HasPrefix(path, l.modulePath+"/") {
		return l.stdlib.ImportFrom(path, l.moduleRoot, 0)
	}
	if pkg, ok := l.base[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modulePath), "/")
	dir := filepath.Join(l.moduleRoot, filepath.FromSlash(rel))
	prim, _, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, f := range prim.files {
		name := l.fset.File(f.Pos()).Name()
		if strings.HasSuffix(name, "_test.go") {
			continue // base variant excludes tests, breaking test-only cycles
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files for %s in %s", path, dir)
	}
	conf := types.Config{Importer: &unitImporter{loader: l}}
	pkg, err := conf.Check(path, l.fset, files, nil)
	if err != nil {
		return nil, fmt.Errorf("lint: typecheck import %s: %w", path, err)
	}
	l.base[path] = pkg
	return pkg, nil
}
