package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzParseTenantManifest feeds arbitrary bytes to the replica's
// tenant-manifest parser through a file. It must never panic. An
// accepted manifest declares at least one tenant, one distinct tenant
// per declaration line, and at most one default, which is among them.
func FuzzParseTenantManifest(f *testing.F) {
	f.Add([]byte("# fleet manifest\n10.0.0.1:7001 3 5 0.2 default\n10.0.0.1:7001 3 9 0.2\n10.0.0.2:7001 4 5 0.4\n"))
	f.Add([]byte("# nothing here\n"))
	f.Add([]byte("a:1 3 5 0.2\nb:1 3 5 0.3\n"))
	f.Add([]byte("a:1 3 5 0.2 default\nb:1 4 5 0.2 default\n"))
	f.Add([]byte("a:1 3 5 NaN default\r\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "tenants.txt")
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		specs, def, err := parseTenantManifest(path)
		if err != nil {
			return
		}
		decls, defaults := 0, 0
		for _, line := range strings.Split(string(data), "\n") {
			line = strings.TrimSpace(line)
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			decls++
			if fields := strings.Fields(line); len(fields) == 5 {
				defaults++
			}
		}
		if len(specs) == 0 || len(specs) != decls {
			t.Fatalf("accepted %d distinct tenants from %d declaration lines", len(specs), decls)
		}
		if defaults > 1 || (def == nil) != (defaults == 0) {
			t.Fatalf("accepted %d default lines, default %v", defaults, def)
		}
		if def != nil {
			if _, ok := specs[*def]; !ok {
				t.Fatalf("default tenant %s is not declared", *def)
			}
		}
	})
}
