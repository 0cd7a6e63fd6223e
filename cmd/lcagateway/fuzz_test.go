package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzParseGatewayTenants feeds arbitrary bytes to the gateway's
// tenant-manifest parser through a file. It must never panic. An
// accepted manifest holds one tenant per declaration line, and no
// tenant twice.
func FuzzParseGatewayTenants(f *testing.F) {
	f.Add([]byte("# extra tenants\n3 9 rate=100000 burst=64\n4 1\n"))
	f.Add([]byte("3 5\n3 5\n"))
	f.Add([]byte("3 5 rate100\n"))
	f.Add([]byte("3 5 shape=9\n"))
	f.Add([]byte("18446744073709551615 0 rate=-Inf burst=-1\r\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "tenants.txt")
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		opts, err := parseGatewayTenants(path)
		if err != nil {
			return
		}
		decls := 0
		for _, line := range strings.Split(string(data), "\n") {
			if line = strings.TrimSpace(line); line != "" && !strings.HasPrefix(line, "#") {
				decls++
			}
		}
		if len(opts) != decls {
			t.Fatalf("accepted %d tenants from %d declaration lines", len(opts), decls)
		}
		seen := make(map[[2]uint64]bool, len(opts))
		for _, o := range opts {
			id := [2]uint64{o.Instance, o.Seed}
			if seen[id] {
				t.Fatalf("accepted tenant %d:%d twice", o.Instance, o.Seed)
			}
			seen[id] = true
		}
	})
}
