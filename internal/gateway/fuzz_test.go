package gateway

import (
	"bufio"
	"bytes"
	"strconv"
	"strings"
	"testing"

	"lcakp/internal/engine"
)

// FuzzParseAPIKeys feeds arbitrary bytes to the API-key file parser.
// It must never panic. An accepted file holds one key per declaration
// line, none over the wire's 255-byte bound, and each key is allowed
// for what its line grants: every tenant for "*", else each listed
// instance:seed.
func FuzzParseAPIKeys(f *testing.F) {
	f.Add([]byte("# deployment keys\nalpha 1:2\nbeta 1:2 2:5\n\nroot *\n"))
	f.Add([]byte("keyonly\n"))
	f.Add([]byte("key 1:\n"))
	f.Add([]byte("k *\r\nk2 18446744073709551615:0\n"))
	f.Add([]byte(strings.Repeat("k", 255) + " *\n" + strings.Repeat("x", 256) + " *\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := ParseAPIKeys(bytes.NewReader(data))
		if err != nil {
			return
		}
		var decls [][]string
		sc := bufio.NewScanner(bytes.NewReader(data))
		for sc.Scan() {
			if line := strings.TrimSpace(sc.Text()); line != "" && !strings.HasPrefix(line, "#") {
				decls = append(decls, strings.Fields(line))
			}
		}
		if a.Len() != len(decls) {
			t.Fatalf("accepted %d keys from %d declaration lines", a.Len(), len(decls))
		}
		for _, fields := range decls {
			key := fields[0]
			if len(key) > 255 {
				t.Fatalf("accepted a key of %d bytes", len(key))
			}
			if fields[1] == "*" && len(fields) == 2 {
				if !a.Allow([]byte(key), engine.TenantID{Instance: 7, Seed: 11}) {
					t.Fatalf("wildcard key %q refused", key)
				}
				continue
			}
			for _, grant := range fields[1:] {
				inst, seed, _ := strings.Cut(grant, ":")
				id := engine.TenantID{}
				id.Instance, _ = strconv.ParseUint(inst, 10, 64)
				id.Seed, _ = strconv.ParseUint(seed, 10, 64)
				if !a.Allow([]byte(key), id) {
					t.Fatalf("key %q refused its grant %s", key, grant)
				}
			}
		}
	})
}
