package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestUnlinkedFixture runs -unlinked over the fixture module in
// testdata/unlinked. Its app links lib.Used and lib.(*Counter).Inc, a
// nested module's tool links lib.ToolOnly, and nothing links
// lib.Spare. Each case writes the allowlist and checks the exit status
// and that every failure names its function.
func TestUnlinkedFixture(t *testing.T) {
	for _, tc := range []struct {
		name      string
		allowlist string
		want      int
		mentions  []string
	}{
		{
			name:      "clean",
			allowlist: `{"functions": [{"name": "fixture/lib.Spare", "reason": "reference"}]}`,
			want:      0,
		},
		{
			name:      "unlisted",
			allowlist: `{"functions": []}`,
			want:      1,
			mentions:  []string{"UNLINKED fixture/lib.Spare (lib/lib.go:22)"},
		},
		{
			name: "stale",
			allowlist: `{"functions": [
				{"name": "fixture/lib.Spare", "reason": "reference"},
				{"name": "fixture/lib.ToolOnly", "reason": "api"},
				{"name": "fixture/lib.Gone", "reason": "api"}]}`,
			want: 1,
			mentions: []string{
				"STALE    fixture/lib.ToolOnly: listed in UNLINKED.json but a binary links it",
				"STALE    fixture/lib.Gone: listed in UNLINKED.json but no longer declared",
			},
		},
		{
			name:      "no reason",
			allowlist: `{"functions": [{"name": "fixture/lib.Spare", "reason": "legacy"}]}`,
			want:      1,
			mentions:  []string{`NOREASON fixture/lib.Spare: reason "legacy"`},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			copyTree(t, filepath.Join("testdata", "unlinked"), dir)
			writeFile(t, filepath.Join(dir, unlinkedFileName), tc.allowlist)
			var out, errOut strings.Builder
			if code := run([]string{"-unlinked", dir}, &out, &errOut); code != tc.want {
				t.Fatalf("exit = %d, want %d\n%s%s", code, tc.want, out.String(), errOut.String())
			}
			for _, m := range tc.mentions {
				if !strings.Contains(out.String(), m) {
					t.Errorf("output lacks %q:\n%s", m, out.String())
				}
			}
			if n := strings.Count(out.String(), "fixture/lib."); n != len(tc.mentions) {
				t.Errorf("output names %d functions, want %d:\n%s", n, len(tc.mentions), out.String())
			}
		})
	}
}

// copyTree copies the regular files under src into dst.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if err := os.MkdirAll(filepath.Dir(target), 0o755); err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatalf("copy fixture: %v", err)
	}
}
