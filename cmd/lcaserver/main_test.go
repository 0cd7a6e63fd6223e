package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"lcakp/internal/cluster"
	"lcakp/internal/engine"
	"lcakp/internal/store"
)

func TestInstanceRoleStartsAndStops(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{
		"-role", "instance", "-addr", "127.0.0.1:0",
		"-workload", "uniform", "-n", "200",
	}, &out, &errOut, func() {})
	if code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, errOut.String())
	}
	text := out.String()
	if !strings.Contains(text, "role=instance listening on") || !strings.Contains(text, "shut down") {
		t.Errorf("output = %q", text)
	}
}

func TestLCARoleRequiresInstanceAddr(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-role", "lca", "-addr", "127.0.0.1:0"}, &out, &errOut, func() {})
	if code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "-instance") {
		t.Errorf("stderr = %q", errOut.String())
	}
}

func TestUnknownRole(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-role", "nope"}, &out, &errOut, func() {}); code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "unknown role") {
		t.Errorf("stderr = %q", errOut.String())
	}
}

// notifyingWriter signals on every write so tests can wait for the
// "listening" line before reading the buffer.
type notifyingWriter struct {
	mu    sync.Mutex
	b     strings.Builder
	wrote chan struct{}
}

func newNotifyingWriter() *notifyingWriter {
	return &notifyingWriter{wrote: make(chan struct{}, 16)}
}

func (w *notifyingWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	n, err := w.b.Write(p)
	w.mu.Unlock()
	select {
	case w.wrote <- struct{}{}:
	default:
	}
	return n, err
}

func (w *notifyingWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.String()
}

var addrRE = regexp.MustCompile(`listening on (\S+)`)

// startServer runs the CLI in a goroutine and returns the bound
// address plus a shutdown function that waits for exit.
func startServer(t *testing.T, args []string) (addr string, shutdown func()) {
	t.Helper()
	out := newNotifyingWriter()
	var errOut strings.Builder
	stop := make(chan struct{})
	done := make(chan int, 1)
	go func() {
		done <- run(args, out, &errOut, func() { <-stop })
	}()

	deadline := time.After(10 * time.Second)
	for {
		if m := addrRE.FindStringSubmatch(out.String()); m != nil {
			addr = m[1]
			break
		}
		select {
		case <-out.wrote:
		case code := <-done:
			t.Fatalf("server exited early with code %d: %s", code, errOut.String())
		case <-deadline:
			t.Fatalf("server did not report an address; output: %q", out.String())
		}
	}
	return addr, func() {
		close(stop)
		if code := <-done; code != 0 {
			t.Errorf("server exit code %d: %s", code, errOut.String())
		}
	}
}

func writeManifest(t *testing.T, text string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tenants.txt")
	if err := os.WriteFile(path, []byte(text), 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestParseTenantManifest(t *testing.T) {
	path := writeManifest(t, `
# fleet manifest
10.0.0.1:7001 3 5 0.2 default
10.0.0.1:7001 3 9 0.2
10.0.0.2:7001 4 5 0.4
`)
	specs, def, err := parseTenantManifest(path)
	if err != nil {
		t.Fatalf("parseTenantManifest: %v", err)
	}
	if len(specs) != 3 {
		t.Fatalf("got %d tenants, want 3", len(specs))
	}
	want := engine.TenantID{Instance: 3, Seed: 5}
	if def == nil || *def != want {
		t.Errorf("default = %v, want %v", def, want)
	}
	if spec := specs[engine.TenantID{Instance: 4, Seed: 5}]; spec.instanceAddr != "10.0.0.2:7001" || spec.epsilon != 0.4 {
		t.Errorf("tenant (4,5) spec = %+v", spec)
	}

	for name, bad := range map[string]string{
		"empty":         "# nothing here\n",
		"short row":     "10.0.0.1:7001 3 5\n",
		"bad hash":      "10.0.0.1:7001 x 5 0.2\n",
		"bad seed":      "10.0.0.1:7001 3 x 0.2\n",
		"bad epsilon":   "10.0.0.1:7001 3 5 x\n",
		"trailing junk": "10.0.0.1:7001 3 5 0.2 primary\n",
		"duplicate id":  "a:1 3 5 0.2\nb:1 3 5 0.3\n",
		"two defaults":  "a:1 3 5 0.2 default\nb:1 4 5 0.2 default\n",
		"missing file":  "", // replaced below
	} {
		p := writeManifest(t, bad)
		if name == "missing file" {
			p = filepath.Join(t.TempDir(), "absent.txt")
		}
		if _, _, err := parseTenantManifest(p); err == nil {
			t.Errorf("%s: parseTenantManifest accepted %q", name, bad)
		}
	}
}

func TestEndToEndMultiTenantReplica(t *testing.T) {
	instAddr, stopInst := startServer(t, []string{
		"-role", "instance", "-addr", "127.0.0.1:0",
		"-workload", "uniform", "-n", "250",
	})
	defer stopInst()

	manifest := writeManifest(t,
		instAddr+" 7 5 0.25 default\n"+
			instAddr+" 7 9 0.25\n")
	lcaAddr, stopLCA := startServer(t, []string{
		"-role", "lca", "-addr", "127.0.0.1:0",
		"-tenants", manifest, "-tenant-budget", "4",
	})
	defer stopLCA()

	// Untenanted traffic lands on the default tenant (7,5).
	def, err := cluster.DialLCA(lcaAddr, 0)
	if err != nil {
		t.Fatalf("DialLCA: %v", err)
	}
	defer def.Close()
	other, err := cluster.DialLCA(lcaAddr, 0)
	if err != nil {
		t.Fatalf("DialLCA: %v", err)
	}
	defer other.Close()
	other.SetTenant(engine.TenantID{Instance: 7, Seed: 9})

	ctx := context.Background()
	for _, i := range []int{0, 120, 249} {
		if _, err := def.InSolution(ctx, i); err != nil {
			t.Fatalf("default InSolution(%d): %v", i, err)
		}
		if _, err := other.InSolution(ctx, i); err != nil {
			t.Fatalf("tenant (7,9) InSolution(%d): %v", i, err)
		}
	}

	// A tenant outside the manifest is refused, not served garbage.
	ghost, err := cluster.DialLCA(lcaAddr, 0)
	if err != nil {
		t.Fatalf("DialLCA: %v", err)
	}
	defer ghost.Close()
	ghost.SetTenant(engine.TenantID{Instance: 8, Seed: 1})
	if _, err := ghost.InSolution(ctx, 0); err == nil {
		t.Fatal("InSolution for unmanifested tenant succeeded")
	}
}

func TestEndToEndInstancePlusReplica(t *testing.T) {
	instAddr, stopInst := startServer(t, []string{
		"-role", "instance", "-addr", "127.0.0.1:0",
		"-workload", "zipf", "-n", "300",
	})
	defer stopInst()

	lcaAddr, stopLCA := startServer(t, []string{
		"-role", "lca", "-addr", "127.0.0.1:0",
		"-instance", instAddr, "-eps", "0.2", "-seed", "5", "-instance-hash", "3",
	})
	defer stopLCA()

	client, err := cluster.DialLCA(lcaAddr, 0)
	if err != nil {
		t.Fatalf("DialLCA: %v", err)
	}
	defer client.Close()
	ctx := context.Background()
	own := engine.TenantID{Instance: 3, Seed: 5}
	for _, i := range []int{0, 100, 299} {
		want, err := client.InSolution(ctx, i)
		if err != nil {
			t.Fatalf("InSolution(%d): %v", i, err)
		}
		if got, err := client.InSolutionTenant(ctx, own, i); err != nil || got != want {
			t.Fatalf("InSolutionTenant(%s, %d) = (%v, %v), want the untenanted answer %v", own, i, got, err, want)
		}
	}
	// -instance-hash and -seed name the one tenant the replica serves.
	if _, err := client.InSolutionTenant(ctx, engine.TenantID{Instance: 4, Seed: 5}, 0); !errors.Is(err, cluster.ErrRemote) ||
		!strings.Contains(err.Error(), "unknown tenant") {
		t.Fatalf("query for another tenant: err = %v, want an unknown-tenant rejection", err)
	}
}

// TestMaterializeMode runs the offline artifact production path: two
// materialize runs against the same instance store must write valid,
// bit-identical artifacts — the cross-process determinism the peer-fill
// tier relies on.
func TestMaterializeMode(t *testing.T) {
	instanceAddr, stopInstance := startServer(t, []string{
		"-role", "instance", "-addr", "127.0.0.1:0",
		"-workload", "uniform", "-n", "300",
	})
	defer stopInstance()

	materialize := func(dir string) []byte {
		t.Helper()
		var out, errOut strings.Builder
		code := run([]string{
			"-role", "lca", "-instance", instanceAddr, "-eps", "0.2", "-seed", "7",
			"-instance-hash", "5", "-materialize", dir,
		}, &out, &errOut, func() {})
		if code != 0 {
			t.Fatalf("materialize exit code %d, stderr: %s", code, errOut.String())
		}
		if !strings.Contains(out.String(), "materialized i5-s7") {
			t.Errorf("output missing summary line:\n%s", out.String())
		}
		matches, err := filepath.Glob(filepath.Join(dir, "*", "i5-s7.lcas"))
		if err != nil || len(matches) != 1 {
			t.Fatalf("artifact files = %v (err %v), want exactly one", matches, err)
		}
		a, err := store.ReadFile(matches[0])
		if err != nil {
			t.Fatalf("artifact does not decode: %v", err)
		}
		if a.N != 300 || a.Instance != 5 || a.Seed != 7 {
			t.Errorf("artifact header = n=%d i=%d s=%d, want 300/5/7", a.N, a.Instance, a.Seed)
		}
		data, err := os.ReadFile(matches[0])
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	dir1, dir2 := t.TempDir(), t.TempDir()
	if !bytes.Equal(materialize(dir1), materialize(dir2)) {
		t.Error("artifacts from two materialize runs differ byte-wise")
	}

	// -materialize outside role=lca is a usage error.
	var out, errOut strings.Builder
	if code := run([]string{"-role", "instance", "-materialize", t.TempDir()}, &out, &errOut, func() {}); code != 1 {
		t.Fatalf("instance-role materialize exit code %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "-role lca") {
		t.Errorf("stderr = %q", errOut.String())
	}
}
