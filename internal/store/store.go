package store

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"lcakp/internal/engine"
	"lcakp/internal/obs"
)

// DefaultHandleBudget caps resident decoded artifacts when New
// receives budget <= 0. Same rationale as engine.DefaultTenantBudget:
// residency is a cache over a pure function, not a commitment, so a
// bounded working set loses nothing but re-open latency.
const DefaultHandleBudget = 64

// ErrClosed is returned by store operations after Close.
var ErrClosed = errors.New("store: closed")

// entry is one resident decoded artifact; lastUse orders entries for
// eviction via the store's logical clock.
type entry struct {
	id      engine.VersionedTenant
	a       *Artifact
	lastUse atomic.Int64
}

// flight is one in-progress open that concurrent Gets for the same
// (tenant, epoch) join instead of re-reading the file.
type flight struct {
	done chan struct{}
	a    *Artifact
	err  error
}

// Stats is a snapshot of the store's counters.
type Stats struct {
	// Lookups counts point lookups; Hits the ones answered from a
	// resident artifact without touching the filesystem.
	Lookups, Hits int64
	// Opens counts artifact files read and validated; Corrupt the ones
	// rejected by structural or checksum validation.
	Opens, Corrupt int64
	// Writes counts artifacts persisted; Evictions handles displaced by
	// the budget.
	Writes, Evictions int64
	// Resident is the current decoded-artifact count.
	Resident int
}

// Store is the directory-backed artifact store: content-addressed
// paths under one root, an LRU-bounded cache of decoded artifacts, and
// single-flight opens. The same purity argument that makes replicas
// interchangeable makes the store trivially coherent — an artifact for
// (I, r) has exactly one possible value, so there is no staleness, no
// versioned reads, and eviction is always safe. Under churn the store
// is keyed by (tenant, epoch): each epoch, epoch 0 included, is its own
// immutable artifact.
//
// The hot path (LookupEpoch on a resident artifact) is lock-free: one
// sync.Map load plus a bit probe, guarded by BenchmarkStoreLookup at
// 0 allocs/op so the gateway can put the store between its answer
// cache and the replica fleet without a latency cliff.
type Store struct {
	dir    string
	budget int

	entries sync.Map // engine.VersionedTenant -> *entry
	clock   atomic.Int64
	count   atomic.Int64

	lookups   obs.Counter
	hits      obs.Counter
	misses    obs.Counter
	opens     obs.Counter
	corrupt   obs.Counter
	writes    obs.Counter
	evictions obs.Counter

	mu      sync.Mutex
	flights map[engine.VersionedTenant]*flight
	onPut   func(*Artifact)
	closed  bool
}

// New opens (creating if needed) a store rooted at dir. budget caps
// resident decoded artifacts (<= 0 selects DefaultHandleBudget).
func New(dir string, budget int) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create root: %w", err)
	}
	if budget <= 0 {
		budget = DefaultHandleBudget
	}
	return &Store{
		dir:     dir,
		budget:  budget,
		flights: make(map[engine.VersionedTenant]*flight),
	}, nil
}

// SetOnPut installs a hook invoked after every successful persist —
// a Put, and so a PutBytes — the seam a store-backed gateway hangs
// off to install the artifact on its tenant, whether it was
// materialized here or fetched from a peer. The hook runs
// synchronously on the Put caller; long work belongs in a goroutine
// the hook spawns.
func (s *Store) SetOnPut(fn func(*Artifact)) {
	s.mu.Lock()
	s.onPut = fn
	s.mu.Unlock()
}

// PathVersioned returns the content-addressed location of one epoch's
// artifact: a fan-out subdirectory named by the low byte of instance
// hash XOR seed, then the (tenant, epoch) key's String() —
// i%d-s%d.lcas for epoch 0, i%d-s%d-e%d.lcas for later epochs. The
// address is a pure function of the key, so every process agrees on
// where an artifact lives; all epochs of one tenant share a fan-out
// directory.
func (s *Store) PathVersioned(vt engine.VersionedTenant) string {
	return filepath.Join(s.dir, fmt.Sprintf("%02x", byte(vt.Tenant.Instance^vt.Tenant.Seed)), vt.String()+".lcas")
}

// LookupEpoch answers item i's membership from one epoch's artifact,
// opening it on first use. The boolean ok reports whether the artifact
// exists and covers i; err reports opens that failed for a reason
// other than absence (corruption, I/O), which callers should surface
// rather than silently falling through to a replica.
func (s *Store) LookupEpoch(ctx context.Context, vt engine.VersionedTenant, i int) (in, ok bool, err error) {
	s.lookups.Inc()
	//lint:alloc measured 0 allocs/op (BenchmarkStoreLookup): Load does not retain the key, so the box stays on the stack
	if v, loaded := s.entries.Load(vt); loaded {
		e := v.(*entry)
		e.lastUse.Store(s.clock.Add(1))
		if in, ok = e.a.Answer(i); ok {
			s.hits.Inc()
		}
		return in, ok, nil
	}
	a, err := s.open(ctx, vt)
	if err != nil {
		if errors.Is(err, ErrNotFound) {
			return false, false, nil
		}
		return false, false, err
	}
	in, ok = a.Answer(i)
	return in, ok, nil
}

// GetVersioned returns one epoch's decoded artifact, opening and
// validating it on first use. Absence is ErrNotFound.
func (s *Store) GetVersioned(ctx context.Context, vt engine.VersionedTenant) (*Artifact, error) {
	if v, ok := s.entries.Load(vt); ok {
		e := v.(*entry)
		e.lastUse.Store(s.clock.Add(1))
		return e.a, nil
	}
	return s.open(ctx, vt)
}

// HasVersioned reports whether one epoch's artifact exists (resident
// or on disk) without decoding it.
func (s *Store) HasVersioned(vt engine.VersionedTenant) bool {
	if _, ok := s.entries.Load(vt); ok {
		return true
	}
	_, err := os.Stat(s.PathVersioned(vt))
	return err == nil
}

// open is the slow path: join an in-flight open or lead one.
//
//lint:coldpath artifact opens run once per residency; every subsequent lookup is a resident bit probe
func (s *Store) open(ctx context.Context, id engine.VersionedTenant) (*Artifact, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if v, ok := s.entries.Load(id); ok {
		e := v.(*entry)
		e.lastUse.Store(s.clock.Add(1))
		s.mu.Unlock()
		return e.a, nil
	}
	if fl, ok := s.flights[id]; ok {
		s.mu.Unlock()
		select {
		case <-fl.done:
			return fl.a, fl.err
		case <-ctx.Done():
			return nil, fmt.Errorf("store: open %s wait: %w", id, ctx.Err())
		}
	}
	fl := &flight{done: make(chan struct{})}
	s.flights[id] = fl
	s.mu.Unlock()

	a, err := ReadFile(s.PathVersioned(id))
	if err == nil && (a.Instance != id.Tenant.Instance || a.Seed != id.Tenant.Seed ||
		a.Epoch != uint64(id.Epoch)) {
		// The file's content address disagrees with its location: a
		// misplaced artifact is corruption, not a different tenant's
		// (or epoch's) answer.
		err = fmt.Errorf("%w: artifact at %s addresses i%d-s%d-e%d, not %s",
			ErrCorrupt, s.PathVersioned(id), a.Instance, a.Seed, a.Epoch, id)
	}
	switch {
	case err == nil:
		s.opens.Inc()
		obs.AddEvent(ctx, "store.open",
			obs.String("tenant", id.String()), obs.Int("bytes", int64(a.Size())))
	case errors.Is(err, ErrNotFound):
		s.misses.Inc()
	default:
		s.corrupt.Inc()
		obs.AddEvent(ctx, "store.open_rejected",
			obs.String("tenant", id.String()), obs.String("error", err.Error()))
	}

	s.mu.Lock()
	delete(s.flights, id)
	if err == nil && s.closed {
		err = ErrClosed
	}
	if err == nil {
		s.installLocked(id, a)
		fl.a = a
	} else {
		fl.err = err
	}
	s.mu.Unlock()
	close(fl.done)
	return fl.a, fl.err
}

// installLocked makes an artifact resident and evicts over budget;
// s.mu must be held.
func (s *Store) installLocked(id engine.VersionedTenant, a *Artifact) {
	e := &entry{id: id, a: a}
	e.lastUse.Store(s.clock.Add(1))
	if _, loaded := s.entries.Swap(id, e); !loaded {
		s.count.Add(1)
	}
	for s.count.Load() > int64(s.budget) {
		var victim *entry
		s.entries.Range(func(_, v any) bool {
			e := v.(*entry)
			if victim == nil || e.lastUse.Load() < victim.lastUse.Load() {
				victim = e
			}
			return true
		})
		if victim == nil {
			break
		}
		s.entries.Delete(victim.id)
		s.count.Add(-1)
		s.evictions.Inc()
	}
}

// Put persists artifact a atomically at its content address — the
// (instance, seed, epoch) the self-addressing bytes name — makes it
// resident, then fires the SetOnPut hook. Writing the same artifact
// twice is a harmless no-op in effect: the bytes are canonical, so the
// rename replaces a file with an identical one.
func (s *Store) Put(ctx context.Context, a *Artifact) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.mu.Unlock()
	id := engine.VersionedTenant{
		Tenant: engine.TenantID{Instance: a.Instance, Seed: a.Seed},
		Epoch:  engine.EpochID(a.Epoch),
	}
	if err := a.WriteFile(s.PathVersioned(id)); err != nil {
		return err
	}
	s.writes.Inc()
	obs.AddEvent(ctx, "store.write",
		obs.String("tenant", id.String()), obs.Int("bytes", int64(a.Size())))
	s.mu.Lock()
	if !s.closed {
		s.installLocked(id, a)
	}
	hook := s.onPut
	s.mu.Unlock()
	if hook != nil {
		hook(a)
	}
	return nil
}

// PutBytes validates data as a complete artifact and Puts it — the
// backfill path for artifacts fetched from a peer. Validation happens
// before any byte lands on disk, so a corrupted or truncated transfer
// can never become a local artifact.
func (s *Store) PutBytes(ctx context.Context, data []byte) (*Artifact, error) {
	a, err := Decode(data)
	if err != nil {
		s.corrupt.Inc()
		return nil, err
	}
	if err := s.Put(ctx, a); err != nil {
		return nil, err
	}
	return a, nil
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	return Stats{
		Lookups:   s.lookups.Value(),
		Hits:      s.hits.Value(),
		Opens:     s.opens.Value(),
		Corrupt:   s.corrupt.Value(),
		Writes:    s.writes.Value(),
		Evictions: s.evictions.Value(),
		Resident:  int(s.count.Load()),
	}
}

// Close drops every resident artifact and fails subsequent operations.
// Files on disk are untouched. Idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.entries.Range(func(k, _ any) bool {
		s.entries.Delete(k)
		return true
	})
	s.count.Store(0)
	return nil
}

// RegisterMetrics exposes the store's counters on reg under prefix
// (e.g. "lcakp_store" yields lcakp_store_lookups_total, ...).
func (s *Store) RegisterMetrics(reg *obs.Registry, prefix string) error {
	for _, m := range []struct {
		suffix, help string
		metric       obs.Metric
	}{
		{"_lookups_total", "artifact point lookups", &s.lookups},
		{"_hits_total", "lookups answered from a resident artifact", &s.hits},
		{"_misses_total", "opens that found no artifact", &s.misses},
		{"_opens_total", "artifact files read and validated", &s.opens},
		{"_corrupt_total", "artifacts rejected by validation", &s.corrupt},
		{"_writes_total", "artifacts persisted", &s.writes},
		{"_evictions_total", "resident artifacts displaced by the budget", &s.evictions},
		{"_resident", "currently resident decoded artifacts",
			obs.GaugeFunc(func() float64 { return float64(s.count.Load()) })},
	} {
		if err := reg.Register(prefix+m.suffix, m.help, m.metric); err != nil {
			return fmt.Errorf("store: register metrics: %w", err)
		}
	}
	return nil
}
