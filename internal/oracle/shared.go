package oracle

import (
	"runtime"
	"sync"
	"weak"

	"lcakp/internal/knapsack"
)

// tables finds the alias table NewSliceOracle built for an instance
// again, so every oracle over one instance draws from one table. An
// entry is keyed by the instance's weak pointer and holds its table
// weakly too: the registry keeps neither alive, a table lives as long
// as some oracle holds it, and a cleanup on the instance deletes its
// entry once the instance dies. It is package-level because its
// contents are a pure function of keys that are read-only: instances
// are read-only once built, so a table built from an instance's
// profits stays that instance's table.
var tables = struct {
	mu      sync.Mutex
	entries map[weak.Pointer[knapsack.Instance]]*tableEntry
}{entries: make(map[weak.Pointer[knapsack.Instance]]*tableEntry)}

// tableEntry is one instance's slot. Its mutex serializes the builds
// over that instance alone, so concurrent first oracles over one
// instance build one table while builds over other instances proceed.
type tableEntry struct {
	key   weak.Pointer[knapsack.Instance]
	mu    sync.Mutex
	table weak.Pointer[AliasSampler]
}

// sharedSampler returns the live alias table of inst, building it with
// NewAliasSampler when no oracle holds one.
func sharedSampler(inst *knapsack.Instance) (*AliasSampler, error) {
	e := entryOf(inst)
	if e == nil {
		return NewAliasSampler(inst)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if s := e.table.Value(); s != nil {
		return s, nil
	}
	s, err := NewAliasSampler(inst)
	if err != nil {
		return nil, err
	}
	e.table = weak.Make(s)
	return s, nil
}

// entryOf returns inst's registry entry, adding one on its first
// oracle. It returns nil, and inst's oracles take private tables, when
// inst lies outside the heap: the instance of a package-level variable
// may be allocated by the linker, weak.Make aborts the program on such
// a pointer, and runtime.AddCleanup answers it with its no-op zero
// Cleanup. So every call registers the entry's cleanup first, and a
// call that finds an entry already stops its own.
func entryOf(inst *knapsack.Instance) *tableEntry {
	e := new(tableEntry)
	c := runtime.AddCleanup(inst, forgetTable, e)
	if c == (runtime.Cleanup{}) {
		return nil
	}
	e.key = weak.Make(inst)
	tables.mu.Lock()
	defer tables.mu.Unlock()
	if old, ok := tables.entries[e.key]; ok {
		c.Stop()
		return old
	}
	tables.entries[e.key] = e
	return e
}

// forgetTable deletes a dead instance's entry.
func forgetTable(e *tableEntry) {
	tables.mu.Lock()
	delete(tables.entries, e.key)
	tables.mu.Unlock()
}
