package gateway

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"lcakp/internal/rng"
)

// modelKey draws a key that may differ from another in any of its four
// fields; span bounds the item range, so the key space is about
// 24·span keys.
func modelKey(src *rng.Source, span int) Key {
	return Key{
		Instance: uint64(src.Intn(2)) + 1,
		Seed:     uint64(src.Intn(4)),
		Epoch:    uint64(src.Intn(3)),
		Item:     src.Intn(span),
	}
}

// modelAnswer is a key's answer: a pure function of every field, as an
// answer bit of C(I_e, r) is, and one that flips between neighbouring
// keys, so a hit served from the wrong slot reads the wrong bit about
// half the time.
func modelAnswer(k Key) bool {
	x := k.Instance*0x9e3779b97f4a7c15 ^ k.Seed*0xbf58476d1ce4e5b9 ^ k.Epoch*0x94d049bb133111eb ^ uint64(k.Item)
	x ^= x >> 29
	x *= 0xbf58476d1ce4e5b9
	return x>>63 == 1
}

// TestCacheModel drives the cache with a random interleaving of get,
// put and do at three capacities and checks it against what was ever
// stored: a hit returns the answer stored under that exact key, a
// fresh put is readable, a failed do caches nothing, and the cache
// never holds more than its capacity. A working set of half the
// capacity then never misses after one warm pass — the check a
// set-associative shard fails, because its sets overflow long before
// the shard is full.
func TestCacheModel(t *testing.T) {
	boom := errors.New("boom")
	ctx := context.Background()
	for _, capacity := range []int{16, 1_000, 65_536} {
		t.Run(fmt.Sprint(capacity), func(t *testing.T) {
			c := newAnswerCache(capacity)
			src := rng.New(uint64(capacity))
			span := capacity/6 + 1 // about four keys per slot: evictions are frequent
			stored := make(map[Key]bool)
			ops := 6 * capacity
			if ops < 20_000 {
				ops = 20_000
			}
			for op := 0; op < ops; op++ {
				k := modelKey(src, span)
				want := modelAnswer(k)
				switch src.Intn(3) {
				case 0:
					got, ok := c.get(k)
					if ok && !stored[k] {
						t.Fatalf("op %d: get(%+v) hit a key never stored", op, k)
					}
					if ok && got != want {
						t.Fatalf("op %d: get(%+v) = %v, want %v", op, k, got, want)
					}
				case 1:
					c.put(k, want)
					stored[k] = true
					if got, ok := c.get(k); !ok || got != want {
						t.Fatalf("op %d: get after put(%+v) = (%v, %v), want (%v, true)", op, k, got, ok, want)
					}
				default:
					fail := src.Intn(8) == 0
					got, oc, err := c.do(ctx, k, func() (bool, error) {
						if fail {
							return false, boom
						}
						return want, nil
					})
					switch {
					case oc == outcomeLed && fail:
						if !errors.Is(err, boom) {
							t.Fatalf("op %d: failed do(%+v) error = %v, want boom", op, k, err)
						}
						if _, ok := c.get(k); ok {
							t.Fatalf("op %d: failed do(%+v) left an entry", op, k)
						}
					case err != nil:
						t.Fatalf("op %d: do(%+v): %v", op, k, err)
					case got != want:
						t.Fatalf("op %d: do(%+v) = %v (outcome %d), want %v", op, k, got, oc, want)
					case oc == outcomeHit && !stored[k]:
						t.Fatalf("op %d: do(%+v) hit a key never stored", op, k)
					default:
						stored[k] = true
					}
				}
				if op%97 == 0 {
					if n := c.len(); n > capacity {
						t.Fatalf("op %d: len %d exceeds capacity %d", op, n, capacity)
					}
				}
				if op%(capacity+97) == 0 {
					checkReachable(t, c, stored)
				}
			}
			if n := c.len(); n > capacity {
				t.Fatalf("len %d exceeds capacity %d", n, capacity)
			}
			checkReachable(t, c, stored)

			// The working set: half the capacity, no shard asked to hold
			// more than half its slots.
			c = newAnswerCache(capacity)
			perShard := capacity / cacheShardCount
			quota := perShard / 2
			if quota < 1 {
				quota = 1
			}
			size := capacity / 2
			if size > quota*cacheShardCount {
				size = quota * cacheShardCount
			}
			inShard := make(map[*cacheShard]int)
			seen := make(map[Key]bool)
			var working []Key
			for len(working) < size {
				k := modelKey(src, 1<<30)
				if s := c.shard(k); !seen[k] && inShard[s] < quota {
					seen[k] = true
					inShard[s]++
					working = append(working, k)
				}
			}
			for _, k := range working {
				c.put(k, modelAnswer(k))
			}
			for pass := 0; pass < 3; pass++ {
				for _, j := range src.Perm(len(working)) {
					k := working[j]
					if got, ok := c.get(k); !ok || got != modelAnswer(k) {
						t.Fatalf("pass %d: working-set key %+v = (%v, %v), want (%v, true)", pass, k, got, ok, modelAnswer(k))
					}
				}
			}
		})
	}
}

// checkReachable asserts that every resident entry can be found: as
// many stored keys hit as the cache holds entries. An entry the index
// lost, or a key resident twice, makes the count fall short.
func checkReachable(t *testing.T, c *answerCache, stored map[Key]bool) {
	t.Helper()
	hits := 0
	for k := range stored {
		if _, ok := c.get(k); ok {
			hits++
		}
	}
	if n := c.len(); hits != n {
		t.Fatalf("%d stored keys hit, but the cache holds %d entries", hits, n)
	}
}

// TestCacheConcurrentHammer runs get, put and do from eight goroutines
// over overlapping keys in a cache far smaller than the key space, so
// lookups, inserts, evictions and shared flights race one another.
// Every answer is a pure function of its key, and every answer
// returned must match it. Run it under -race.
func TestCacheConcurrentHammer(t *testing.T) {
	const (
		workers = 8
		ops     = 20_000
		keys    = 2_048
	)
	c := newAnswerCache(256)
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := rng.New(uint64(w) + 1)
			for op := 0; op < ops; op++ {
				i := src.Intn(keys)
				k := Key{Instance: uint64(i % 3), Seed: uint64(i % 5), Epoch: uint64(i % 2), Item: i}
				want := modelAnswer(k)
				switch src.Intn(3) {
				case 0:
					if got, ok := c.get(k); ok && got != want {
						t.Errorf("worker %d: get(%+v) = %v, want %v", w, k, got, want)
						return
					}
				case 1:
					c.put(k, want)
				default:
					got, _, err := c.do(ctx, k, func() (bool, error) {
						runtime.Gosched() // widen the window other callers join the flight in
						return want, nil
					})
					if err != nil || got != want {
						t.Errorf("worker %d: do(%+v) = (%v, %v), want (%v, nil)", w, k, got, err, want)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if n := c.len(); n > 256 {
		t.Errorf("len %d exceeds capacity 256", n)
	}
}

// sinkAnswer keeps benchmarked lookups from being optimized away.
var sinkAnswer bool

// BenchmarkAnswerCache measures the cache alone: a hit on a resident
// key (half of a default-size cache resident), and an insert into a
// full cache, which evicts one entry per insert.
func BenchmarkAnswerCache(b *testing.B) {
	const capacity, resident = DefaultCacheSize, DefaultCacheSize / 2
	keyOf := func(i int) Key { return Key{Instance: 3, Seed: 7, Epoch: 1, Item: i} }

	b.Run("hit", func(b *testing.B) {
		c := newAnswerCache(capacity)
		for i := 0; i < resident; i++ {
			c.put(keyOf(i), i%3 == 0)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkAnswer, _ = c.get(keyOf(i % resident))
		}
	})

	b.Run("insert-evict", func(b *testing.B) {
		c := newAnswerCache(capacity)
		for i := 0; i < capacity; i++ {
			c.put(keyOf(i), i%3 == 0)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.put(keyOf(capacity+i), i%3 == 0)
		}
	})
}
