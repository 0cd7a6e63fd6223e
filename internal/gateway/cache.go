package gateway

import (
	"context"
	"fmt"
	"math/bits"
	"sync"
)

// Key identifies one immutable answer bit: which instance, which
// shared seed, which epoch of the instance, which item. Definition 2.2
// makes the answered solution C(I_e, r) a pure function of (I_e, r),
// so the tuple below fully determines the answer — the property that
// lets the cache skip invalidation entirely, even under churn: sealing
// epoch e+1 creates new keys rather than invalidating old ones, so a
// query pinned to epoch e keeps hitting e's entries forever. Entries
// are only ever evicted for space, never for staleness.
type Key struct {
	// Instance identifies the instance I (the workload generation seed
	// in this repo's deployments; any stable instance fingerprint
	// works).
	Instance uint64
	// Seed is the shared LCA seed r.
	Seed uint64
	// Epoch is the instance version e (0 = the tenant's initial
	// instance).
	Epoch uint64
	// Item is the queried index.
	Item int
}

// cacheShardBits is log2 of the number of independently locked
// shards; the top bits of a key's hash pick its shard.
const cacheShardBits = 4

// cacheShardCount is the number of independently locked shards.
const cacheShardCount = 1 << cacheShardBits

// answerCache is a sharded cache of answer bits with CLOCK eviction
// and single-flight deduplication of concurrent misses on the same
// key.
type answerCache struct {
	shards [cacheShardCount]cacheShard
}

// cacheShard is one lock domain. Its entries live in a fixed array of
// pointer-free slots, found through an open-addressed index of slot
// numbers, so the garbage collector never scans them and an insert
// never allocates. The shard is fully associative — any key may take
// any slot — so a working set that fits the shard never conflict-
// misses; a CLOCK hand picks the slot an insert into a full shard
// reuses.
type cacheShard struct {
	mu sync.Mutex
	// slots holds the entries; slots[:used] are resident.
	slots []slot
	used  int
	// index maps hash positions to slot number + 1 (0 = empty). Its
	// length is a power of two at least twice len(slots), so linear
	// probing always meets an empty position.
	index []uint32
	// hand is the CLOCK hand: the next slot considered for reuse.
	hand    int
	flights map[Key]*flight
}

// slot is one resident answer.
type slot struct {
	key    Key
	hash   uint64
	answer bool
	// ref is the CLOCK reference bit: set by a hit, cleared when the
	// hand passes, so an entry used since the last pass survives it.
	ref bool
}

// flight is one in-progress computation of a key's answer; joiners
// wait on done and read answer/err afterwards.
type flight struct {
	done   chan struct{}
	answer bool
	err    error
}

// newAnswerCache builds a cache holding roughly capacity entries in
// total (split evenly across shards, minimum one per shard). The slot
// arrays are allocated here, once.
func newAnswerCache(capacity int) *answerCache {
	perShard := capacity / cacheShardCount
	if perShard < 1 {
		perShard = 1
	}
	positions := 2
	for positions < 2*perShard {
		positions <<= 1
	}
	c := &answerCache{}
	for s := range c.shards {
		c.shards[s] = cacheShard{
			slots:   make([]slot, perShard),
			index:   make([]uint32, positions),
			flights: make(map[Key]*flight),
		}
	}
	return c
}

// hashKey mixes the four key fields a word at a time with wyhash's
// multiply-fold. The result is deterministic, so a replayed query
// stream exercises identical shard and eviction behavior.
func hashKey(k Key) uint64 {
	const (
		p0 = 0xa0761d6478bd642f
		p1 = 0xe7037ed1a0b428db
		p2 = 0x8ebc6af09c88c6e3
		p3 = 0x589965cc75374cc3
	)
	return mulFold(mulFold(k.Instance^p0, k.Seed^p1)^mulFold(k.Epoch^p2, uint64(k.Item)^p3), p1)
}

// mulFold folds the 128-bit product of a and b to 64 bits.
func mulFold(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

// shardOf returns the shard of a key hashing to h. The shard takes the
// top bits and the index position the low bits, so the two stay
// independent.
func (c *answerCache) shardOf(h uint64) *cacheShard {
	return &c.shards[h>>(64-cacheShardBits)]
}

// get returns the cached answer for k, if resident, and marks it used.
func (c *answerCache) get(k Key) (answer, ok bool) {
	h := hashKey(k)
	s := c.shardOf(h)
	s.mu.Lock()
	if i, _ := s.lookup(k, h); i >= 0 {
		s.slots[i].ref = true
		answer, ok = s.slots[i].answer, true
	}
	s.mu.Unlock()
	return answer, ok
}

// put stores k's answer, reusing the slot the CLOCK hand picks if the
// shard is full.
func (c *answerCache) put(k Key, answer bool) {
	h := hashKey(k)
	s := c.shardOf(h)
	s.mu.Lock()
	s.storeLocked(k, h, answer)
	s.mu.Unlock()
}

// lookup returns the slot holding k, or -1 and the empty index
// position where k's probe ended. The shard lock is held.
func (s *cacheShard) lookup(k Key, h uint64) (slotNum int, free uint64) {
	mask := uint64(len(s.index) - 1)
	for p := h & mask; ; p = (p + 1) & mask {
		e := s.index[p]
		if e == 0 {
			return -1, p
		}
		if sl := &s.slots[e-1]; sl.hash == h && sl.key == k {
			return int(e - 1), p
		}
	}
}

// storeLocked inserts k or marks it used; the shard lock is held.
func (s *cacheShard) storeLocked(k Key, h uint64, answer bool) {
	i, free := s.lookup(k, h)
	if i >= 0 {
		// Answers are immutable, so a re-store can only repeat the same
		// bit; count it as a use.
		s.slots[i].ref = true
		return
	}
	if s.used < len(s.slots) {
		i = s.used
		s.used++
	} else {
		i = s.evict()
		// Unindexing shifts entries back along their probe runs, which
		// may shorten k's: probe again for its first empty position.
		_, free = s.lookup(k, h)
	}
	s.slots[i] = slot{key: k, hash: h, answer: answer}
	s.index[free] = uint32(i + 1)
}

// evict advances the CLOCK hand to the first slot whose reference bit
// is clear, clearing set bits on the way, and unindexes that slot for
// reuse. Every slot is resident when it runs.
func (s *cacheShard) evict() int {
	for {
		i := s.hand
		if s.hand++; s.hand == len(s.slots) {
			s.hand = 0
		}
		if !s.slots[i].ref {
			s.unindex(i)
			return i
		}
		s.slots[i].ref = false
	}
}

// unindex removes slot i's index entry by backward-shift deletion:
// each later entry of the probe run that may sit earlier moves into
// the gap, so no tombstones build up and every probe still ends at
// the first empty position.
func (s *cacheShard) unindex(i int) {
	mask := uint64(len(s.index) - 1)
	p := s.slots[i].hash & mask
	for s.index[p] != uint32(i+1) {
		p = (p + 1) & mask
	}
	for q := (p + 1) & mask; s.index[q] != 0; q = (q + 1) & mask {
		e := s.index[q]
		// The entry at q may move to p when p lies on its probe path,
		// i.e. it sits at least as far from home as from p.
		if (q-s.slots[e-1].hash)&mask >= (q-p)&mask {
			s.index[p] = e
			p = q
		}
	}
	s.index[p] = 0
}

// outcome classifies how do() obtained its answer, for the metrics
// split.
type outcome uint8

const (
	outcomeHit    outcome = iota // answer was resident
	outcomeShared                // joined another caller's flight
	outcomeLed                   // this caller ran fn
)

// do returns k's answer, computing it with fn on a miss. Concurrent
// calls for the same key share one fn invocation (single-flight): the
// first caller leads, the rest wait. Sharing is safe with certainty —
// per Theorem 4.1 every correct computation of k yields the same bit —
// so dedup cannot change any caller's answer, only its cost. A leader
// error is returned to every waiter and nothing is cached; joiners
// whose own ctx fires stop waiting and return ctx's error.
func (c *answerCache) do(ctx context.Context, k Key, fn func() (bool, error)) (bool, outcome, error) {
	h := hashKey(k)
	s := c.shardOf(h)
	s.mu.Lock()
	if i, _ := s.lookup(k, h); i >= 0 {
		s.slots[i].ref = true
		answer := s.slots[i].answer
		s.mu.Unlock()
		return answer, outcomeHit, nil
	}
	if f, ok := s.flights[k]; ok {
		s.mu.Unlock()
		select {
		case <-f.done:
			return f.answer, outcomeShared, f.err
		case <-ctx.Done():
			return false, outcomeShared, fmt.Errorf("gateway: wait for shared flight: %w", ctx.Err())
		}
	}
	f := &flight{done: make(chan struct{})} //lint:alloc replica-bound miss path: one single-flight record per key the cache and store both missed
	s.flights[k] = f
	s.mu.Unlock()

	f.answer, f.err = fn()
	s.mu.Lock()
	delete(s.flights, k)
	if f.err == nil {
		s.storeLocked(k, h, f.answer)
	}
	s.mu.Unlock()
	close(f.done)
	return f.answer, outcomeLed, f.err
}
