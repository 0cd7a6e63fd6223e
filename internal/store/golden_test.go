package store

import (
	"context"
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"lcakp/internal/core"
	"lcakp/internal/knapsack"
	"lcakp/internal/oracle"
	"lcakp/internal/rng"
	"lcakp/internal/workload"
)

// goldenArtifacts pins, for fixed (workload, ε, seed) triples over
// workload seed 17 and instance hash 1, three values of the epoch-0
// artifact materialized from store.MaterializeRule: the hash of every
// sample that derivation drew, the FNV-64a hash of the artifact body
// (its answer and rule sections, the bytes between header and
// trailer), and the artifact checksum. The determinism tests compare
// two runs of one build; these pin the sampling stream, the solution
// and its encoding across commits. The draw hash fails on any changed
// draw, which the body need not: the rule is reproducible under fresh
// samples by design. The draw and body hashes predate the one-format
// header; only the checksums moved with it.
var goldenArtifacts = []struct {
	workload string
	n        int
	eps      float64
	seed     uint64
	draws    uint64
	body     uint64
	checksum uint64
}{
	{"uniform", 400, 0.45, 2, 0x74b209db39a8ef8e, 0x99c8d4c4fa3a0727, 0xb7b2a24c9966f9f8},
	{"zipf", 20_000, 0.2, 7, 0x2b10610762d36db9, 0xed3c9c4069750f72, 0x63e1ba3298e8ee0d},
	{"planted-large", 5_000, 0.25, 3, 0x5d12e493d4c354e3, 0xda8ca39184c986bf, 0x8563137f022dfd43},
	{"correlated", 8_000, 0.3, 11, 0xba5d221002425e67, 0x8a79fe935fa4bc26, 0x0d7b600c80996556},
	{"zipf", 10_000, 0.1, 5, 0x8f2464a01930a2fa, 0x7179f629158f9d5f, 0x1a8c975cda070e38},
}

// bodyHash is the FNV-64a hash of a's answer and rule sections.
func bodyHash(a *Artifact) uint64 {
	b := a.Bytes()
	h := fnv.New64a()
	h.Write(b[headerSize : len(b)-trailerSize])
	return h.Sum64()
}

// drawHashing hashes every sample drawn through it: index, then the
// profit and weight bits.
type drawHashing struct {
	oracle.Access
	h hash.Hash64
}

func (d *drawHashing) SampleFrame(ctx context.Context, src *rng.Source, dst []oracle.Draw) (int, error) {
	n, err := d.Access.SampleFrame(ctx, src, dst)
	var buf [24]byte
	for _, dr := range dst[:n] {
		binary.LittleEndian.PutUint64(buf[0:], uint64(dr.Index))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(dr.Item.Profit))
		binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(dr.Item.Weight))
		d.h.Write(buf[:])
	}
	return n, err
}

func (d *drawHashing) Sample(ctx context.Context, src *rng.Source) (int, knapsack.Item, error) {
	dr, err := oracle.SampleOne(ctx, d, src)
	return dr.Index, dr.Item, err
}

func TestMaterializeGoldenChecksums(t *testing.T) {
	ctx := context.Background()
	for _, g := range goldenArtifacts {
		gen, err := workload.Generate(workload.Spec{Name: g.workload, N: g.n, Seed: 17})
		if err != nil {
			t.Fatalf("Generate(%s): %v", g.workload, err)
		}
		acc, err := oracle.NewSliceOracle(gen.Float)
		if err != nil {
			t.Fatalf("NewSliceOracle: %v", err)
		}
		hashing := &drawHashing{Access: acc, h: fnv.New64a()}
		lca, err := core.NewLCAKP(hashing, core.Params{Epsilon: g.eps, Seed: g.seed})
		if err != nil {
			t.Fatalf("NewLCAKP: %v", err)
		}
		rule, err := MaterializeRule(ctx, lca)
		if err != nil {
			t.Fatalf("MaterializeRule: %v", err)
		}
		a, err := MaterializeEpoch(ctx, acc, rule, 1, g.seed, 0)
		if err != nil {
			t.Fatalf("MaterializeEpoch: %v", err)
		}
		if draws, body, sum := hashing.h.Sum64(), bodyHash(a), a.Checksum(); draws != g.draws || body != g.body || sum != g.checksum {
			t.Errorf("%s n=%d ε=%v seed=%d: draws %#016x body %#016x checksum %#016x, want %#016x %#016x %#016x (thresholds %v)",
				g.workload, g.n, g.eps, g.seed, draws, body, sum, g.draws, g.body, g.checksum, rule.Thresholds)
		}
	}
}
