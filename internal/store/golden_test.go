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
// workload seed 17 and instance hash 1, the checksum of the artifact
// materialized from store.MaterializeRule and the hash of every sample
// that derivation drew. The values were computed before the alias
// table was packed and the EPS sample's CDF was built once per
// derivation. The determinism tests compare two runs of one build;
// these pin the sampling stream and its rule across commits. The draw
// hash fails on any changed draw, which the checksum alone need not:
// the rule is reproducible under fresh samples by design.
var goldenArtifacts = []struct {
	workload string
	n        int
	eps      float64
	seed     uint64
	checksum uint64
	draws    uint64
}{
	{"uniform", 400, 0.45, 2, 0xf1a6083c7817b022, 0x74b209db39a8ef8e},
	{"zipf", 20_000, 0.2, 7, 0x9c7fc4a510ad9ed9, 0x2b10610762d36db9},
	{"planted-large", 5_000, 0.25, 3, 0x229774ea9485f527, 0x5d12e493d4c354e3},
	{"correlated", 8_000, 0.3, 11, 0x6fa96db406a16cbb, 0xba5d221002425e67},
	{"zipf", 10_000, 0.1, 5, 0x40f64079275912d1, 0x8f2464a01930a2fa},
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
		a, err := Materialize(ctx, acc, rule, 1, g.seed)
		if err != nil {
			t.Fatalf("Materialize: %v", err)
		}
		if got, draws := a.Checksum(), hashing.h.Sum64(); got != g.checksum || draws != g.draws {
			t.Errorf("%s n=%d ε=%v seed=%d: checksum %#016x draws %#016x, want %#016x %#016x (thresholds %v)",
				g.workload, g.n, g.eps, g.seed, got, draws, g.checksum, g.draws, rule.Thresholds)
		}
	}
}
