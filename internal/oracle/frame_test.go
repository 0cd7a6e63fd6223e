package oracle

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"lcakp/internal/knapsack"
	"lcakp/internal/rng"
	"lcakp/internal/workload"
)

// frameSizes covers a lone draw, a partial chunk, chunk edges and a
// frame spanning several chunks.
var frameSizes = []int{1, 7, frameChunk - 1, frameChunk, frameChunk + 1, 4096, 5000}

// workloadInstance generates an instance of a workload.
func workloadInstance(t testing.TB, name string, n int) *knapsack.Instance {
	t.Helper()
	gen, err := workload.Generate(workload.Spec{Name: name, N: n, Seed: 42})
	if err != nil {
		t.Fatalf("Generate(%s): %v", name, err)
	}
	return gen.Float
}

// workloadOracle builds a slice oracle over a generated workload.
func workloadOracle(t testing.TB, name string, n int) *SliceOracle {
	t.Helper()
	o, err := NewSliceOracle(workloadInstance(t, name, n))
	if err != nil {
		t.Fatalf("NewSliceOracle: %v", err)
	}
	return o
}

// TestSampleFrameMatchesSample holds SampleFrame to the per-draw
// Sample sequence — same draws, same source position after — on the
// alias sampler's two-pass frame.
func TestSampleFrameMatchesSample(t *testing.T) {
	ctx := context.Background()
	o := workloadOracle(t, "planted-large", 2000)
	for _, size := range frameSizes {
		one, frame := rng.New(uint64(size)), rng.New(uint64(size))
		dst := make([]Draw, size)
		if n, err := o.SampleFrame(ctx, frame, dst); err != nil || n != size {
			t.Fatalf("SampleFrame filled %d of %d: %v", n, size, err)
		}
		for k := range dst {
			idx, item, err := o.Sample(ctx, one)
			if err != nil {
				t.Fatalf("Sample: %v", err)
			}
			if dst[k] != (Draw{Index: idx, Item: item}) {
				t.Fatalf("frame of %d: draw %d = %+v, Sample gave (%d, %+v)", size, k, dst[k], idx, item)
			}
		}
		if one.Uint64() != frame.Uint64() {
			t.Fatalf("frame of %d left the source at a different position", size)
		}
	}
}

// TestAliasDrawsGolden pins the weighted sampling stream across
// commits: the hash of 100,000 draws (index, profit and weight bits)
// per workload, taken per draw and by 4,096-draw frames, plus the
// source's next word after them. The values were computed before the
// alias table was packed and frames were drawn in two passes; any
// change to a single draw changes them.
func TestAliasDrawsGolden(t *testing.T) {
	const draws = 100_000
	golden := []struct {
		workload   string
		hash, tail uint64
	}{
		{"zipf", 0x9530b55e658b1893, 0x541a1db591f0b0ac},
		{"uniform", 0xeba80a811319c973, 0x74258f93fe4f31a0},
		{"planted-large", 0x256349751d52a1e7, 0xac5300c61aa7de3d},
	}
	ctx := context.Background()
	for _, g := range golden {
		o := workloadOracle(t, g.workload, 50_000)

		perDraw := make([]Draw, draws)
		src := rng.New(99).Derive(g.workload)
		for k := range perDraw {
			idx, item, err := o.Sample(ctx, src)
			if err != nil {
				t.Fatalf("Sample: %v", err)
			}
			perDraw[k] = Draw{Index: idx, Item: item}
		}
		if got, tail := drawHash(perDraw), src.Uint64(); got != g.hash || tail != g.tail {
			t.Errorf("%s per draw: hash %#x tail %#x, want %#x %#x", g.workload, got, tail, g.hash, g.tail)
		}

		framed := make([]Draw, draws)
		src = rng.New(99).Derive(g.workload)
		for off := 0; off < draws; off += 4096 {
			if _, err := o.SampleFrame(ctx, src, framed[off:min(off+4096, draws)]); err != nil {
				t.Fatalf("SampleFrame: %v", err)
			}
		}
		if got, tail := drawHash(framed), src.Uint64(); got != g.hash || tail != g.tail {
			t.Errorf("%s framed: hash %#x tail %#x, want %#x %#x", g.workload, got, tail, g.hash, g.tail)
		}
	}
}

// drawHash is FNV-64a over each draw's index and item bits.
func drawHash(draws []Draw) uint64 {
	h := fnv.New64a()
	var buf [24]byte
	for _, d := range draws {
		binary.LittleEndian.PutUint64(buf[0:], uint64(d.Index))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(d.Item.Profit))
		binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(d.Item.Weight))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// benchFrameOracle is a 1M-item zipf instance, large enough that the
// alias table and the items miss the cache on most draws.
func benchFrameOracle(b *testing.B) *SliceOracle {
	b.Helper()
	return workloadOracle(b, "zipf", 1_000_000)
}

// BenchmarkSampleFrame draws one 4,096-draw frame per op at n = 1M,
// by the two-pass frame and by 4,096 Sample calls.
func BenchmarkSampleFrame(b *testing.B) {
	o := benchFrameOracle(b)
	ctx := context.Background()
	dst := make([]Draw, 4096)
	b.Run("frame", func(b *testing.B) {
		src := rng.New(1)
		for i := 0; i < b.N; i++ {
			if _, err := o.SampleFrame(ctx, src, dst); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("per-draw", func(b *testing.B) {
		src := rng.New(1)
		for i := 0; i < b.N; i++ {
			for k := range dst {
				idx, item, err := o.Sample(ctx, src)
				if err != nil {
					b.Fatal(err)
				}
				dst[k] = Draw{Index: idx, Item: item}
			}
		}
	})
}
