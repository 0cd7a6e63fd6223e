package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash"
	"hash/fnv"
	"sync"
	"testing"

	"lcakp/internal/core"
	"lcakp/internal/knapsack"
	"lcakp/internal/oracle"
	"lcakp/internal/rng"
	"lcakp/internal/store"
	"lcakp/internal/workload"
)

// perDrawAccess hides the frame method of the access it wraps, so the
// instance server takes its one-draw-at-a-time path.
type perDrawAccess struct{ oracle.Access }

// expectedRemoteDraws replays what a RemoteAccess with the given batch
// size returns for its first draws from src: the stream seed is src's
// first word, batch b draws per draw from rng.New(seed ^ b·φ).
func expectedRemoteDraws(t *testing.T, acc oracle.Access, src *rng.Source, batch, draws int) []oracle.Draw {
	t.Helper()
	seed := src.Uint64()
	out := make([]oracle.Draw, 0, draws)
	for b := uint64(0); len(out) < draws; b++ {
		batchSrc := rng.New(seed ^ (b * 0x9e3779b97f4a7c15))
		for k := 0; k < batch && len(out) < draws; k++ {
			idx, item, err := acc.Sample(context.Background(), batchSrc)
			if err != nil {
				t.Fatalf("Sample: %v", err)
			}
			out = append(out, oracle.Draw{Index: idx, Item: item})
		}
	}
	return out
}

// TestRemoteSampleMatchesPerDrawSequence holds the remote sample path
// — the server's two-pass frames and the client's decode on
// consumption — to the per-draw Sample sequence, for frame sizes whose
// streams span several frames and a 4,096-draw frame that spans the
// server's draw chunk, and for a server that draws one by one.
func TestRemoteSampleMatchesPerDrawSequence(t *testing.T) {
	gen, err := workload.Generate(workload.Spec{Name: "zipf", N: 5000, Seed: 3})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	acc, err := oracle.NewSliceOracle(gen.Float)
	if err != nil {
		t.Fatalf("NewSliceOracle: %v", err)
	}
	for name, served := range map[string]oracle.Access{"framed": acc, "per-draw": perDrawAccess{acc}} {
		srv, err := NewInstanceServer("127.0.0.1:0", served)
		if err != nil {
			t.Fatalf("NewInstanceServer: %v", err)
		}
		for _, batch := range []int{1, 1000, sampleChunk, sampleChunk + 5} {
			remote, err := DialInstance(srv.Addr(), 0, batch)
			if err != nil {
				t.Fatalf("DialInstance: %v", err)
			}
			draws := 2*batch + batch/2 + 3
			want := expectedRemoteDraws(t, acc, rng.New(uint64(batch)), batch, draws)
			// Two interleaved sources: the second evicts the first from
			// the client's last-stream cache on every draw.
			src, other := rng.New(uint64(batch)), rng.New(99)
			for k, w := range want {
				idx, item, err := remote.Sample(context.Background(), src)
				if err != nil {
					t.Fatalf("%s batch=%d: Sample %d: %v", name, batch, k, err)
				}
				if idx != w.Index || item != w.Item {
					t.Fatalf("%s batch=%d: draw %d = (%d, %+v), want (%d, %+v)", name, batch, k, idx, item, w.Index, w.Item)
				}
				if k%3 == 0 {
					if _, _, err := remote.Sample(context.Background(), other); err != nil {
						t.Fatalf("%s batch=%d: interleaved Sample: %v", name, batch, err)
					}
				}
			}
			remote.Close()
		}
		srv.Close()
	}
}

// TestRemoteSampleConcurrentStreams samples one RemoteAccess from
// several goroutines at once, each with its own source: every stream
// must still see exactly its own per-draw sequence, across frames and
// with the last-stream cache changing hands between calls.
func TestRemoteSampleConcurrentStreams(t *testing.T) {
	const workers, batch, draws = 4, 300, 1000
	acc, _ := testAccess(t, 5000)
	srv, err := NewInstanceServer("127.0.0.1:0", acc)
	if err != nil {
		t.Fatalf("NewInstanceServer: %v", err)
	}
	defer srv.Close()
	remote, err := DialInstance(srv.Addr(), 0, batch)
	if err != nil {
		t.Fatalf("DialInstance: %v", err)
	}
	defer remote.Close()
	want := make([][]oracle.Draw, workers)
	for w := range want {
		want[w] = expectedRemoteDraws(t, acc, rng.New(uint64(100+w)), batch, draws)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := rng.New(uint64(100 + w))
			for k, d := range want[w] {
				idx, item, err := remote.Sample(context.Background(), src)
				if err != nil {
					t.Errorf("worker %d: Sample %d: %v", w, k, err)
					return
				}
				if idx != d.Index || item != d.Item {
					t.Errorf("worker %d: draw %d = (%d, %+v), want (%d, %+v)", w, k, idx, item, d.Index, d.Item)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// remoteDrawHashing hashes every sample drawn through it: index, then
// the profit and weight bits.
type remoteDrawHashing struct {
	oracle.Access
	h hash.Hash64
}

func (d *remoteDrawHashing) Sample(ctx context.Context, src *rng.Source) (int, knapsack.Item, error) {
	idx, item, err := d.Access.Sample(ctx, src)
	d.h.Write(appendSample(nil, idx, item))
	return idx, item, err
}

// TestRemoteMaterializeMatchesGolden derives the canonical rule of one
// golden store triple (zipf, n=20,000, ε=0.2, seed 7) through an
// instance server and a RemoteAccess. The artifact checksum must equal
// the one the in-memory derivation pins in internal/store, and the
// hash of the 17,666 remote draws the value computed before frames
// were drawn in two passes and decoded on consumption.
func TestRemoteMaterializeMatchesGolden(t *testing.T) {
	const wantChecksum, wantDraws uint64 = 0x9c7fc4a510ad9ed9, 0x50c31ff5756d723f
	ctx := context.Background()
	gen, err := workload.Generate(workload.Spec{Name: "zipf", N: 20_000, Seed: 17})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	acc, err := oracle.NewSliceOracle(gen.Float)
	if err != nil {
		t.Fatalf("NewSliceOracle: %v", err)
	}
	srv, err := NewInstanceServer("127.0.0.1:0", acc)
	if err != nil {
		t.Fatalf("NewInstanceServer: %v", err)
	}
	defer srv.Close()
	remote, err := DialInstance(srv.Addr(), 0, 0)
	if err != nil {
		t.Fatalf("DialInstance: %v", err)
	}
	defer remote.Close()
	hashing := &remoteDrawHashing{Access: remote, h: fnv.New64a()}
	lca, err := core.NewLCAKP(hashing, core.Params{Epsilon: 0.2, Seed: 7})
	if err != nil {
		t.Fatalf("NewLCAKP: %v", err)
	}
	rule, err := store.MaterializeRule(ctx, lca)
	if err != nil {
		t.Fatalf("MaterializeRule: %v", err)
	}
	a, err := store.Materialize(ctx, acc, rule, 1, 7)
	if err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	if got, draws := a.Checksum(), hashing.h.Sum64(); got != wantChecksum || draws != wantDraws {
		t.Errorf("remote derivation: checksum %#016x draws %#016x, want %#016x %#016x", got, draws, wantChecksum, wantDraws)
	}
}

// FuzzSampleFrameDecode feeds arbitrary payloads to the client's
// sample-frame decoder: each either fails the one length check or
// yields draws that are in range for n or rejected, and that encode
// back to exactly the bytes they came from. It must never panic or
// read out of range.
func FuzzSampleFrameDecode(f *testing.F) {
	var valid []byte
	valid = appendSample(valid, 3, knapsack.Item{Profit: 0.25, Weight: 0.5})
	valid = appendSample(valid, 9, knapsack.Item{Profit: 1e-9, Weight: 7})
	f.Add(valid, uint32(10))
	f.Add(valid, uint32(4))
	f.Add(valid[:23], uint32(10))
	f.Add([]byte{}, uint32(1))
	f.Add(bytes.Repeat([]byte{0xff}, 48), uint32(1<<31))
	f.Fuzz(func(t *testing.T, payload []byte, n32 uint32) {
		n := int(n32)
		fr, err := decodeSampleFrame(payload)
		if err != nil {
			if !errors.Is(err, ErrBadMessage) {
				t.Fatalf("unclassified decode error: %v", err)
			}
			if len(payload) != 0 && len(payload)%sampleEntryLen == 0 {
				t.Fatalf("rejected a whole frame of %d bytes: %v", len(payload), err)
			}
			return
		}
		if fr.draws()*sampleEntryLen != len(payload) || fr.draws() == 0 {
			t.Fatalf("%d draws from %d bytes", fr.draws(), len(payload))
		}
		for k := range fr.draws() {
			idx, item, err := fr.draw(k, n)
			entry := payload[k*sampleEntryLen : (k+1)*sampleEntryLen]
			if err != nil {
				if !errors.Is(err, ErrBadMessage) {
					t.Fatalf("draw %d: unclassified error %v", k, err)
				}
				if idx, _ := getU64(entry, 0); idx < uint64(n) {
					t.Fatalf("draw %d: rejected in-range index %d (n=%d)", k, idx, n)
				}
				continue
			}
			if idx < 0 || idx >= n {
				t.Fatalf("draw %d: index %d out of range (n=%d)", k, idx, n)
			}
			if re := appendSample(nil, idx, item); !bytes.Equal(re, entry) {
				t.Fatalf("draw %d: re-encodes to %x, frame holds %x", k, re, entry)
			}
		}
	})
}

// BenchmarkInstanceSampleFrame is the instance server's work for one
// 4,096-draw sample frame at n = 1M — draws and encoding, no network.
func BenchmarkInstanceSampleFrame(b *testing.B) {
	gen, err := workload.Generate(workload.Spec{Name: "zipf", N: 1_000_000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	acc, err := oracle.NewSliceOracle(gen.Float)
	if err != nil {
		b.Fatal(err)
	}
	h := &instanceHandler{access: acc}
	var sc connScratch
	ctx := context.Background()
	payload := make([]byte, 16)
	binary.LittleEndian.PutUint64(payload[0:8], 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		binary.LittleEndian.PutUint64(payload[8:16], uint64(i))
		resp := h.handle(ctx, frame{msgType: msgSample, payload: payload}, &sc)
		if resp.msgType != msgSample|respBit {
			b.Fatalf("response %#x: %s", resp.msgType, resp.payload)
		}
	}
}
