package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash"
	"hash/fnv"
	"net"
	"sync"
	"testing"
	"time"

	"lcakp/internal/core"
	"lcakp/internal/engine"
	"lcakp/internal/knapsack"
	"lcakp/internal/oracle"
	"lcakp/internal/rng"
	"lcakp/internal/store"
	"lcakp/internal/workload"
)

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
// — the server's two-pass frames and the client's decode into the
// caller's frame — to the per-draw Sample sequence, for batch sizes
// whose streams span several batches and a 4,096-draw batch that
// spans the server's draw chunk. Callers draw one at a time, and in
// frames of mixed sizes that start and end inside batches; both ways
// interleave two sources, which evict each other from the client's
// last-stream cache on every call.
func TestRemoteSampleMatchesPerDrawSequence(t *testing.T) {
	gen, err := workload.Generate(workload.Spec{Name: "zipf", N: 5000, Seed: 3})
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
	for _, batch := range []int{1, 1000, sampleChunk, sampleChunk + 5} {
		remote, err := DialInstance(srv.Addr(), 0, batch)
		if err != nil {
			t.Fatalf("DialInstance: %v", err)
		}
		draws := 2*batch + batch/2 + 3
		want := expectedRemoteDraws(t, acc, rng.New(uint64(batch)), batch, draws)
		src, other := rng.New(uint64(batch)), rng.New(99)
		for k, w := range want {
			idx, item, err := remote.Sample(context.Background(), src)
			if err != nil {
				t.Fatalf("batch=%d: Sample %d: %v", batch, k, err)
			}
			if idx != w.Index || item != w.Item {
				t.Fatalf("batch=%d: draw %d = (%d, %+v), want (%d, %+v)", batch, k, idx, item, w.Index, w.Item)
			}
			if k%3 == 0 {
				if _, _, err := remote.Sample(context.Background(), other); err != nil {
					t.Fatalf("batch=%d: interleaved Sample: %v", batch, err)
				}
			}
		}

		// Mixed frame sizes: a lone draw, a large-item stage, a whole
		// server chunk and a frame past it, in opposite orders on the
		// two sources.
		sizes := [][]int{{1, 1266, 4096, 4100}, {4100, 4096, 1266, 1}}
		srcs := make([]*rng.Source, len(sizes))
		wants := make([][]oracle.Draw, len(sizes))
		for s := range sizes {
			seed := uint64(batch + 1000*(s+1))
			srcs[s] = rng.New(seed)
			wants[s] = expectedRemoteDraws(t, acc, rng.New(seed), batch, 1+1266+4096+4100)
		}
		for f := range sizes[0] {
			for s, src := range srcs {
				dst := make([]oracle.Draw, sizes[s][f])
				n, err := remote.SampleFrame(context.Background(), src, dst)
				if err != nil || n != len(dst) {
					t.Fatalf("batch=%d: source %d frame %d of %d: filled %d, %v", batch, s, f, len(dst), n, err)
				}
				for k, d := range dst {
					if d != wants[s][k] {
						t.Fatalf("batch=%d: source %d frame %d: draw %d = %+v, want %+v", batch, s, f, k, d, wants[s][k])
					}
				}
				wants[s] = wants[s][len(dst):]
			}
		}
		remote.Close()
	}
}

// TestRemoteSampleRejectsWrongFrameSize scripts an instance server that
// answers a 4,096-draw request with 4,095 entries, then with 4,097: both
// must fail with ErrBadMessage rather than shift the stream's later
// draws, and the next well-sized batch must decode from its first
// entry.
func TestRemoteSampleRejectsWrongFrameSize(t *testing.T) {
	const batch, n = 4096, 10_000
	entries := func(count int) []byte {
		var b []byte
		for k := range count {
			b = appendSample(b, k, knapsack.Item{Profit: 1e-4, Weight: float64(k)})
		}
		return b
	}
	answers := [][]byte{entries(batch - 1), entries(batch + 1), entries(batch)}
	addr := scriptedServer(t, func(conn net.Conn) {
		defer conn.Close()
		for {
			req, err := readFrame(conn)
			if err != nil {
				return
			}
			resp := frame{msgType: req.msgType | respBit}
			switch req.msgType {
			case msgInfo:
				resp.payload = putF64(putU64(nil, n), 1)
			case msgSample:
				if len(answers) == 0 {
					return
				}
				resp.payload, answers = answers[0], answers[1:]
			}
			if err := writeFrame(conn, resp); err != nil {
				return
			}
		}
	})
	remote, err := DialInstance(addr, time.Second, batch)
	if err != nil {
		t.Fatalf("DialInstance: %v", err)
	}
	defer remote.Close()
	src := rng.New(1)
	dst := make([]oracle.Draw, batch)
	for _, name := range []string{"short", "long"} {
		if k, err := remote.SampleFrame(context.Background(), src, dst); !errors.Is(err, ErrBadMessage) || k != 0 {
			t.Fatalf("%s frame: filled %d, err %v, want 0 and ErrBadMessage", name, k, err)
		}
	}
	if k, err := remote.SampleFrame(context.Background(), src, dst); err != nil || k != batch {
		t.Fatalf("well-sized frame: filled %d, err %v", k, err)
	}
	for k, d := range dst {
		if d.Index != k || d.Item.Weight != float64(k) {
			t.Fatalf("draw %d = %+v, want entry %d", k, d, k)
		}
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

func (d *remoteDrawHashing) SampleFrame(ctx context.Context, src *rng.Source, dst []oracle.Draw) (int, error) {
	n, err := d.Access.SampleFrame(ctx, src, dst)
	for _, dr := range dst[:n] {
		d.h.Write(appendSample(nil, dr.Index, dr.Item))
	}
	return n, err
}

func (d *remoteDrawHashing) Sample(ctx context.Context, src *rng.Source) (int, knapsack.Item, error) {
	dr, err := oracle.SampleOne(ctx, d, src)
	return dr.Index, dr.Item, err
}

// TestRemoteMaterializeMatchesGolden derives the canonical rule of one
// golden store triple (zipf, n=20,000, ε=0.2, seed 7) through an
// instance server and a RemoteAccess. The hash of the 17,666 remote
// draws must equal the value computed before frames were drawn in two
// passes and decoded on consumption; the epoch-0 artifact's body hash
// (answer and rule sections) and checksum must equal the ones the
// in-memory derivation pins in internal/store.
func TestRemoteMaterializeMatchesGolden(t *testing.T) {
	const wantDraws, wantBody, wantChecksum uint64 = 0x50c31ff5756d723f, 0xed3c9c4069750f72, 0x63e1ba3298e8ee0d
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
	a, err := store.MaterializeEpoch(ctx, acc, rule, 1, 7, 0)
	if err != nil {
		t.Fatalf("MaterializeEpoch: %v", err)
	}
	b := a.Bytes()
	body := fnv.New64a()
	body.Write(b[binary.LittleEndian.Uint32(b[36:40]) : len(b)-8]) // answer offset to trailer
	if draws, bh, sum := hashing.h.Sum64(), body.Sum64(), a.Checksum(); draws != wantDraws || bh != wantBody || sum != wantChecksum {
		t.Errorf("remote derivation: draws %#016x body %#016x checksum %#016x, want %#016x %#016x %#016x",
			draws, bh, sum, wantDraws, wantBody, wantChecksum)
	}
}

// TestColdDerivationFetchesExactlyItsDraws answers one item by a cold
// derivation at ε = 0.2 over a RemoteAccess with the default batch and
// counts what the instance server drew. Def 2.2 charges 17,666 samples
// and one point query, and the server must draw exactly those: six
// sample requests (1,266 large-item draws, then four whole 4,096-draw
// batches and 16 EPS draws) and one point-query request.
func TestColdDerivationFetchesExactlyItsDraws(t *testing.T) {
	const wantSamples, wantSampleRequests = 17_666, 6
	gen, err := workload.Generate(workload.Spec{Name: "zipf", N: 20_000, Seed: 17})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	acc, err := oracle.NewSliceOracle(gen.Float)
	if err != nil {
		t.Fatalf("NewSliceOracle: %v", err)
	}
	drawn := &engine.Counter{}
	srv, err := NewInstanceServer("127.0.0.1:0", engine.Chain(acc, engine.WithCounter(drawn)))
	if err != nil {
		t.Fatalf("NewInstanceServer: %v", err)
	}
	defer srv.Close()
	remote, err := DialInstance(srv.Addr(), 0, 0)
	if err != nil {
		t.Fatalf("DialInstance: %v", err)
	}
	defer remote.Close()
	lca, err := core.NewLCAKP(engine.Wrap(remote), core.Params{Epsilon: 0.2, Seed: 7})
	if err != nil {
		t.Fatalf("NewLCAKP: %v", err)
	}
	before := srv.Stats().RequestsServed
	_, m, err := engine.New(lca).Query(context.Background(), 42)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if m.Samples != wantSamples || m.PointQueries != 1 {
		t.Fatalf("Def 2.2 charge: %d samples, %d point queries, want %d and 1", m.Samples, m.PointQueries, wantSamples)
	}
	sampleRequests := srv.Stats().RequestsServed - before - drawn.Queries()
	if drawn.Samples() != wantSamples || sampleRequests != wantSampleRequests || drawn.Queries() != 1 {
		t.Errorf("instance server drew %d samples in %d sample requests and served %d point queries, want %d in %d and 1",
			drawn.Samples(), sampleRequests, drawn.Queries(), wantSamples, wantSampleRequests)
	}
}

// FuzzSampleFrameDecode feeds arbitrary payloads to the client's
// sample-frame decoder: each either fails the one length check or
// yields draws that are in range for n or rejected, and that encode
// back to exactly the bytes they came from. A payload of one entry
// more or less than requested is always rejected. It must never panic
// or read out of range.
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
		want := len(payload) / sampleEntryLen
		for _, wrong := range []int{want - 1, want + 1} {
			if _, err := decodeSampleFrame(payload, wrong); !errors.Is(err, ErrBadMessage) {
				t.Fatalf("%d bytes as %d draws: err %v, want ErrBadMessage", len(payload), wrong, err)
			}
		}
		fr, err := decodeSampleFrame(payload, want)
		if err != nil {
			if !errors.Is(err, ErrBadMessage) {
				t.Fatalf("unclassified decode error: %v", err)
			}
			if len(payload) != 0 && len(payload)%sampleEntryLen == 0 {
				t.Fatalf("rejected a whole frame of %d bytes: %v", len(payload), err)
			}
			return
		}
		if want*sampleEntryLen != len(payload) || want == 0 {
			t.Fatalf("accepted %d bytes as %d draws", len(payload), want)
		}
		dst := make([]oracle.Draw, want)
		for k := 0; k < want; {
			filled, err := fr[k*sampleEntryLen:].decode(dst[k:], n)
			for j, d := range dst[k : k+filled] {
				entry := payload[(k+j)*sampleEntryLen : (k+j+1)*sampleEntryLen]
				if d.Index < 0 || d.Index >= n {
					t.Fatalf("draw %d: index %d out of range (n=%d)", k+j, d.Index, n)
				}
				if re := appendSample(nil, d.Index, d.Item); !bytes.Equal(re, entry) {
					t.Fatalf("draw %d: re-encodes to %x, frame holds %x", k+j, re, entry)
				}
			}
			k += filled
			if err == nil {
				if k != want {
					t.Fatalf("decoded %d of %d draws without error", k, want)
				}
				break
			}
			if !errors.Is(err, ErrBadMessage) {
				t.Fatalf("draw %d: unclassified error %v", k, err)
			}
			if idx, _ := getU64(payload, k*sampleEntryLen); idx < uint64(n) {
				t.Fatalf("draw %d: rejected in-range index %d (n=%d)", k, idx, n)
			}
			k++
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

// TestRemoteQueryItemDuringSampleFrame runs point queries and sample
// frames on one RemoteAccess at once, as a replica does when one query
// decides its item while another run fetches its draws. Each response
// is decoded under the connection's lock, so every draw must be
// exactly its stream's and every item exactly the instance's.
func TestRemoteQueryItemDuringSampleFrame(t *testing.T) {
	const samplers, probers, frame, frames = 2, 2, 1000, 12
	acc, _ := testAccess(t, 5000)
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
	want := make([][]oracle.Draw, samplers)
	for w := range want {
		want[w] = expectedRemoteDraws(t, acc, rng.New(uint64(200+w)), 4096, frame*frames)
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < samplers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := rng.New(uint64(200 + w))
			dst := make([]oracle.Draw, frame)
			for f := 0; f < frames; f++ {
				if _, err := remote.SampleFrame(ctx, src, dst); err != nil {
					t.Errorf("sampler %d: frame %d: %v", w, f, err)
					return
				}
				for k, d := range dst {
					if wantD := want[w][f*frame+k]; d != wantD {
						t.Errorf("sampler %d: draw %d = %+v, want %+v", w, f*frame+k, d, wantD)
						return
					}
				}
			}
		}(w)
	}
	for p := 0; p < probers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := p; i < 5000; i += 17 {
				got, err := remote.QueryItem(ctx, i)
				if err != nil {
					t.Errorf("prober %d: QueryItem(%d): %v", p, i, err)
					return
				}
				if wantIt, _ := acc.QueryItem(ctx, i); got != wantIt {
					t.Errorf("prober %d: QueryItem(%d) = %+v, want %+v", p, i, got, wantIt)
					return
				}
			}
		}(p)
	}
	wg.Wait()
}
