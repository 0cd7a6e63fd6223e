package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"lcakp/internal/core"
	"lcakp/internal/engine"
	"lcakp/internal/obs"
	"lcakp/internal/oracle"
	"lcakp/internal/workload"
)

// FuzzProtocolRoundTrip exercises both directions of the wire
// protocol: any frame that writeFrame accepts — with a random trace,
// tenant, API key of 0–255 bytes, and epoch (engine.EpochCurrent
// included) — must read back field for field (replicas answering from
// the same solution depend on frames meaning the same thing on both
// ends), also when one reader takes it twice over from chunks whose
// sizes cycle through split's bytes, each plus one; and the reader
// must survive arbitrary bytes — truncated headers, hostile lengths,
// version and flag garbage — returning an error rather than panicking
// or over-allocating.
func FuzzProtocolRoundTrip(f *testing.F) {
	f.Add(uint8(1), []byte{}, uint64(0), uint64(0), false, uint64(0), uint64(0), []byte{}, uint64(0), uint64(0))
	f.Add(uint8(2), []byte{0, 1, 2, 3, 4, 5, 6, 7}, uint64(3), uint64(4), true, uint64(9), uint64(4), []byte("k1"), uint64(7), uint64(0x0102030405060708))
	f.Add(uint8(0x7f), []byte("remote error text"), uint64(0), uint64(9), false, uint64(0), uint64(0), []byte{}, ^uint64(0), ^uint64(0))
	f.Add(uint8(0xff), bytes.Repeat([]byte{0xaa}, 1024), uint64(1), uint64(1), true, ^uint64(0), ^uint64(0),
		bytes.Repeat([]byte{0x55}, maxAuthKeyLen), uint64(1), uint64(0x11))
	f.Fuzz(func(t *testing.T, msgType uint8, payload []byte, traceID, spanID uint64, tenanted bool,
		instance, seed uint64, key []byte, epoch, split uint64) {
		key = key[:min(len(key), maxAuthKeyLen)]
		want := frame{
			msgType: msgType,
			payload: payload,
			epoch:   engine.EpochID(epoch),
			trace:   obs.SpanContext{Trace: obs.TraceID(traceID), Span: obs.SpanID(spanID)},
			authKey: key,
		}
		if tenanted {
			want.tenant = engine.TenantID{Instance: instance, Seed: seed}
			want.hasTenant = true
		}

		// Round trip: write then read must reproduce the frame. A trace
		// without a trace ID is absent on the wire.
		var buf bytes.Buffer
		if err := writeFrame(&buf, want); err != nil {
			t.Fatalf("writeFrame rejected a bounded frame (%d-byte payload, %d-byte key): %v", len(payload), len(key), err)
		}
		got, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("readFrame failed on a frame writeFrame produced: %v", err)
		}
		if !want.trace.Valid() {
			want.trace = obs.SpanContext{}
		}
		if got.msgType != want.msgType || !bytes.Equal(got.payload, want.payload) || got.epoch != want.epoch ||
			got.trace != want.trace || got.hasTenant != want.hasTenant || got.tenant != want.tenant ||
			!bytes.Equal(got.authKey, want.authKey) {
			t.Fatalf("round trip mutated the frame: wrote %+v, read %+v", want, got)
		}

		// Chunked delivery: the frame twice over, in chunks that cut
		// anywhere, through one reader.
		image, err := appendFrame(nil, want)
		if err != nil {
			t.Fatalf("appendFrame: %v", err)
		}
		sizes := make([]int, 8)
		for k := range sizes {
			sizes[k] = 1 + int(split>>(8*k)&0xff)
		}
		fr := frameReader{r: &chunkReader{data: append(image, image...), sizes: sizes}}
		for k := range 2 {
			got, err := fr.next()
			if err != nil {
				t.Fatalf("chunked read of copy %d (chunks %v): %v", k, sizes, err)
			}
			if !sameFrame(got, want) {
				t.Fatalf("chunked read of copy %d (chunks %v) mutated the frame: wrote %+v, read %+v", k, sizes, want, got)
			}
		}
		if _, err := fr.next(); !errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("chunked stream ended with %v, want io.EOF", err)
		}

		// Adversarial decode: the fuzzed bytes as a raw stream, plus
		// truncations, and as a bare frame body must never panic.
		// Errors (and clean EOF) are the contract.
		raw := append([]byte{msgType}, payload...)
		for _, cut := range []int{len(raw), len(raw) / 2, 6, 5, 4, 3, 1, 0} {
			if cut > len(raw) {
				continue
			}
			if _, err := readFrame(bytes.NewReader(raw[:cut])); err != nil &&
				!errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) &&
				!errors.Is(err, ErrFrameTooLarge) && !errors.Is(err, ErrBadMessage) {
				t.Fatalf("readFrame returned an unclassified error for %d raw bytes: %v", cut, err)
			}
		}
		for _, body := range [][]byte{payload, raw, key} {
			if _, err := decodeFrameBody(body); err != nil && !errors.Is(err, ErrBadMessage) {
				t.Fatalf("decodeFrameBody returned an unclassified error for %d bytes: %v", len(body), err)
			}
		}
	})
}

// FuzzServerRequestBodies feeds arbitrary bodies for the cold path's
// request types — msgSample and msgQuery to the instance server,
// msgInSolBatch to a replica, msgStoreFetch, and the retired store push
// (type 9) — to both the instance and the membership handler. Neither
// may panic, and each must answer with a well-formed response of the
// request's type or with an error frame. Neither handler serves
// artifacts, so both fetch and push come back as error frames.
func FuzzServerRequestBodies(f *testing.F) {
	const n = 300
	gen, err := workload.Generate(workload.Spec{Name: "zipf", N: n, Seed: 2})
	if err != nil {
		f.Fatalf("Generate: %v", err)
	}
	acc, err := oracle.NewSliceOracle(gen.Float)
	if err != nil {
		f.Fatalf("NewSliceOracle: %v", err)
	}
	lca, err := core.NewLCAKP(acc, core.Params{Epsilon: 0.3, Seed: 2})
	if err != nil {
		f.Fatalf("NewLCAKP: %v", err)
	}
	instance := &instanceHandler{access: acc}
	membership := &backendHandler{backends: plainBackend{backend: engineBackend{engine: engine.New(lca)}}}
	const retiredStorePush uint8 = 9
	types := []uint8{msgSample, msgQuery, msgInSolBatch, msgStoreFetch, retiredStorePush}

	sample := func(count, seed uint64) []byte { return putU64(putU64(nil, count), seed) }
	f.Add(uint8(0), sample(4, 1))
	f.Add(uint8(0), sample(0, 1))
	f.Add(uint8(0), sample(maxSampleBatch+1, 1))
	f.Add(uint8(0), sample(3, 9)[:12])
	f.Add(uint8(1), putU64(nil, 7))
	f.Add(uint8(1), putU64(nil, n))
	f.Add(uint8(1), putU64(nil, 1<<63))
	f.Add(uint8(2), putU64(putU64(putU64(nil, 0), 1), n-1))
	f.Add(uint8(2), putU64(putU64(nil, 5), ^uint64(0)))
	f.Add(uint8(2), []byte{1, 2, 3})
	f.Add(uint8(2), []byte{})
	f.Add(uint8(3), []byte{})
	f.Add(uint8(4), []byte("LCAS artifact bytes"))
	f.Fuzz(func(t *testing.T, sel uint8, payload []byte) {
		msgType := types[int(sel)%len(types)]
		req := frame{msgType: msgType, payload: payload}
		for name, h := range map[string]handler{"instance": instance, "membership": membership} {
			var sc connScratch
			resp := h.handle(context.Background(), req, &sc)
			if resp.msgType == msgErr|respBit {
				continue
			}
			if resp.msgType != msgType|respBit {
				t.Fatalf("%s: request %#x answered with type %#x", name, msgType, resp.msgType)
			}
			switch {
			case name == "instance" && msgType == msgSample:
				count := binary.LittleEndian.Uint64(payload)
				fr, err := decodeSampleFrame(resp.payload, int(count))
				if err != nil {
					t.Fatalf("instance: sample response for %d draws: %v", count, err)
				}
				if k, err := fr.decode(make([]oracle.Draw, count), n); err != nil || k != int(count) {
					t.Fatalf("instance: sample response decoded %d of %d draws: %v", k, count, err)
				}
			case name == "instance" && msgType == msgQuery:
				if len(resp.payload) != 16 {
					t.Fatalf("instance: query response of %d bytes", len(resp.payload))
				}
			case name == "membership" && msgType == msgInSolBatch:
				if len(resp.payload) != len(payload)/8 {
					t.Fatalf("membership: %d answers for %d indices", len(resp.payload), len(payload)/8)
				}
				for k, b := range resp.payload {
					if b > 1 {
						t.Fatalf("membership: answer %d is byte %d", k, b)
					}
				}
			default:
				t.Fatalf("%s: answered request type %#x it does not serve", name, msgType)
			}
		}
	})
}
