package cluster

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"lcakp/internal/engine"
	"lcakp/internal/obs"
)

// FuzzProtocolRoundTrip exercises both directions of the wire
// protocol: any frame that writeFrame accepts — with a random trace,
// tenant, API key of 0–255 bytes, and epoch (engine.EpochCurrent
// included) — must read back field for field (replicas answering from
// the same solution depend on frames meaning the same thing on both
// ends), and the reader must survive arbitrary bytes — truncated
// headers, hostile lengths, version and flag garbage — returning an
// error rather than panicking or over-allocating.
func FuzzProtocolRoundTrip(f *testing.F) {
	f.Add(uint8(1), []byte{}, uint64(0), uint64(0), false, uint64(0), uint64(0), []byte{}, uint64(0))
	f.Add(uint8(2), []byte{0, 1, 2, 3, 4, 5, 6, 7}, uint64(3), uint64(4), true, uint64(9), uint64(4), []byte("k1"), uint64(7))
	f.Add(uint8(0x7f), []byte("remote error text"), uint64(0), uint64(9), false, uint64(0), uint64(0), []byte{}, ^uint64(0))
	f.Add(uint8(0xff), bytes.Repeat([]byte{0xaa}, 1024), uint64(1), uint64(1), true, ^uint64(0), ^uint64(0),
		bytes.Repeat([]byte{0x55}, maxAuthKeyLen), uint64(1))
	f.Fuzz(func(t *testing.T, msgType uint8, payload []byte, traceID, spanID uint64, tenanted bool,
		instance, seed uint64, key []byte, epoch uint64) {
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
