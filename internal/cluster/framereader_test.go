package cluster

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/iotest"

	"lcakp/internal/engine"
	"lcakp/internal/obs"
	"lcakp/internal/rng"
)

// chunkReader delivers its stream in reads of the sizes sizes cycles
// through, one read per size, whatever the destination could hold.
type chunkReader struct {
	data  []byte
	sizes []int
	k     int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := min(len(p), len(c.data), c.sizes[c.k%len(c.sizes)])
	c.k++
	copy(p, c.data[:n])
	c.data = c.data[n:]
	return n, nil
}

// frameRun is a run of frames of every shape the reader meets: empty
// and tiny payloads, every optional field, and payloads across the
// reader's first buffer size and far beyond it.
func frameRun() []frame {
	id := engine.TenantID{Instance: 9, Seed: 4}
	trace := obs.SpanContext{Trace: 0x1111, Span: 0x2222}
	payload := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i*7 + n)
		}
		return b
	}
	return []frame{
		{msgType: msgPing},
		{msgType: msgInSol, payload: putU64(nil, 3), epoch: engine.EpochCurrent},
		{msgType: msgInSol | respBit, payload: []byte{1}, epoch: 7, trace: trace},
		{msgType: msgSample | respBit, payload: payload(minFrameBuf - 15)},
		{msgType: msgInSolBatch, payload: payload(64), epoch: 2, trace: trace, tenant: id, hasTenant: true, authKey: []byte("k1")},
		{msgType: msgSample | respBit, payload: payload(4096 * sampleEntryLen)},
		{msgType: msgErr | respBit, payload: []byte("boom")},
		{msgType: msgSample | respBit, payload: payload(minFrameBuf + 1)},
		{msgType: msgQuery, payload: putU64(nil, 1<<40)},
	}
}

// sameFrame reports whether two frames carry the same fields.
func sameFrame(a, b frame) bool {
	return a.msgType == b.msgType && bytes.Equal(a.payload, b.payload) && a.epoch == b.epoch &&
		a.trace == b.trace && a.tenant == b.tenant && a.hasTenant == b.hasTenant && bytes.Equal(a.authKey, b.authKey)
}

// TestFrameReaderAnySplit delivers one run of frames whole, byte by
// byte, in random chunks and in chunks that straddle frame boundaries
// three frames at a time: one reader must decode the same frames from
// every split, then end with a clean io.EOF.
func TestFrameReaderAnySplit(t *testing.T) {
	want := frameRun()
	var stream []byte
	for _, f := range want {
		var err error
		if stream, err = appendFrame(stream, f); err != nil {
			t.Fatalf("appendFrame: %v", err)
		}
	}
	random := make([]int, 64)
	src := rng.New(5)
	for k := range random {
		random[k] = 1 + src.Intn(3*minFrameBuf)
	}
	splits := map[string]io.Reader{
		"whole":        bytes.NewReader(stream),
		"byte by byte": iotest.OneByteReader(bytes.NewReader(stream)),
		"half reads":   iotest.HalfReader(bytes.NewReader(stream)),
		"random":       &chunkReader{data: stream, sizes: random},
		"odd chunks":   &chunkReader{data: stream, sizes: []int{1, 2, 3, 5, 11, 13, 4093}},
		"data and EOF": iotest.DataErrReader(&chunkReader{data: stream, sizes: []int{777}}),
	}
	for name, r := range splits {
		t.Run(name, func(t *testing.T) {
			fr := frameReader{r: r}
			for k, w := range want {
				got, err := fr.next()
				if err != nil {
					t.Fatalf("frame %d: %v", k, err)
				}
				if !sameFrame(got, w) {
					t.Fatalf("frame %d: read %+v, want %+v", k, got, w)
				}
			}
			if _, err := fr.next(); !errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("after the run: error = %v, want io.EOF", err)
			}
		})
	}
}

// TestFrameReaderSeveralFramesOneRead holds the reader to one read per
// frame once frames have arrived: a run of small frames that arrives
// in one read decodes with that read alone.
func TestFrameReaderSeveralFramesOneRead(t *testing.T) {
	var stream []byte
	const frames = 20
	for k := range frames {
		var err error
		if stream, err = appendFrame(stream, frame{msgType: msgInSol | respBit, payload: []byte{byte(k)}}); err != nil {
			t.Fatalf("appendFrame: %v", err)
		}
	}
	r := &countingReader{r: bytes.NewReader(stream)}
	fr := frameReader{r: r}
	for k := range frames {
		f, err := fr.next()
		if err != nil || len(f.payload) != 1 || f.payload[0] != byte(k) {
			t.Fatalf("frame %d: %+v, %v", k, f, err)
		}
	}
	if r.reads != 1 {
		t.Errorf("%d frames of %d B took %d reads, want 1", frames, len(stream), r.reads)
	}
}

// countingReader counts the reads made of r.
type countingReader struct {
	r     io.Reader
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// TestFrameReaderCutStream cuts a stream of two frames at every byte
// and delivers it whole and byte by byte: the frames before the cut
// decode, and then the reader fails as two io.ReadFull calls did — a
// cut between frames is a clean io.EOF, a cut inside a length prefix
// io.ErrUnexpectedEOF, and a cut inside a body a "read frame body"
// error wrapping io.ErrUnexpectedEOF.
func TestFrameReaderCutStream(t *testing.T) {
	first, err := appendFrame(nil, frame{msgType: msgQuery, payload: putU64(nil, 1)})
	if err != nil {
		t.Fatalf("appendFrame: %v", err)
	}
	stream, err := appendFrame(first, frame{msgType: msgInfo, authKey: []byte("key"), payload: []byte("tail")})
	if err != nil {
		t.Fatalf("appendFrame: %v", err)
	}
	for cut := 0; cut < len(stream); cut++ {
		for name, r := range map[string]io.Reader{
			"whole":        bytes.NewReader(stream[:cut]),
			"byte by byte": iotest.OneByteReader(bytes.NewReader(stream[:cut])),
		} {
			fr := frameReader{r: r}
			whole := 0
			if cut >= len(first) {
				if _, err := fr.next(); err != nil {
					t.Fatalf("%s, cut at %d: first frame: %v", name, cut, err)
				}
				whole = len(first)
			}
			_, err := fr.next()
			switch into := cut - whole; {
			case into == 0:
				if !errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
					t.Errorf("%s, cut between frames at %d: error = %v, want io.EOF", name, cut, err)
				}
			case into < 4:
				if !errors.Is(err, io.ErrUnexpectedEOF) || strings.Contains(err.Error(), "body") {
					t.Errorf("%s, cut in a length prefix at %d: error = %v, want io.ErrUnexpectedEOF", name, cut, err)
				}
			default:
				if !errors.Is(err, io.ErrUnexpectedEOF) || !strings.Contains(err.Error(), "read frame body") {
					t.Errorf("%s, cut in a body at %d: error = %v, want a body read error wrapping io.ErrUnexpectedEOF", name, cut, err)
				}
			}
		}
	}
}

// TestFrameReaderReadError holds the reader to a transport error: it
// is returned, wrapped inside a body, once the bytes delivered with it
// are spent, and never hidden by them.
func TestFrameReaderReadError(t *testing.T) {
	one, err := appendFrame(nil, frame{msgType: msgPing})
	if err != nil {
		t.Fatalf("appendFrame: %v", err)
	}
	boom := errors.New("connection reset")
	for _, cut := range []int{len(one), len(one) + 2, len(one) + 6} {
		two := append(append([]byte(nil), one...), one...)
		fr := frameReader{r: io.MultiReader(bytes.NewReader(two[:cut]), iotest.ErrReader(boom))}
		if _, err := fr.next(); err != nil {
			t.Fatalf("cut at %d: first frame: %v", cut, err)
		}
		if _, err := fr.next(); !errors.Is(err, boom) {
			t.Errorf("cut at %d: error = %v, want the transport error", cut, err)
		}
	}
}
