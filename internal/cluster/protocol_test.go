package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"lcakp/internal/engine"
	"lcakp/internal/obs"
	"lcakp/internal/rng"
)

// writeFrame writes one frame to w.
func writeFrame(w io.Writer, f frame) error {
	buf, err := appendFrame(nil, f)
	if err != nil {
		return err
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("cluster: write frame: %w", err)
	}
	return nil
}

// readFrame reads one frame from r.
func readFrame(r io.Reader) (frame, error) {
	f, _, err := readFrameInto(r, nil)
	return f, err
}

// Ping performs a health-check round trip to the instance server.
func (r *RemoteAccess) Ping(ctx context.Context) error {
	c, err := r.live(ctx)
	if err != nil {
		return err
	}
	return c.roundTrip(ctx, frame{msgType: msgPing}, nil)
}

func TestFrameRoundTrip(t *testing.T) {
	cases := []frame{
		{msgType: msgInfo},
		{msgType: msgQuery, payload: putU64(nil, 42)},
		{msgType: msgSample | respBit, payload: bytes.Repeat([]byte{0xab}, 1000)},
		{msgType: msgErr | respBit, payload: []byte("boom")},
	}
	for _, want := range cases {
		var buf bytes.Buffer
		if err := writeFrame(&buf, want); err != nil {
			t.Fatalf("writeFrame: %v", err)
		}
		got, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("readFrame: %v", err)
		}
		if got.msgType != want.msgType || !bytes.Equal(got.payload, want.payload) {
			t.Errorf("round trip: got %+v, want %+v", got, want)
		}
	}
}

func TestFrameRoundTripQuick(t *testing.T) {
	f := func(msgType uint8, payload []byte) bool {
		var buf bytes.Buffer
		if err := writeFrame(&buf, frame{msgType: msgType, payload: payload}); err != nil {
			return false
		}
		got, err := readFrame(&buf)
		if err != nil {
			return false
		}
		return got.msgType == msgType && bytes.Equal(got.payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestWriteFrameTooLarge(t *testing.T) {
	err := writeFrame(io.Discard, frame{
		msgType: msgQuery,
		payload: make([]byte, MaxFrameSize+1),
	})
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("error = %v, want ErrFrameTooLarge", err)
	}
}

func TestReadFrameOversized(t *testing.T) {
	// A length prefix beyond the limit must be rejected before any
	// allocation of the body.
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, err := readFrame(&buf); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("error = %v, want ErrFrameTooLarge", err)
	}
}

func TestReadFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, frame{msgType: msgQuery, payload: putU64(nil, 1)}); err != nil {
		t.Fatalf("writeFrame: %v", err)
	}
	truncated := buf.Bytes()[:buf.Len()-3]
	if _, err := readFrame(bytes.NewReader(truncated)); err == nil {
		t.Error("truncated frame accepted")
	}
}

func TestReadFrameBadVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, frame{msgType: msgInfo}); err != nil {
		t.Fatalf("writeFrame: %v", err)
	}
	raw := buf.Bytes()
	raw[4] = 99 // corrupt the version byte
	if _, err := readFrame(bytes.NewReader(raw)); !errors.Is(err, ErrBadMessage) {
		t.Errorf("error = %v, want ErrBadMessage", err)
	}
}

func TestReadFrameEOF(t *testing.T) {
	if _, err := readFrame(bytes.NewReader(nil)); !errors.Is(err, io.EOF) {
		t.Errorf("error = %v, want io.EOF (clean shutdown signal)", err)
	}
}

func TestPayloadHelpers(t *testing.T) {
	b := putU64(nil, 0xdeadbeef)
	b = putF64(b, 3.25)
	u, err := getU64(b, 0)
	if err != nil || u != 0xdeadbeef {
		t.Errorf("getU64 = %v, %v", u, err)
	}
	f, err := getF64(b, 8)
	if err != nil || f != 3.25 {
		t.Errorf("getF64 = %v, %v", f, err)
	}
	if _, err := getU64(b, 9); !errors.Is(err, ErrBadMessage) {
		t.Errorf("short read error = %v", err)
	}
	if _, err := getF64(b, 16); !errors.Is(err, ErrBadMessage) {
		t.Errorf("short float read error = %v", err)
	}
}

func TestDecodeMaybeErr(t *testing.T) {
	if err := decodeMaybeErr(encodeErr(errors.New("kapow")), msgQuery); !errors.Is(err, ErrRemote) {
		t.Errorf("remote error not surfaced: %v", err)
	} else if !strings.Contains(err.Error(), "kapow") {
		t.Errorf("remote error text lost: %v", err)
	}
	if err := decodeMaybeErr(frame{msgType: msgInfo | respBit}, msgQuery); !errors.Is(err, ErrBadMessage) {
		t.Errorf("type mismatch not detected: %v", err)
	}
	if err := decodeMaybeErr(frame{msgType: msgQuery | respBit}, msgQuery); err != nil {
		t.Errorf("valid response rejected: %v", err)
	}
}

func TestServerRejectsUnknownMessageType(t *testing.T) {
	acc, _ := testAccess(t, 10)
	srv, err := NewInstanceServer("127.0.0.1:0", acc)
	if err != nil {
		t.Fatalf("NewInstanceServer: %v", err)
	}
	defer srv.Close()

	c, err := dial(context.Background(), srv.Addr(), 0)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.close()
	if err := c.roundTrip(context.Background(), frame{msgType: 0x6e}, nil); !errors.Is(err, ErrRemote) {
		t.Errorf("roundTrip = %v, want an error frame (ErrRemote)", err)
	}
}

// TestInstanceServerRejectsOversizedSampleBatch holds sample batches
// to what one response frame carries: a request one draw over the cap
// gets an error frame and leaves the connection serving, a dial above
// the cap is refused, and a batch at the cap fits.
func TestInstanceServerRejectsOversizedSampleBatch(t *testing.T) {
	acc, _ := testAccess(t, 10)
	srv, err := NewInstanceServer("127.0.0.1:0", acc)
	if err != nil {
		t.Fatalf("NewInstanceServer: %v", err)
	}
	defer srv.Close()

	c, err := dial(context.Background(), srv.Addr(), 0)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.close()
	payload := putU64(nil, maxSampleBatch+1)
	payload = putU64(payload, 7)
	if err := c.roundTrip(context.Background(), frame{msgType: msgSample, payload: payload}, nil); !errors.Is(err, ErrRemote) {
		t.Errorf("oversized batch error = %v, want ErrRemote", err)
	}
	if err := c.roundTrip(context.Background(), frame{msgType: msgPing}, nil); err != nil {
		t.Errorf("Ping after the rejected batch: %v", err)
	}

	if _, err := DialInstance(srv.Addr(), 0, maxSampleBatch+1); !errors.Is(err, ErrBadMessage) {
		t.Errorf("DialInstance above the cap: %v, want ErrBadMessage", err)
	}
	remote, err := DialInstance(srv.Addr(), 0, maxSampleBatch)
	if err != nil {
		t.Fatalf("DialInstance at the cap: %v", err)
	}
	defer remote.Close()
	if _, _, err := remote.Sample(context.Background(), rng.New(1)); err != nil {
		t.Fatalf("Sample with a batch at the cap: %v", err)
	}
	if err := remote.Ping(context.Background()); err != nil {
		t.Errorf("Ping after a batch at the cap: %v", err)
	}
}

func TestLCAServerRejectsWrongMessage(t *testing.T) {
	acc, _ := testAccess(t, 50)
	lcaSrv := newTestLCAServer(t, acc)
	c, err := dial(context.Background(), lcaSrv.Addr(), 0)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.close()
	if err := c.roundTrip(context.Background(), frame{msgType: msgInfo}, nil); !errors.Is(err, ErrRemote) {
		t.Errorf("roundTrip = %v, want an error frame (ErrRemote)", err)
	}
}

// TestGoldenFrames pins the one wire layout byte for byte:
//
//	[len:u32][version][type][flags][epoch:8][trace?:16][tenant?:16][auth?:1+k][payload]
//
// Six frames cover every optional field alone and all of them at once;
// each must encode to exactly its golden bytes and read back to itself.
// The malformed cases — a wrong version byte, an unknown flag bit, and
// each field cut short — must fail with ErrBadMessage, never misparse.
func TestGoldenFrames(t *testing.T) {
	id := engine.TenantID{Instance: 9, Seed: 4}
	trace := obs.SpanContext{Trace: 0x1111, Span: 0x2222}
	item3 := putU64(nil, 3)
	golden := []struct {
		name string
		f    frame
		hex  string
	}{
		{"bare", frame{msgType: msgInSol, payload: item3, epoch: engine.EpochCurrent},
			"13000000" + "050400" + "ffffffffffffffff" + "0300000000000000"},
		{"traced", frame{msgType: msgInSol, payload: item3, epoch: engine.EpochCurrent, trace: trace},
			"23000000" + "050401" + "ffffffffffffffff" + "1111000000000000" + "2222000000000000" + "0300000000000000"},
		{"tenanted", frame{msgType: msgInSol, payload: item3, epoch: engine.EpochCurrent, tenant: id, hasTenant: true},
			"23000000" + "050402" + "ffffffffffffffff" + "0900000000000000" + "0400000000000000" + "0300000000000000"},
		{"auth", frame{msgType: msgInSol, payload: item3, epoch: engine.EpochCurrent, authKey: []byte("k1")},
			"16000000" + "050404" + "ffffffffffffffff" + "026b31" + "0300000000000000"},
		{"pinned", frame{msgType: msgInSol, payload: item3, epoch: 7},
			"13000000" + "050400" + "0700000000000000" + "0300000000000000"},
		{"all", frame{msgType: msgInSolBatch, payload: putU64(item3, 5), epoch: 7, trace: trace,
			tenant: id, hasTenant: true, authKey: []byte("k1")},
			"3e000000" + "050507" + "0700000000000000" + "1111000000000000" + "2222000000000000" +
				"0900000000000000" + "0400000000000000" + "026b31" + "0300000000000000" + "0500000000000000"},
	}
	for _, g := range golden {
		t.Run(g.name, func(t *testing.T) {
			want, err := hex.DecodeString(g.hex)
			if err != nil {
				t.Fatalf("bad golden hex: %v", err)
			}
			var buf bytes.Buffer
			if err := writeFrame(&buf, g.f); err != nil {
				t.Fatalf("writeFrame: %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("wire image\n got % x\nwant % x", buf.Bytes(), want)
			}
			got, err := readFrame(bytes.NewReader(want))
			if err != nil {
				t.Fatalf("readFrame: %v", err)
			}
			if got.msgType != g.f.msgType || !bytes.Equal(got.payload, g.f.payload) || got.epoch != g.f.epoch ||
				got.trace != g.f.trace || got.tenant != g.f.tenant || got.hasTenant != g.f.hasTenant ||
				!bytes.Equal(got.authKey, g.f.authKey) {
				t.Errorf("read back %+v, want %+v", got, g.f)
			}
		})
	}

	// body is a frame body with the given flags and the bytes after the
	// fixed header; malformed cases edit it before framing.
	body := func(flags uint8, rest string) []byte {
		b, err := hex.DecodeString("0504" + hex.EncodeToString([]byte{flags}) + "0700000000000000" + rest)
		if err != nil {
			t.Fatalf("bad hex: %v", err)
		}
		return b
	}
	framed := func(b []byte) []byte { return append(binary.LittleEndian.AppendUint32(nil, uint32(len(b))), b...) }
	badVersion := body(0, "")
	badVersion[0] = 4
	malformed := []struct {
		name string
		body []byte
	}{
		{"bad-version", badVersion},
		{"unknown-flag", body(0x08, "")},
		{"truncated-header", body(0, "")[:frameHeaderLen-1]},
		{"truncated-trace", body(flagTrace, "111100000000000022220000000000")},
		{"truncated-tenant", body(flagTenant, "09000000000000000400000000000000"[:30])},
		{"truncated-auth-length", body(flagAuth, "")},
		{"truncated-auth-key", body(flagAuth, "026b")},
		{"empty-auth-key", body(flagAuth, "00")},
	}
	for _, m := range malformed {
		t.Run(m.name, func(t *testing.T) {
			if _, err := readFrame(bytes.NewReader(framed(m.body))); !errors.Is(err, ErrBadMessage) {
				t.Errorf("readFrame(% x) error = %v, want ErrBadMessage", m.body, err)
			}
		})
	}

	// On the wire, a server drops the connection on an unparseable
	// frame: no response at all is better than a misparse answered from
	// the wrong namespace.
	t.Run("unknown-flag-on-the-wire", func(t *testing.T) {
		acc, _ := testAccess(t, 10)
		srv := newTestLCAServer(t, acc)
		conn, err := net.DialTimeout("tcp", srv.Addr(), time.Second)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer conn.Close()
		_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Write(framed(body(0x08, ""))); err != nil {
			t.Fatalf("write: %v", err)
		}
		var one [1]byte
		if _, err := io.ReadFull(conn, one[:]); err == nil {
			t.Fatal("server answered a frame with unknown flags; want connection teardown")
		}
	})

	// Oversized API keys fail at write time, not on the wire.
	long := frame{msgType: msgPing, authKey: bytes.Repeat([]byte("x"), maxAuthKeyLen+1)}
	if err := writeFrame(io.Discard, long); !errors.Is(err, ErrBadMessage) {
		t.Errorf("oversized key: error = %v, want ErrBadMessage", err)
	}
}
