// Package cluster is the distributed serving layer of the
// reproduction: the deployment story that motivates the LCA model in
// the first place (Section 1 of the paper — "hugely distributed
// algorithms, where independent instances of a given LCA provide
// consistent access to a common output solution").
//
// Two server roles are provided, both speaking a small length-prefixed
// binary protocol over TCP (stdlib net only):
//
//   - InstanceServer hosts the (conceptually huge) Knapsack instance
//     and serves the two oracle access types — point queries and
//     weighted samples — to remote LCA replicas. RemoteAccess is its
//     client-side counterpart and implements oracle.Access, so an
//     unmodified core.LCAKP runs against an instance it never holds.
//   - MultiLCAServer hosts LCA replicas, one per (tenant, epoch), and
//     answers membership queries ("is item i in the solution?") for
//     downstream clients; NewLCAServer serves a single engine as a
//     one-tenant table.
//
// Replicas configured with the same seed and parameters answer
// according to the same solution without any coordination — the
// property CheckConsistency measures (experiment E9).
package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"lcakp/internal/engine"
	"lcakp/internal/knapsack"
	"lcakp/internal/obs"
	"lcakp/internal/oracle"
)

// Protocol limits.
const (
	// MaxFrameSize bounds a single message payload. It caps a sample
	// batch at maxSampleBatch draws of sampleEntryLen bytes each.
	MaxFrameSize = 16 << 20
	// sampleEntryLen is the wire size of one drawn sample: the index as
	// a u64, then profit and weight as f64, all little-endian.
	sampleEntryLen = 24
	// maxSampleBatch is the largest sample batch whose response fits
	// in one frame.
	maxSampleBatch = MaxFrameSize / sampleEntryLen
	// protocolVersion is the one frame layout this build reads and
	// writes; the reader rejects every other version byte. It follows
	// the four retired layouts, so a build from before the fixed epoch
	// field rejects these frames on their version byte instead of
	// misparsing them, and this build rejects theirs.
	protocolVersion = 5
	// frameHeaderLen is the fixed part of every frame body: version,
	// type, flags, and the little-endian u64 epoch.
	frameHeaderLen = 3 + 8
	// traceHeaderLen is the encoded size of the flagTrace field.
	traceHeaderLen = 16
	// tenantHeaderLen is the encoded size of the flagTenant field:
	// instance hash and seed, both u64.
	tenantHeaderLen = 16
	// maxAuthKeyLen bounds the flagAuth credential (u8 length prefix).
	maxAuthKeyLen = 255
	// maxFrameOverhead is the largest non-payload frame body: the fixed
	// header and every optional field.
	maxFrameOverhead = frameHeaderLen + traceHeaderLen + tenantHeaderLen + 1 + maxAuthKeyLen
)

// Frame flags. Optional fields appear in the body in ascending
// flag-bit order, after the fixed header.
const (
	// flagTrace marks a frame carrying a 16-byte trace header.
	flagTrace uint8 = 0x01
	// flagTenant marks a frame carrying a 16-byte tenant header —
	// instance hash then seed, both little-endian u64.
	flagTenant uint8 = 0x02
	// flagAuth marks a frame carrying a length-prefixed API key: one
	// length byte followed by that many key bytes.
	flagAuth uint8 = 0x04
	// knownFlags guards against fields this build cannot parse: a flag
	// we don't know may change the body layout, so unknown bits are a
	// hard error rather than a silent misparse.
	knownFlags = flagTrace | flagTenant | flagAuth
)

// Message type identifiers. Responses are request type | respBit.
const (
	msgInfo       uint8 = 1
	msgQuery      uint8 = 2
	msgSample     uint8 = 3
	msgInSol      uint8 = 4
	msgInSolBatch uint8 = 5
	msgPing       uint8 = 6
	msgMetrics    uint8 = 7
	// msgStoreFetch requests one (tenant, epoch)'s complete
	// materialized artifact (internal/store encoding). The request is
	// an empty-payload tenanted frame — the tenant header and the epoch
	// ARE the content address — and servers resolve it like any read,
	// API key included. The response payload is the raw artifact bytes,
	// checksummed by their own trailer on top of TCP. Servers without
	// an artifact provider answer with an error response, so peer-fill
	// falls back to the replicas. Type 9 is retired: it was an
	// unauthenticated artifact push, and servers answer it as an
	// unknown type.
	msgStoreFetch uint8 = 8
	msgErr        uint8 = 0x7f
	respBit       uint8 = 0x80
)

// Protocol errors.
var (
	// ErrFrameTooLarge indicates a frame exceeding MaxFrameSize.
	ErrFrameTooLarge = errors.New("cluster: frame too large")
	// ErrBadMessage indicates a malformed or unexpected message.
	ErrBadMessage = errors.New("cluster: malformed message")
	// ErrRemote wraps an error string returned by the peer.
	ErrRemote = errors.New("cluster: remote error")
	// ErrUnknownTenant indicates a frame addressed a tenant the server
	// does not serve (and no default tenant covers it).
	ErrUnknownTenant = errors.New("cluster: unknown tenant")
)

// frame is one wire message: a type byte, the epoch, an opaque
// payload, and the optional fields — trace context, tenant namespace,
// and API key (each absent unless its flag is set on the wire).
type frame struct {
	msgType uint8
	payload []byte
	// epoch is the instance version a membership or artifact-fetch
	// request addresses (engine.EpochCurrent asks for the current one)
	// or the version a membership response was served at. Every other
	// frame carries 0.
	epoch engine.EpochID
	trace obs.SpanContext
	// tenant addresses the solution C(I, r) the frame queries;
	// hasTenant distinguishes the zero tenant from an untenanted frame
	// (which routes to the server's default tenant).
	tenant    engine.TenantID
	hasTenant bool
	// authKey is the caller's API key, checked by auth-enabled serving
	// boundaries (the gateway); empty means none.
	authKey []byte
}

// appendFrame appends f's complete wire image to dst and returns the
// extended slice:
//
//	[len:u32][version][type][flags][epoch:8][trace?:16][tenant?:16][auth?:1+k][payload]
//
// The serving loop and the client connection pass a reused scratch
// buffer so a steady-state RPC writes zero heap bytes for framing.
func appendFrame(dst []byte, f frame) ([]byte, error) {
	if len(f.payload) > MaxFrameSize {
		return dst, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(f.payload))
	}
	if len(f.authKey) > maxAuthKeyLen {
		return dst, fmt.Errorf("%w: api key of %d bytes (max %d)", ErrBadMessage, len(f.authKey), maxAuthKeyLen)
	}
	var flags uint8
	size := frameHeaderLen + len(f.payload)
	if f.trace.Valid() {
		flags |= flagTrace
		size += traceHeaderLen
	}
	if f.hasTenant {
		flags |= flagTenant
		size += tenantHeaderLen
	}
	if len(f.authKey) > 0 {
		flags |= flagAuth
		size += 1 + len(f.authKey)
	}
	dst = putU32(dst, uint32(size))
	dst = append(dst, protocolVersion, f.msgType, flags)
	dst = putU64(dst, uint64(f.epoch))
	if flags&flagTrace != 0 {
		dst = putU64(dst, uint64(f.trace.Trace))
		dst = putU64(dst, uint64(f.trace.Span))
	}
	if flags&flagTenant != 0 {
		dst = putU64(dst, f.tenant.Instance)
		dst = putU64(dst, f.tenant.Seed)
	}
	if flags&flagAuth != 0 {
		dst = append(dst, uint8(len(f.authKey)))
		dst = append(dst, f.authKey...)
	}
	return append(dst, f.payload...), nil
}

// readFrameInto reads one frame from r into buf, growing buf only when
// the frame outsizes it, and returns the decoded frame together with
// the (possibly grown) buffer for the next call. The frame's payload
// aliases the returned buffer: it is valid only until the buffer's
// next reuse. The serving loop and the client connection thread their
// scratch buffer through here so steady-state reads allocate nothing.
func readFrameInto(r io.Reader, buf []byte) (frame, []byte, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return frame{}, buf, err // io.EOF passes through for clean shutdown
	}
	size := binary.LittleEndian.Uint32(lenBuf[:])
	if size > MaxFrameSize+maxFrameOverhead {
		return frame{}, buf, fmt.Errorf("%w: frame size %d", ErrFrameTooLarge, size)
	}
	if size < frameHeaderLen {
		return frame{}, buf, fmt.Errorf("%w: frame of %d bytes has no complete header", ErrBadMessage, size)
	}
	if uint32(cap(buf)) < size {
		buf = make([]byte, size) //lint:alloc grows the reused frame buffer; amortized to zero across a connection's RPCs
	}
	body := buf[:size]
	if _, err := io.ReadFull(r, body); err != nil {
		return frame{}, buf, fmt.Errorf("cluster: read frame body: %w", err)
	}
	f, err := decodeFrameBody(body)
	return f, buf, err
}

// decodeFrameBody decodes a length-stripped frame body; the returned
// frame's payload aliases body.
func decodeFrameBody(body []byte) (frame, error) {
	if len(body) < frameHeaderLen {
		return frame{}, fmt.Errorf("%w: frame of %d bytes has no complete header", ErrBadMessage, len(body))
	}
	if body[0] != protocolVersion {
		return frame{}, fmt.Errorf("%w: protocol version %d", ErrBadMessage, body[0])
	}
	flags := body[2]
	if flags&^knownFlags != 0 {
		return frame{}, fmt.Errorf("%w: unknown frame flags %#x", ErrBadMessage, flags&^knownFlags)
	}
	f := frame{msgType: body[1], epoch: engine.EpochID(binary.LittleEndian.Uint64(body[3:frameHeaderLen]))}
	rest := body[frameHeaderLen:]
	if flags&flagTrace != 0 {
		if len(rest) < traceHeaderLen {
			return frame{}, fmt.Errorf("%w: truncated trace header (%d bytes)", ErrBadMessage, len(rest))
		}
		f.trace = obs.SpanContext{
			Trace: obs.TraceID(binary.LittleEndian.Uint64(rest[0:8])),
			Span:  obs.SpanID(binary.LittleEndian.Uint64(rest[8:16])),
		}
		rest = rest[traceHeaderLen:]
	}
	if flags&flagTenant != 0 {
		if len(rest) < tenantHeaderLen {
			return frame{}, fmt.Errorf("%w: truncated tenant header (%d bytes)", ErrBadMessage, len(rest))
		}
		f.tenant = engine.TenantID{
			Instance: binary.LittleEndian.Uint64(rest[0:8]),
			Seed:     binary.LittleEndian.Uint64(rest[8:16]),
		}
		f.hasTenant = true
		rest = rest[tenantHeaderLen:]
	}
	if flags&flagAuth != 0 {
		if len(rest) < 1 {
			return frame{}, fmt.Errorf("%w: truncated auth header", ErrBadMessage)
		}
		keyLen := int(rest[0])
		if keyLen == 0 || len(rest) < 1+keyLen {
			return frame{}, fmt.Errorf("%w: truncated api key (%d of %d bytes)", ErrBadMessage, len(rest)-1, keyLen)
		}
		f.authKey = rest[1 : 1+keyLen]
		rest = rest[1+keyLen:]
	}
	f.payload = rest
	return f, nil
}

// Payload encoding helpers. All integers are little-endian; floats are
// IEEE 754 bits.

// putU64 appends a uint64.
func putU64(b []byte, v uint64) []byte {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	return append(b, buf[:]...)
}

// putU32 appends a uint32.
func putU32(b []byte, v uint32) []byte {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	return append(b, buf[:]...)
}

// putF64 appends a float64.
func putF64(b []byte, v float64) []byte {
	return putU64(b, math.Float64bits(v))
}

// getU64 reads a uint64 at offset off.
func getU64(b []byte, off int) (uint64, error) {
	if off+8 > len(b) {
		return 0, fmt.Errorf("%w: short payload (%d < %d)", ErrBadMessage, len(b), off+8)
	}
	return binary.LittleEndian.Uint64(b[off : off+8]), nil
}

// getF64 reads a float64 at offset off.
func getF64(b []byte, off int) (float64, error) {
	bits, err := getU64(b, off)
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(bits), nil
}

// appendSample appends one sample entry (see sampleEntryLen) to b.
func appendSample(b []byte, idx int, item knapsack.Item) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(idx))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(item.Profit))
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(item.Weight))
}

// sampleFrame is a sample response payload kept raw: entry k is the
// sampleEntryLen bytes at offset k*sampleEntryLen, decoded only when
// the stream consumes it.
type sampleFrame []byte

// decodeSampleFrame checks a sample response payload against the
// request it answers: exactly want entries. It is the one check a frame
// gets; decode checks each entry's index on consumption.
func decodeSampleFrame(payload []byte, want int) (sampleFrame, error) {
	if want <= 0 || len(payload) != want*sampleEntryLen {
		return nil, fmt.Errorf("%w: sample payload %d bytes for %d draws", ErrBadMessage, len(payload), want)
	}
	return sampleFrame(payload), nil
}

// decode fills dst from the frame's leading entries, as many as both
// hold, with fixed-offset loads, and returns how many it filled. It
// stops at an entry whose index lies outside an instance of n items,
// with ErrBadMessage.
func (f sampleFrame) decode(dst []oracle.Draw, n int) (int, error) {
	k := min(len(dst), len(f)/sampleEntryLen)
	for j := range k {
		e := f[j*sampleEntryLen:][:sampleEntryLen]
		idx := binary.LittleEndian.Uint64(e[0:8])
		if idx >= uint64(n) {
			return j, fmt.Errorf("%w: sampled index %d (n=%d)", ErrBadMessage, idx, n)
		}
		dst[j] = oracle.Draw{Index: int(idx), Item: knapsack.Item{
			Profit: math.Float64frombits(binary.LittleEndian.Uint64(e[8:16])),
			Weight: math.Float64frombits(binary.LittleEndian.Uint64(e[16:24])),
		}}
	}
	return k, nil
}

// encodeErr builds an error response frame.
//
//lint:coldpath builds error responses, reached only after a request has already failed
func encodeErr(err error) frame {
	return frame{msgType: msgErr | respBit, payload: []byte(err.Error())}
}

// decodeMaybeErr converts an error response into a Go error; for any
// other frame it verifies the expected response type.
func decodeMaybeErr(f frame, wantType uint8) error {
	if f.msgType == msgErr|respBit {
		return fmt.Errorf("%w: %s", ErrRemote, string(f.payload))
	}
	if f.msgType != wantType|respBit {
		return fmt.Errorf("%w: got message type %#x, want %#x", ErrBadMessage, f.msgType, wantType|respBit)
	}
	return nil
}
