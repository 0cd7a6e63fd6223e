// Package store is the materialized solution store: durable,
// content-addressed artifacts holding a derived solution C(I, r) — the
// full answer bitset plus the local decision rule it was materialized
// from — in a compact versioned binary encoding.
//
// The paper makes C(I, r) a pure function of the instance and the
// shared seed (Definition 2.2, Theorem 4.1), so a solution derived
// once can be persisted and served forever without re-derivation:
// there is nothing to invalidate, refresh, or reconcile. An artifact
// is therefore immutable by construction — the serving-side analogue
// of the space-efficient LCA line (Alon, Rubinfeld, Vardi, Xie),
// where bounded persistent state replaces recomputation, and of the
// Rubinfeld–Tamir–Vardi–Xie query/preprocessing trade-off: the
// artifact is the preprocessing, paid once, and every subsequent
// lookup is O(1).
//
// Layout (format version 2, all integers little-endian):
//
//	[0:4)    magic "LCAS"
//	[4:6)    format version (u16)
//	[6:8)    reserved (0)
//	[8:16)   instance hash (u64)   ┐ the content address: the tenant
//	[16:24)  seed (u64)            ┘ (instance, seed), with the epoch
//	[24:32)  epsilon (f64 bits)
//	[32:36)  item count n (u32)
//	[36:40)  answer section offset (u32)
//	[40:44)  answer section length (u32)
//	[44:48)  rule section offset (u32)
//	[48:52)  rule section length (u32)
//	[52:60)  epoch (u64)           — the address's third part; may be 0
//	answers  ceil(n/8) bytes, bit i = item i's membership (LSB first)
//	rule     the decision-rule section (see appendRuleSection)
//	trailer  CRC-64/ECMA over everything before it (u64)
//
// Under item churn the solution is a pure function of (I_e, r), so
// (instance, seed, epoch) names one immutable value exactly as
// (instance, seed) does for a fixed instance. Epoch 0 is an ordinary
// epoch: its artifact has the same header, with a zero epoch field.
//
// The section offsets live in the header so a reader can serve point
// lookups straight off the raw bytes — a byte slice, an mmap'd region,
// or a section shipped over the wire — without decoding the whole
// artifact: answer bit i is one shift and mask away from the header.
// The encoding is canonical (strictly increasing large indices, fixed
// field order, zero reserved field, padding bits and unused flags), so
// two processes materializing the same (I, r) produce bit-identical
// files — the property TestMaterializeDeterministicBytes pins and the
// peer tier relies on when it ships artifacts between gateways. Decode
// refuses any other byte image, so every artifact it accepts
// re-encodes to exactly its input (FuzzArtifactDecode).
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// Format constants.
const (
	// FormatVersion is the one artifact encoding version this build
	// writes and reads.
	FormatVersion = 2
	// headerSize is the fixed encoded header length.
	headerSize = 60
	// trailerSize is the trailing checksum length.
	trailerSize = 8
	// magic opens every artifact.
	magic = "LCAS"
	// MaxArtifactSize bounds one artifact file (and one artifact
	// shipped over the wire). A billion-item answer bitset is ~125 MB;
	// the bound exists to reject corrupt length fields, not real
	// artifacts.
	MaxArtifactSize = 256 << 20
)

// Artifact errors.
var (
	// ErrCorrupt indicates an artifact whose bytes fail structural or
	// checksum validation. A corrupt artifact is never served from:
	// the store treats it exactly like an absent one (and says so).
	ErrCorrupt = errors.New("store: corrupt artifact")
	// ErrBadVersion indicates an artifact written by an incompatible
	// format version.
	ErrBadVersion = errors.New("store: unsupported artifact format version")
	// ErrNotFound indicates no artifact exists for the requested
	// content address.
	ErrNotFound = errors.New("store: artifact not found")
)

// crcTable is the CRC-64/ECMA table used for the trailing checksum.
var crcTable = crc64.MakeTable(crc64.ECMA)

// RuleSection is the decision-rule half of an artifact: everything
// core.Rule carries, in plain exportable form. The store keeps its own
// struct so the artifact encoding depends only on the stdlib; the core
// adapters live in materialize.go.
type RuleSection struct {
	// ESmall is the small-item efficiency threshold, -1 when no small
	// items are included.
	ESmall float64
	// Singleton marks the first-excluded-item solution.
	Singleton bool
	// Large holds the sorted original indices of included large items.
	Large []uint32
	// Thresholds is the Equally Partitioning Sequence the rule was
	// derived from (diagnostic, preserved for forensics).
	Thresholds []float64
}

// Artifact is one decoded materialized solution. The answer section is
// served straight from the underlying bytes (data may alias a file
// read, an mmap'd region, or a wire payload); nothing is re-decoded
// per lookup.
type Artifact struct {
	// Instance, Seed, and Epoch are the content address: the epoch
	// (I_e, r) of the tenant whose solution this is. Epoch 0 is the
	// tenant's instance before any churn.
	Instance uint64
	Seed     uint64
	Epoch    uint64
	// Epsilon is the ε the solution was derived under.
	Epsilon float64
	// N is the item count.
	N int

	// data is the complete encoded artifact (header through trailer).
	data []byte
	// answers aliases the answer section inside data.
	answers []byte
}

// Bytes returns the artifact's complete canonical encoding — the exact
// bytes on disk and on the wire. Callers must not mutate the slice.
func (a *Artifact) Bytes() []byte { return a.data }

// Size returns the encoded size in bytes.
func (a *Artifact) Size() int { return len(a.data) }

// InSolution reports item i's membership bit. It reads one byte of the
// mapped answer section; out-of-range indices report an error (the
// artifact cannot answer for items it was not materialized over).
func (a *Artifact) InSolution(i int) (bool, error) {
	in, ok := a.Answer(i)
	if !ok {
		return false, fmt.Errorf("store: item %d out of artifact range [0, %d)", i, a.N)
	}
	return in, nil
}

// Answer reports item i's membership bit and whether the artifact
// covers i. It builds no error, so it inlines into per-position loops.
func (a *Artifact) Answer(i int) (in, ok bool) {
	if !a.Contains(i) {
		return false, false
	}
	return a.answers[i>>3]&(1<<(i&7)) != 0, true
}

// Contains reports whether item i is inside the artifact's range.
func (a *Artifact) Contains(i int) bool { return i >= 0 && i < a.N }

// Answers decodes the full answer section into a bool slice (one entry
// per item). It exists for warm-up and tests; point lookups should use
// InSolution, which does not allocate.
func (a *Artifact) Answers() []bool {
	out := make([]bool, a.N)
	for i := range out {
		out[i] = a.answers[i>>3]&(1<<(i&7)) != 0
	}
	return out
}

// Checksum returns the artifact's trailing CRC-64/ECMA value — a
// convenient fingerprint for determinism checks and logs.
func (a *Artifact) Checksum() uint64 {
	return binary.LittleEndian.Uint64(a.data[len(a.data)-trailerSize:])
}

// Rule decodes the artifact's rule section.
func (a *Artifact) Rule() (RuleSection, error) {
	off := int(binary.LittleEndian.Uint32(a.data[44:48]))
	length := int(binary.LittleEndian.Uint32(a.data[48:52]))
	return decodeRuleSection(a.data[off : off+length])
}

// NewArtifactEpoch encodes a materialized solution of one epoch under
// the (instance, seed, epoch) content address. The encoding is
// canonical — Large is sorted here and every field has a fixed offset
// — so equal inputs yield bit-identical artifacts wherever they are
// produced.
func NewArtifactEpoch(instance, seed, epoch uint64, epsilon float64, answers []bool, rule RuleSection) (*Artifact, error) {
	enc, err := newEncoding(instance, seed, epoch, epsilon, len(answers), rule)
	if err != nil {
		return nil, err
	}
	for i, in := range answers {
		enc.set(i, in)
	}
	return enc.seal()
}

// encoding is one artifact image being written, the one encoder behind
// NewArtifactEpoch and MaterializeEpoch: the header and rule section
// are in place, the answer section stays zero until set marks its
// members, and seal appends the trailer.
type encoding struct {
	data    []byte
	answers []byte // aliases data's answer section
}

// newEncoding lays out the artifact of n answers under the content
// address, sorting rule.Large in place.
func newEncoding(instance, seed, epoch uint64, epsilon float64, n int, rule RuleSection) (encoding, error) {
	if uint64(n) > math.MaxUint32 {
		return encoding{}, fmt.Errorf("store: %d items exceed the u32 item-count field", n)
	}
	sort.Slice(rule.Large, func(i, j int) bool { return rule.Large[i] < rule.Large[j] })

	answerLen := (n + 7) / 8
	ruleBytes := appendRuleSection(nil, rule)
	total := headerSize + answerLen + len(ruleBytes) + trailerSize
	if total > MaxArtifactSize {
		return encoding{}, fmt.Errorf("store: artifact of %d bytes exceeds MaxArtifactSize", total)
	}

	data := make([]byte, 0, total)
	data = append(data, magic...)
	data = binary.LittleEndian.AppendUint16(data, FormatVersion)
	data = binary.LittleEndian.AppendUint16(data, 0) // reserved
	data = binary.LittleEndian.AppendUint64(data, instance)
	data = binary.LittleEndian.AppendUint64(data, seed)
	data = binary.LittleEndian.AppendUint64(data, math.Float64bits(epsilon))
	data = binary.LittleEndian.AppendUint32(data, uint32(n))
	data = binary.LittleEndian.AppendUint32(data, headerSize)
	data = binary.LittleEndian.AppendUint32(data, uint32(answerLen))
	data = binary.LittleEndian.AppendUint32(data, uint32(headerSize+answerLen))
	data = binary.LittleEndian.AppendUint32(data, uint32(len(ruleBytes)))
	data = binary.LittleEndian.AppendUint64(data, epoch)

	// The answer section is zero from make until set marks members.
	data = data[:headerSize+answerLen]
	data = append(data, ruleBytes...)
	return encoding{data: data, answers: data[headerSize : headerSize+answerLen]}, nil
}

// set marks item i a member when in holds, without a branch on in.
func (e encoding) set(i int, in bool) {
	var bit byte
	if in {
		bit = 1
	}
	e.answers[i>>3] |= bit << (i & 7)
}

// seal appends the checksum trailer and returns the finished artifact.
func (e encoding) seal() (*Artifact, error) {
	return decodeArtifact(binary.LittleEndian.AppendUint64(e.data, crc64.Checksum(e.data, crcTable)))
}

// appendRuleSection encodes the rule section:
//
//	[0:8)  e_small (f64 bits)
//	[8:9)  flags (bit 0: singleton; the other bits are zero)
//	[9:13) large-index count (u32), then that many u32 indices
//	       (strictly increasing)
//	then   threshold count (u32), then that many f64s
func appendRuleSection(dst []byte, r RuleSection) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.ESmall))
	var flags byte
	if r.Singleton {
		flags |= 1
	}
	dst = append(dst, flags)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.Large)))
	for _, idx := range r.Large {
		dst = binary.LittleEndian.AppendUint32(dst, idx)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.Thresholds)))
	for _, th := range r.Thresholds {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(th))
	}
	return dst
}

// decodeRuleSection decodes appendRuleSection's output.
func decodeRuleSection(b []byte) (RuleSection, error) {
	if len(b) < 13 {
		return RuleSection{}, fmt.Errorf("%w: rule section of %d bytes", ErrCorrupt, len(b))
	}
	if b[8]&^1 != 0 {
		return RuleSection{}, fmt.Errorf("%w: unknown rule flags %#02x", ErrCorrupt, b[8])
	}
	r := RuleSection{ESmall: math.Float64frombits(binary.LittleEndian.Uint64(b[0:8]))}
	r.Singleton = b[8]&1 != 0
	largeN := int(binary.LittleEndian.Uint32(b[9:13]))
	off := 13
	if len(b) < off+4*largeN+4 {
		return RuleSection{}, fmt.Errorf("%w: rule section truncated (%d large indices)", ErrCorrupt, largeN)
	}
	if largeN > 0 {
		r.Large = make([]uint32, largeN)
		for k := range r.Large {
			r.Large[k] = binary.LittleEndian.Uint32(b[off : off+4])
			off += 4
			if k > 0 && r.Large[k] <= r.Large[k-1] {
				return RuleSection{}, fmt.Errorf("%w: large indices not strictly increasing at %d", ErrCorrupt, k)
			}
		}
	}
	thN := int(binary.LittleEndian.Uint32(b[off : off+4]))
	off += 4
	if len(b) != off+8*thN {
		return RuleSection{}, fmt.Errorf("%w: rule section truncated (%d thresholds)", ErrCorrupt, thN)
	}
	if thN > 0 {
		r.Thresholds = make([]float64, thN)
		for k := range r.Thresholds {
			r.Thresholds[k] = math.Float64frombits(binary.LittleEndian.Uint64(b[off : off+8]))
			off += 8
		}
	}
	return r, nil
}

// Decode validates data as a complete artifact (structure and
// checksum) and returns a reader over it. The artifact aliases data;
// callers hand over ownership.
func Decode(data []byte) (*Artifact, error) {
	return decodeArtifact(data)
}

// decodeArtifact is Decode's implementation.
func decodeArtifact(data []byte) (*Artifact, error) {
	if len(data) < headerSize+trailerSize {
		return nil, fmt.Errorf("%w: %d bytes is smaller than any artifact", ErrCorrupt, len(data))
	}
	if len(data) > MaxArtifactSize {
		return nil, fmt.Errorf("%w: %d bytes exceeds MaxArtifactSize", ErrCorrupt, len(data))
	}
	if string(data[0:4]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, data[0:4])
	}
	if v := binary.LittleEndian.Uint16(data[4:6]); v != FormatVersion {
		return nil, fmt.Errorf("%w: version %d (this build reads %d)", ErrBadVersion, v, FormatVersion)
	}
	body := data[:len(data)-trailerSize]
	want := binary.LittleEndian.Uint64(data[len(data)-trailerSize:])
	if got := crc64.Checksum(body, crcTable); got != want {
		return nil, fmt.Errorf("%w: checksum mismatch (got %016x, want %016x)", ErrCorrupt, got, want)
	}
	n := int(binary.LittleEndian.Uint32(data[32:36]))
	ansOff := int(binary.LittleEndian.Uint32(data[36:40]))
	ansLen := int(binary.LittleEndian.Uint32(data[40:44]))
	ruleOff := int(binary.LittleEndian.Uint32(data[44:48]))
	ruleLen := int(binary.LittleEndian.Uint32(data[48:52]))
	if ansOff != headerSize || ansLen != (n+7)/8 ||
		ruleOff != ansOff+ansLen || ruleOff+ruleLen != len(body) {
		return nil, fmt.Errorf("%w: inconsistent section offsets", ErrCorrupt)
	}
	if reserved := binary.LittleEndian.Uint16(data[6:8]); reserved != 0 {
		return nil, fmt.Errorf("%w: reserved header field %#04x", ErrCorrupt, reserved)
	}
	if n%8 != 0 && data[ruleOff-1]>>(n%8) != 0 {
		return nil, fmt.Errorf("%w: answer bits set past item %d", ErrCorrupt, n)
	}
	a := &Artifact{
		Instance: binary.LittleEndian.Uint64(data[8:16]),
		Seed:     binary.LittleEndian.Uint64(data[16:24]),
		Epoch:    binary.LittleEndian.Uint64(data[52:60]),
		Epsilon:  math.Float64frombits(binary.LittleEndian.Uint64(data[24:32])),
		N:        n,
		data:     data,
		answers:  data[ansOff : ansOff+ansLen],
	}
	if _, err := a.Rule(); err != nil {
		return nil, err
	}
	return a, nil
}

// ReadFile loads and validates the artifact at path.
func ReadFile(path string) (*Artifact, error) {
	st, err := os.Stat(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, path)
		}
		return nil, fmt.Errorf("store: stat artifact: %w", err)
	}
	if st.Size() > MaxArtifactSize {
		return nil, fmt.Errorf("%w: %s is %d bytes", ErrCorrupt, path, st.Size())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("store: read artifact: %w", err)
	}
	a, err := decodeArtifact(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return a, nil
}

// WriteFile persists the artifact atomically: the bytes land in a
// temp file in the destination directory, are fsynced, and replace
// path via rename — a reader never observes a torn artifact, and a
// crash mid-write leaves the previous version (or nothing) in place.
func (a *Artifact) WriteFile(path string) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: create artifact directory: %w", err)
	}
	tmp, err := os.CreateTemp(dir, ".lcas-tmp-*")
	if err != nil {
		return fmt.Errorf("store: create temp artifact: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func() {
		_ = tmp.Close()
		_ = os.Remove(tmpName)
	}
	if _, err := tmp.Write(a.data); err != nil {
		cleanup()
		return fmt.Errorf("store: write artifact: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return fmt.Errorf("store: sync artifact: %w", err)
	}
	if err := tmp.Close(); err != nil {
		cleanup()
		return fmt.Errorf("store: close artifact: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		_ = os.Remove(tmpName)
		return fmt.Errorf("store: install artifact: %w", err)
	}
	return nil
}
