package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc64"
	"testing"
)

// reseal recomputes data's CRC trailer in place, so a mutated artifact
// reaches the structural checks behind the checksum.
func reseal(data []byte) {
	if len(data) < trailerSize {
		return
	}
	body := data[:len(data)-trailerSize]
	binary.LittleEndian.PutUint64(data[len(body):], crc64.Checksum(body, crcTable))
}

// canonicalTestArtifact encodes a small artifact of one epoch: 13
// items, so the last answer byte has padding bits, and two large
// indices, so their order is checkable.
func canonicalTestArtifact(t testing.TB, epoch uint64) *Artifact {
	t.Helper()
	answers := make([]bool, 13)
	for i := range answers {
		answers[i] = i%3 == 1
	}
	a, err := NewArtifactEpoch(1, 7, epoch, 0.25, answers, RuleSection{
		ESmall: 0.5, Large: []uint32{2, 9}, Thresholds: []float64{0.125, 0.25},
	})
	if err != nil {
		t.Fatalf("NewArtifactEpoch: %v", err)
	}
	return a
}

// formatOneImage re-encodes a as the retired format 1: a 52-byte header
// without the epoch field, section offsets moved down to match, and a
// valid checksum, so only the version field refuses it.
func formatOneImage(a *Artifact) []byte {
	b := a.Bytes()
	const shift = headerSize - 52
	v1 := append(bytes.Clone(b[:52]), b[headerSize:]...)
	binary.LittleEndian.PutUint16(v1[4:6], 1)
	for _, off := range []int{36, 44} { // answer and rule section offsets
		binary.LittleEndian.PutUint32(v1[off:], binary.LittleEndian.Uint32(v1[off:])-shift)
	}
	reseal(v1)
	return v1
}

// TestDecodeRejectsNonCanonicalBytes pins one byte image per solution:
// each mutation below leaves a valid checksum and decodes to a
// solution that re-encodes to different bytes, so Decode must refuse
// it. The same solution in the retired format 1 is refused by version.
func TestDecodeRejectsNonCanonicalBytes(t *testing.T) {
	for _, epoch := range []uint64{0, 5} {
		orig := canonicalTestArtifact(t, epoch).Bytes()
		ansOff := int(binary.LittleEndian.Uint32(orig[36:40]))
		ruleOff := int(binary.LittleEndian.Uint32(orig[44:48]))
		large := ruleOff + 13 // the first of the two large indices
		for _, tc := range []struct {
			name   string
			mutate func(b []byte)
		}{
			{"reserved header field", func(b []byte) { b[6] = 1 }},
			{"answer padding bit", func(b []byte) { b[ansOff+1] |= 1 << 7 }},
			{"unsorted large indices", func(b []byte) {
				binary.LittleEndian.PutUint32(b[large:], 9)
				binary.LittleEndian.PutUint32(b[large+4:], 2)
			}},
			{"duplicate large index", func(b []byte) { binary.LittleEndian.PutUint32(b[large+4:], 2) }},
			{"unknown rule flag", func(b []byte) { b[ruleOff+8] |= 2 }},
		} {
			mut := bytes.Clone(orig)
			tc.mutate(mut)
			reseal(mut)
			if _, err := Decode(mut); !errors.Is(err, ErrCorrupt) {
				t.Errorf("epoch %d, %s: Decode error = %v, want ErrCorrupt", epoch, tc.name, err)
			}
		}
	}
	if _, err := Decode(formatOneImage(canonicalTestArtifact(t, 0))); !errors.Is(err, ErrBadVersion) {
		t.Errorf("format-1 image: Decode error = %v, want ErrBadVersion", err)
	}
}

// FuzzArtifactDecode feeds arbitrary bytes to Decode; with reseal set,
// the CRC trailer is recomputed first so the input reaches the
// structural checks. Decode must either refuse the bytes or return an
// artifact that answers every item in [0, N) and decodes its rule
// without panicking, and whose decoded fields re-encode to exactly the
// input.
func FuzzArtifactDecode(f *testing.F) {
	for _, epoch := range []uint64{0, 5} {
		data := canonicalTestArtifact(f, epoch).Bytes()
		f.Add(data, false)
		f.Add(data, true)
	}
	f.Add(formatOneImage(canonicalTestArtifact(f, 0)), false)
	f.Fuzz(func(t *testing.T, data []byte, resealed bool) {
		in := bytes.Clone(data)
		if resealed {
			reseal(in)
		}
		a, err := Decode(bytes.Clone(in))
		if err != nil {
			return
		}
		answers := make([]bool, a.N)
		for i := range answers {
			var ok bool
			if answers[i], ok = a.Answer(i); !ok {
				t.Fatalf("Answer(%d) of a decoded %d-item artifact out of range", i, a.N)
			}
		}
		rule, err := a.Rule()
		if err != nil {
			t.Fatalf("Rule of a decoded artifact: %v", err)
		}
		again, err := NewArtifactEpoch(a.Instance, a.Seed, a.Epoch, a.Epsilon, answers, rule)
		if err != nil {
			t.Fatalf("re-encoding a decoded artifact: %v", err)
		}
		if !bytes.Equal(again.Bytes(), in) {
			t.Fatalf("decoded artifact re-encodes to different bytes:\n got %x\nwant %x", again.Bytes(), in)
		}
	})
}
