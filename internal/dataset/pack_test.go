package dataset

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"math"
	"strings"
	"testing"
)

// maskChunk sizes TestMaskIDIsTheEncodingsID's long masks: 4,096 packed
// bytes, 32,768 voxels.
const maskChunk = 4096

// maskID is the id PutMask files a mask under, computed the way PutMask
// computes it: packed once into a dirty buffer, as a borrowed one comes back
// from the free list, then hashed where it lies.
func maskID(d, h, w int, data []float32) [2 * sha256.Size]byte {
	enc := bytes.Repeat([]byte{0xA5}, maskEncodedLen(len(data)))
	encodeMaskInto(enc, d, h, w, data)
	return contentID(enc)
}

// packBitsReference is the per-bit loop the branch-free packer replaces.
func packBitsReference(data []float32) []byte {
	out := make([]byte, (len(data)+7)/8)
	for i, v := range data {
		if v != 0 {
			out[i/8] |= 1 << (i % 8)
		}
	}
	return out
}

// TestPackBitsMatchesReference: the branch-free packer sets exactly the bits
// v != 0 sets — NaN in, -0 out, infinities and subnormals in — at every
// length across a few bytes and for a 64^3 mask, into a dirty buffer.
func TestPackBitsMatchesReference(t *testing.T) {
	specials := []float32{
		0, float32(math.Copysign(0, -1)), float32(math.NaN()), -float32(math.NaN()),
		float32(math.Inf(1)), float32(math.Inf(-1)),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		math.Float32frombits(0x007fffff), math.Float32frombits(0x807fffff),
		1, -1, math.MaxFloat32, 0.5,
	}
	field := func(n int) []float32 {
		data := make([]float32, n)
		for i := range data {
			data[i] = specials[(i*7+i/3)%len(specials)]
		}
		return data
	}
	lengths := make([]int, 0, 69)
	for n := 0; n <= 67; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 64*64*64)
	for _, n := range lengths {
		data := field(n)
		want := packBitsReference(data)
		got := bytes.Repeat([]byte{0xFF}, len(want))
		packBitsInto(got, data)
		if !bytes.Equal(got, want) {
			t.Fatalf("%d values: packed %x, reference %x", n, got, want)
		}
		if got := PackBits(data); !bytes.Equal(got, want) {
			t.Fatalf("%d values: PackBits %x, reference %x", n, got, want)
		}
	}
}

// TestPutAtChecksTheClaim: content put at its own id is stored like Put
// stores it; content put at another id is refused with an error naming its
// real id, and nothing is stored.
func TestPutAtChecksTheClaim(t *testing.T) {
	m := NewLocal()
	enc, err := EncodeVolume(2, 3, 4, testVolume(2, 3, 4, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	id := ID(enc)
	wrong := strings.Repeat("ab", 32)
	_, err = m.PutAt(wrong, enc, "alice")
	var mismatch *IDMismatchError
	if !errors.As(err, &mismatch) || mismatch.Actual != id || mismatch.Claimed != wrong {
		t.Fatalf("put at a wrong id: %v, want an IDMismatchError naming %s", err, id)
	}
	if _, ok := m.Stat(id); ok || len(m.List()) != 0 {
		t.Fatalf("a refused put stored something: %+v", m.List())
	}
	info, err := m.PutAt(id, enc, "alice")
	if err != nil || info.ID != id || info.Owner != "alice" {
		t.Fatalf("put at its own id: %+v, %v", info, err)
	}
	if again, err := m.Put(enc, "bob"); err != nil || again.ID != id || !m.IsOwner(id, "bob") {
		t.Fatalf("Put after PutAt: %+v, %v", again, err)
	}
	// A matching claim over a malformed encoding is still a bad encoding.
	junk := []byte("junk")
	if _, err := m.PutAt(ID(junk), junk, "alice"); !errors.Is(err, ErrBadEncoding) {
		t.Fatalf("junk at its own id: %v, want ErrBadEncoding", err)
	}
}
