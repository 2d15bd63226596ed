package dataset

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"math"
	"strings"
	"sync"
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

// packBits is packBitsInto a buffer of its own.
func packBits(data []float32) []byte {
	out := make([]byte, (len(data)+7)/8)
	packBitsInto(out, data)
	return out
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

// wordsOf packs a 0/1 field into words the way ffn.Mask holds it: voxel i
// is bit i%32 of word i/32, nothing past the last voxel.
func wordsOf(data []float32) []uint32 {
	words := make([]uint32, (len(data)+31)/32)
	for i, v := range data {
		if v != 0 {
			words[i/32] |= 1 << (i % 32)
		}
	}
	return words
}

// TestMaskWordsEncodeAsPackedFloats: a mask given as words encodes, packs
// and stores exactly as the same mask given as floats — PutMaskWords stores
// EncodeMask's bytes under the id PutMask files, WordBits is packBitsInto,
// and a re-put allocates nothing — at lengths across a few words, at dims
// whose voxel count is not a multiple of 8 or 32, and at 64^3. Words of the
// wrong count, or with a bit set past the last voxel, are refused.
func TestMaskWordsEncodeAsPackedFloats(t *testing.T) {
	dims := [][3]int{{5, 17, 19}, {3, 5, 7}, {64, 64, 64}}
	for n := 1; n <= 67; n++ {
		dims = append(dims, [3]int{1, 1, n})
	}
	m := NewLocal()
	for _, dim := range dims {
		d, h, w := dim[0], dim[1], dim[2]
		data := bitsField(d * h * w)
		for i, v := range data {
			if v != 0 {
				data[i] = 1
			}
		}
		words := wordsOf(data)
		want, err := EncodeMask(d, h, w, data)
		if err != nil {
			t.Fatal(err)
		}
		if bits := WordBits(words, len(data)); !bytes.Equal(bits, packBits(data)) {
			t.Fatalf("%v: WordBits %x, packed floats %x", dim, bits, packBits(data))
		}
		info, err := m.PutMaskWords(d, h, w, words, "alice")
		if err != nil || info.ID != ID(want) || info.Bytes != len(want) || info.Kind != "mask" {
			t.Fatalf("%v: PutMaskWords %+v (%v), want id %s", dim, info, err, ID(want))
		}
		stored, err := m.GetBytes(info.ID)
		if err != nil || !bytes.Equal(stored, want) {
			t.Fatalf("%v: PutMaskWords stored %x (%v), EncodeMask %x", dim, stored, err, want)
		}
		if again, err := m.PutMask(d, h, w, data, "alice"); err != nil || again != info {
			t.Fatalf("%v: PutMask after PutMaskWords %+v (%v), want %+v", dim, again, err, info)
		}
		if rem := len(data) % 32; rem != 0 {
			words[len(words)-1] |= 1 << rem
			if _, err := m.PutMaskWords(d, h, w, words, "alice"); !errors.Is(err, ErrBadEncoding) {
				t.Fatalf("%v: a bit past the last voxel: %v, want ErrBadEncoding", dim, err)
			}
		}
		if _, err := m.PutMaskWords(d, h, w, append(words, 0), "alice"); !errors.Is(err, ErrBadEncoding) {
			t.Fatalf("%v: one word too many: %v, want ErrBadEncoding", dim, err)
		}
	}
	words := wordsOf(bitsField(64 * 64 * 64))
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := m.PutMaskWords(64, 64, 64, words, "alice"); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("re-putting stored mask words allocates %v objects, want 0", allocs)
	}
}

// TestBlobSumsMemoised: a blob's Sums are tensor.Sums of its Floats(), for
// a volume and for a mask, computed once however many resolvers ask at
// the same time: a write to the payload afterwards (a test may; nothing
// else does) does not move them.
func TestBlobSumsMemoised(t *testing.T) {
	m := NewLocal()
	vol := testVolume(4, 6, 9, 0.5)
	vol[3] = float32(math.Copysign(0, -1))
	vol[5] = math.SmallestNonzeroFloat32
	vinfo, err := m.PutVolume(4, 6, 9, vol, "alice")
	if err != nil {
		t.Fatal(err)
	}
	minfo, err := m.PutMask(4, 6, 9, bitsField(4*6*9), "alice")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{vinfo.ID, minfo.ID} {
		blob, err := m.Resolve(id)
		if err != nil {
			t.Fatal(err)
		}
		var sum, sumsq float64
		for _, x := range blob.Floats() {
			sum += float64(x)
			sumsq += float64(x) * float64(x)
		}
		got := make([][2]float64, 8)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				again, err := m.Resolve(id)
				if err != nil {
					t.Error(err)
					return
				}
				got[i][0], got[i][1] = again.Sums()
			}()
		}
		wg.Wait()
		for i, g := range got {
			if g != [2]float64{sum, sumsq} {
				t.Fatalf("%s resolver %d: Sums %v, want %v", blob.Kind, i, g, [2]float64{sum, sumsq})
			}
		}
		blob.Floats()[0] += 100
		if s, q := blob.Sums(); s != sum || q != sumsq {
			t.Fatalf("%s: Sums recomputed after the first call: %v %v, want %v %v", blob.Kind, s, q, sum, sumsq)
		}
	}
}
