package dataset

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"testing"
	"unsafe"
)

// A resolved Blob views the stored encoding instead of copying it. These
// tests pin what that buys (no buffer sized by the voxel count on a cold
// resolve, a mask expanded at most once and only on demand) and fuzz the
// decoder that now hands out aliases of untrusted bytes.

func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// minAllocatedBy is the least allocatedBy over tries runs of f(i):
// TotalAlloc is process-wide, and a goroutine an earlier test left behind (an
// HTTP server winding down) may allocate while f runs.
func minAllocatedBy(tries int, f func(i int)) uint64 {
	least := ^uint64(0)
	for i := 0; i < tries; i++ {
		least = min(least, allocatedBy(func() { f(i) }))
	}
	return least
}

// within reports whether p points into b.
func within(p unsafe.Pointer, b []byte) bool {
	base := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return uintptr(p) >= base && uintptr(p) < base+uintptr(len(b))
}

// referenceFloats is the element-by-element decode every view must equal
// bit for bit.
func referenceFloats(payload []byte) []uint32 {
	out := make([]uint32, len(payload)/4)
	for i := range out {
		out[i] = math.Float32bits(math.Float32frombits(binary.LittleEndian.Uint32(payload[4*i:])))
	}
	return out
}

// fuzzAllocSlack covers a Blob, an error's text and whatever the fuzz
// worker's other goroutines allocate meanwhile.
const fuzzAllocSlack = 64 << 10

// FuzzDecode feeds Decode and DecodeHeader untrusted bytes. Invariants: no
// panic; a refusal is ErrBadEncoding from both or neither; nothing allocated
// beyond what the input's own length accounts for; a volume's Data equals
// the Float32frombits reference loop bit for bit (NaN payloads included)
// whether it is a view or — decoded from an odd address — a copy; a view
// really aliases the input and a copy really does not; re-encoding an
// accepted blob gives the input back.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		// A private buffer one byte longer: buf[1:] starts at an odd address,
		// so its payload (20 bytes on) cannot be viewed as float32.
		buf := make([]byte, len(data)+1)
		odd := buf[1:]
		copy(odd, data)
		enc := bytes.Clone(data)

		var blob *Blob
		var err error
		if got := allocatedBy(func() { blob, err = Decode(enc) }); got > uint64(len(enc))+fuzzAllocSlack {
			t.Fatalf("Decode allocated %d bytes for a %d-byte input", got, len(enc))
		}
		kind, d, h, w, herr := DecodeHeader(enc)
		if (err == nil) != (herr == nil) {
			t.Fatalf("Decode: %v, DecodeHeader: %v", err, herr)
		}
		if err != nil {
			if !errors.Is(err, ErrBadEncoding) || !errors.Is(herr, ErrBadEncoding) {
				t.Fatalf("Decode: %v, DecodeHeader: %v, want ErrBadEncoding", err, herr)
			}
			return
		}
		if blob.Kind != kind || blob.D != d || blob.H != h || blob.W != w {
			t.Fatalf("Decode says %s %dx%dx%d, DecodeHeader %s %dx%dx%d", blob.Kind, blob.D, blob.H, blob.W, kind, d, h, w)
		}
		copied, err := Decode(odd)
		if err != nil {
			t.Fatalf("the same bytes at an odd address: %v", err)
		}

		var again []byte
		switch kind {
		case KindVolume:
			want := referenceFloats(enc[HeaderSize:])
			if len(blob.Data) != len(want) || len(copied.Data) != len(want) {
				t.Fatalf("%d voxels viewed, %d copied, want %d", len(blob.Data), len(copied.Data), len(want))
			}
			for i, bits := range want {
				if got := math.Float32bits(blob.Data[i]); got != bits {
					t.Fatalf("voxel %d: view holds %#x, reference %#x", i, got, bits)
				}
				if got := math.Float32bits(copied.Data[i]); got != bits {
					t.Fatalf("voxel %d: odd-address copy holds %#x, reference %#x", i, got, bits)
				}
			}
			aligned := uintptr(unsafe.Pointer(&enc[HeaderSize]))%4 == 0
			if viewed := within(unsafe.Pointer(&blob.Data[0]), enc); viewed != (aligned && hostLittleEndian) {
				t.Fatalf("aligned=%v littleEndian=%v, but Data aliases the input: %v", aligned, hostLittleEndian, viewed)
			}
			if within(unsafe.Pointer(&copied.Data[0]), buf) {
				t.Fatal("a payload at an odd address was viewed as float32")
			}
			again, err = EncodeVolume(d, h, w, blob.Data)
		case KindMask:
			if !bytes.Equal(blob.Bits, enc[HeaderSize:]) {
				t.Fatal("mask Bits are not the payload")
			}
			floats := blob.Floats()
			for i, v := range floats {
				if set := enc[HeaderSize+i/8]&(1<<(i%8)) != 0; (v == 1) != set || (v != 0 && v != 1) {
					t.Fatalf("voxel %d expands to %v, bit set: %v", i, v, set)
				}
			}
			again, err = EncodeMask(d, h, w, floats)
		case KindCheckpoint:
			if !bytes.Equal(blob.Raw, enc[HeaderSize:]) {
				t.Fatal("checkpoint Raw is not the payload")
			}
			again, err = EncodeCheckpoint(blob.Raw)
		}
		if err != nil {
			t.Fatalf("re-encode of an accepted %s: %v", kind, err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("decode -> encode is not the identity for a %s", kind)
		}
		if !bytes.Equal(enc, data) {
			t.Fatal("decoding wrote the input")
		}
	})
}

// TestResolveVolumeIsAView: a cold Resolve of a 64^3 volume (1 MB of
// float32) is a store read plus header validation — it allocates a Blob and
// a cache entry, nothing sized by the voxel count — and what it returns is
// the stored bytes themselves.
func TestResolveVolumeIsAView(t *testing.T) {
	if !hostLittleEndian {
		t.Skip("big-endian host: Decode converts into a copy")
	}
	const n, tries = 64, 3
	m := NewLocal()
	var infos [tries]Info
	for i := range infos {
		var err error
		if infos[i], err = m.PutVolume(n, n, n, testVolume(n, n, n, float32(i)), ""); err != nil {
			t.Fatal(err)
		}
	}
	var blob *Blob
	var err error
	got := minAllocatedBy(tries, func(i int) { blob, err = m.Resolve(infos[i].ID) })
	if err != nil {
		t.Fatal(err)
	}
	info := infos[tries-1]
	t.Logf("cold Resolve of a %d^3 volume: %d bytes", n, got)
	if got >= 4<<10 {
		t.Fatalf("cold Resolve allocated %d bytes, want < 4 KB", got)
	}
	enc, err := m.GetBytes(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !within(unsafe.Pointer(&blob.Data[0]), enc) {
		t.Fatal("the resolved volume is not a view of the stored encoding")
	}
	if m.CachedBytes() != tries*4*n*n*n {
		t.Fatalf("cache charges %d bytes for %d views, want %d", m.CachedBytes(), tries, tries*4*n*n*n)
	}
}

// TestMaskBlobExpandsOnceOnDemand: resolving a mask allocates nothing sized
// by the voxel count and leaves it packed; the first Floats call expands it,
// every later one — on the same cached Blob — returns that one expansion.
func TestMaskBlobExpandsOnceOnDemand(t *testing.T) {
	const n, tries = 64, 3
	data := make([]float32, n*n*n)
	for i := range data {
		if i%3 == 0 {
			data[i] = 1
		}
	}
	m := NewLocal()
	var infos [tries]Info
	for i := range infos {
		data[1] = float32(i % 2) // distinct content, distinct id
		data[2] = float32(i / 2)
		var err error
		if infos[i], err = m.PutMask(n, n, n, data, ""); err != nil {
			t.Fatal(err)
		}
	}
	var blob *Blob
	var err error
	if got := minAllocatedBy(tries, func(i int) { blob, err = m.Resolve(infos[i].ID) }); err != nil || got >= 4<<10 {
		t.Fatalf("cold Resolve of a mask: %v, %d bytes allocated, want < 4 KB", err, got)
	}
	info := infos[tries-1]
	if blob.Data != nil || len(blob.Bits) != n*n*n/8 {
		t.Fatalf("resolved mask holds %d floats and %d packed bytes", len(blob.Data), len(blob.Bits))
	}
	var first []float32
	if got := allocatedBy(func() { first = blob.Floats() }); got < 4*n*n*n {
		t.Fatalf("first Floats allocated %d bytes: the blob was already expanded", got)
	}
	for i, v := range first {
		if v != data[i] {
			t.Fatalf("voxel %d expands to %v, want %v", i, v, data[i])
		}
	}
	again, err := m.Resolve(info.ID)
	if err != nil || again != blob {
		t.Fatalf("the cache serves another blob (%v)", err)
	}
	if got := minAllocatedBy(tries, func(int) { again.Floats() }); got >= 4<<10 {
		t.Fatalf("second Floats allocated %d bytes, want the first expansion back", got)
	}
	if &again.Floats()[0] != &first[0] {
		t.Fatal("second Floats returned a different expansion")
	}
}
