package dataset

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"chaseci/internal/merra"
	"chaseci/internal/thredds"
)

func testVolume(d, h, w int, seed float32) []float32 {
	data := make([]float32, d*h*w)
	for i := range data {
		data[i] = seed + float32(i%97)*0.5
	}
	return data
}

func TestVolumeRoundTrip(t *testing.T) {
	d, h, w := 3, 5, 7
	data := testVolume(d, h, w, 1.25)
	enc, err := EncodeVolume(d, h, w, data)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if blob.Kind != KindVolume || blob.D != d || blob.H != h || blob.W != w {
		t.Fatalf("header mismatch: %+v", blob)
	}
	for i := range data {
		if blob.Data[i] != data[i] {
			t.Fatalf("voxel %d: got %v want %v", i, blob.Data[i], data[i])
		}
	}
}

func TestMaskRoundTripAndCompression(t *testing.T) {
	d, h, w := 16, 32, 32
	data := make([]float32, d*h*w)
	for i := range data {
		if i%3 == 0 || i%7 == 0 {
			data[i] = 1
		}
	}
	enc, err := EncodeMask(d, h, w, data)
	if err != nil {
		t.Fatal(err)
	}
	// The satellite's point: 1 bit/voxel, ~32x smaller than float32.
	if want := HeaderSize + (d*h*w+7)/8; len(enc) != want {
		t.Fatalf("mask encoding is %d bytes, want %d", len(enc), want)
	}
	volEnc, _ := EncodeVolume(d, h, w, data)
	if ratio := float64(len(volEnc)) / float64(len(enc)); ratio < 25 {
		t.Fatalf("mask only %.1fx smaller than volume encoding", ratio)
	}
	blob, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if blob.Kind != KindMask {
		t.Fatalf("kind = %v", blob.Kind)
	}
	for i := range data {
		if blob.Floats()[i] != data[i] {
			t.Fatalf("voxel %d: got %v want %v", i, blob.Floats()[i], data[i])
		}
	}
}

// TestEncodeMaskSingleAlloc: the mask is packed straight into the header
// allocation — one allocation for the whole encoding, and the same bytes as
// header + packBits.
func TestEncodeMaskSingleAlloc(t *testing.T) {
	d, h, w := 5, 9, 11 // 495 voxels: a partial last byte
	data := make([]float32, d*h*w)
	for i := range data {
		if i%3 == 0 || i%7 == 0 {
			data[i] = float32(i)
		}
	}
	enc, err := EncodeMask(d, h, w, data)
	if err != nil {
		t.Fatal(err)
	}
	want := append(encodeHeader(KindMask, d, h, w, 0), packBits(data)...)
	if !bytes.Equal(enc, want) {
		t.Fatal("EncodeMask bytes differ from header + packBits")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := EncodeMask(d, h, w, data); err != nil {
			t.Fatal(err)
		}
	}); allocs != 1 {
		t.Fatalf("EncodeMask allocs/op = %v, want 1", allocs)
	}
}

// bitsField is a mask of n voxels with an irregular pattern of non-zero
// values (not only ones), so every packed byte and a partial last byte vary.
func bitsField(n int) []float32 {
	data := make([]float32, n)
	for i := range data {
		if (i*2654435761)>>7%3 == 0 {
			data[i] = float32(i%5 + 1)
		}
	}
	return data
}

// TestMaskIDIsTheEncodingsID: the id PutMask streams from the mask is the
// content address of its encoding — on both sides of a byte boundary, below,
// at and past one hashing chunk, and for a 64^3 mask.
func TestMaskIDIsTheEncodingsID(t *testing.T) {
	dims := [][3]int{{1, 1, 1}, {1, 1, 7}, {1, 1, 8}, {1, 1, 8*maskChunk - 1}, {1, 1, 8*8*maskChunk + 3}, {64, 64, 64}}
	for _, dim := range dims {
		d, h, w := dim[0], dim[1], dim[2]
		data := bitsField(d * h * w)
		enc, err := EncodeMask(d, h, w, data)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := maskID(d, h, w, data), ID(enc); string(got[:]) != want {
			t.Fatalf("%dx%dx%d mask: streamed id %s, encoding's id %s", d, h, w, got, want)
		}
	}
}

// TestPutMaskRePutAllocatesNothing: re-putting a 64^3 mask the store holds
// hashes it where it lies instead of building its 32 KB encoding first.
func TestPutMaskRePutAllocatesNothing(t *testing.T) {
	m := NewLocal()
	data := bitsField(64 * 64 * 64)
	first, err := m.PutMask(64, 64, 64, data, "alice")
	if err != nil {
		t.Fatal(err)
	}
	const puts = 50
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < puts; i++ {
		info, err := m.PutMask(64, 64, 64, data, "alice")
		if err != nil || info != first {
			t.Fatalf("re-put: %+v, %v; want %+v", info, err, first)
		}
	}
	runtime.ReadMemStats(&m1)
	if perPut := (m1.TotalAlloc - m0.TotalAlloc) / puts; perPut >= 1024 {
		t.Fatalf("re-putting a stored mask allocates %d bytes, want < 1 KB", perPut)
	}
}

// TestRePutRegistersLikePut: whichever way stored content is put again —
// as an encoding (Put) or as a mask hashed before it is encoded (PutMask) —
// it revokes a deferred delete, adds the putter as an owner and marks the
// dataset kept, and a first put through either stores the same bytes.
func TestRePutRegistersLikePut(t *testing.T) {
	d, h, w := 3, 5, 7
	data := bitsField(d * h * w)
	enc, err := EncodeMask(d, h, w, data)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		put  func(m *Manager, owner string) (Info, error)
	}{
		{"Put", func(m *Manager, owner string) (Info, error) { return m.Put(enc, owner) }},
		{"PutMask", func(m *Manager, owner string) (Info, error) { return m.PutMask(d, h, w, data, owner) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := NewLocal()
			if fresh, err := tc.put(NewLocal(), "alice"); err != nil || fresh.ID != ID(enc) || fresh.Kind != "mask" || fresh.Bytes != len(enc) || fresh.Owner != "alice" {
				t.Fatalf("first put: %+v, %v", fresh, err)
			}
			stored, _, err := m.PutNew(enc, "alice") // an unkept intermediate
			if err != nil {
				t.Fatal(err)
			}
			m.Pin(stored.ID)
			m.Delete(stored.ID) // deferred by the pin
			info, err := tc.put(m, "bob")
			if err != nil {
				t.Fatal(err)
			}
			if info.ID != stored.ID || info.Owner != "bob" {
				t.Fatalf("re-put reply %+v, want id %s owned by bob", info, stored.ID)
			}
			m.Unpin(stored.ID)
			if _, ok := m.Stat(stored.ID); !ok {
				t.Fatal("the re-put did not revoke the deferred delete")
			}
			if !m.IsOwner(stored.ID, "alice") || !m.IsOwner(stored.ID, "bob") {
				t.Fatal("the re-put did not add its putter to the owners")
			}
			m.Delete(stored.ID)
			if _, ok := m.Stat(stored.ID); !ok {
				t.Fatal("the re-put did not mark the dataset kept")
			}
			if got, err := m.GetBytes(stored.ID); err != nil || !bytes.Equal(got, enc) {
				t.Fatalf("stored bytes changed (%v)", err)
			}
		})
	}
}

// TestCheckpointFrameIsTheWholeEncoding: the frame is the one allocation a
// checkpoint's encoding ever needs — header now, exact spare capacity for
// the payload the caller appends — and EncodeCheckpoint is that frame plus
// an append, so there is one framing path.
func TestCheckpointFrameIsTheWholeEncoding(t *testing.T) {
	payload := []byte("FFNCKPT\x01 and whatever else a trainer serializes")
	var enc []byte
	if allocs := testing.AllocsPerRun(100, func() {
		frame, err := CheckpointFrame(len(payload))
		if err != nil {
			t.Fatal(err)
		}
		if len(frame) != HeaderSize || cap(frame) != HeaderSize+len(payload) {
			t.Fatalf("frame len %d cap %d, want %d/%d", len(frame), cap(frame), HeaderSize, HeaderSize+len(payload))
		}
		enc = append(frame, payload...)
	}); allocs != 1 || len(enc) != cap(enc) {
		t.Fatalf("frame + append: %v allocs, len %d cap %d; want 1 exact slice", allocs, len(enc), cap(enc))
	}
	wrapped, err := EncodeCheckpoint(payload)
	if err != nil || !bytes.Equal(wrapped, enc) {
		t.Fatalf("EncodeCheckpoint differs from frame + append (err %v)", err)
	}
	blob, err := Decode(enc)
	if err != nil || blob.Kind != KindCheckpoint || !bytes.Equal(blob.Raw, payload) {
		t.Fatalf("decode of a framed checkpoint: %+v, %v", blob, err)
	}
	for _, n := range []int{0, -1, MaxVoxels + 1} {
		if _, err := CheckpointFrame(n); !errors.Is(err, ErrBadEncoding) {
			t.Fatalf("CheckpointFrame(%d) = %v, want ErrBadEncoding", n, err)
		}
	}
}

func TestMaskNonBinaryValuesPackToOne(t *testing.T) {
	data := []float32{0, 0.5, -2, 1}
	enc, err := EncodeMask(1, 2, 2, data)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{0, 1, 1, 1}
	for i := range want {
		if blob.Floats()[i] != want[i] {
			t.Fatalf("voxel %d: got %v want %v", i, blob.Floats()[i], want[i])
		}
	}
}

func TestPackUnpackBitsPartialByte(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 65} {
		data := make([]float32, n)
		for i := range data {
			if i%2 == 0 {
				data[i] = 1
			}
		}
		bits := packBits(data)
		back, err := UnpackBits(bits, n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i := range data {
			if back[i] != data[i] {
				t.Fatalf("n=%d bit %d: got %v want %v", n, i, back[i], data[i])
			}
		}
	}
	if _, err := UnpackBits([]byte{1, 2}, 3); err == nil {
		t.Fatal("length mismatch not rejected")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	enc, _ := EncodeVolume(2, 2, 2, make([]float32, 8))
	cases := map[string][]byte{
		"short":         enc[:HeaderSize-1],
		"bad magic":     append([]byte("XXXX"), enc[4:]...),
		"bad kind":      append(append([]byte{}, enc[:4]...), append([]byte{9}, enc[5:]...)...),
		"truncated":     enc[:len(enc)-1],
		"trailing junk": append(append([]byte{}, enc...), 0),
	}
	for name, b := range cases {
		if _, err := Decode(b); err == nil {
			t.Errorf("%s: decode accepted corrupt bytes", name)
		}
	}
	// Zero dim.
	bad := append([]byte{}, enc...)
	bad[8], bad[9], bad[10], bad[11] = 0, 0, 0, 0
	if _, err := Decode(bad); err == nil {
		t.Error("zero dim accepted")
	}
}

func TestIDIsContentAddress(t *testing.T) {
	a1, _ := EncodeVolume(1, 2, 2, []float32{1, 2, 3, 4})
	a2, _ := EncodeVolume(1, 2, 2, []float32{1, 2, 3, 4})
	b, _ := EncodeVolume(1, 2, 2, []float32{1, 2, 3, 5})
	if ID(a1) != ID(a2) {
		t.Fatal("same content, different ids")
	}
	if ID(a1) == ID(b) {
		t.Fatal("different content, same id")
	}
	if !ValidID(ID(a1)) {
		t.Fatalf("ID %q not ValidID", ID(a1))
	}
	for _, bad := range []string{"", "abc", ID(a1)[:63], ID(a1) + "0", "G" + ID(a1)[1:], "ABCDEF" + ID(a1)[6:]} {
		if ValidID(bad) {
			t.Errorf("ValidID(%q) = true", bad)
		}
	}
}

func TestManagerPutResolveRoundTrip(t *testing.T) {
	m := NewLocal()
	data := testVolume(4, 6, 8, 3)
	info, err := m.PutVolume(4, 6, 8, data, "alice@ucsd.edu")
	if err != nil {
		t.Fatal(err)
	}
	if info.Kind != "volume" || info.D != 4 || info.Owner != "alice@ucsd.edu" {
		t.Fatalf("info = %+v", info)
	}
	blob, err := m.Resolve(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if blob.Data[i] != data[i] {
			t.Fatalf("voxel %d mismatch", i)
		}
	}
	// Raw bytes round-trip and re-hash to the same id.
	enc, err := m.GetBytes(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if ID(enc) != info.ID {
		t.Fatal("GetBytes returned bytes hashing to a different id")
	}
}

func TestManagerPutIdempotentRegistersCoOwners(t *testing.T) {
	m := NewLocal()
	data := []float32{1, 2, 3, 4}
	i1, err := m.PutVolume(1, 2, 2, data, "first")
	if err != nil {
		t.Fatal(err)
	}
	i2, err := m.PutVolume(1, 2, 2, data, "second")
	if err != nil {
		t.Fatal(err)
	}
	if i1.ID != i2.ID {
		t.Fatalf("dedup broken: %s vs %s", i1.ID, i2.ID)
	}
	// Each uploader sees their own identity in the reply (no leak), and
	// both — having proved possession — are in the visibility scope.
	if i1.Owner != "first" || i2.Owner != "second" {
		t.Fatalf("reply owners: %q, %q", i1.Owner, i2.Owner)
	}
	for _, who := range []string{"first", "second"} {
		if !m.VisibleTo(i1.ID, who) {
			t.Fatalf("co-owner %s not in visibility scope", who)
		}
	}
	if m.VisibleTo(i1.ID, "third") {
		t.Fatal("non-owner in visibility scope")
	}
	if got := len(m.List()); got != 1 {
		t.Fatalf("List has %d entries, want 1", got)
	}
}

func TestManagerMissingAndBadIDs(t *testing.T) {
	m := NewLocal()
	missing := ID([]byte("nope"))
	if _, err := m.Resolve(missing); err == nil {
		t.Fatal("resolve of missing id succeeded")
	}
	if _, err := m.Resolve("not-an-id"); err == nil {
		t.Fatal("resolve of malformed id succeeded")
	}
	if _, err := m.GetBytes("not-an-id"); err == nil {
		t.Fatal("GetBytes of malformed id succeeded")
	}
	m.Delete("not-an-id") // no-op, must not panic
	m.Delete(missing)
}

func TestManagerLRUCacheBounded(t *testing.T) {
	m := NewLocal()
	m.cacheCapacity = 3 * 4 * 1000 // room for ~3 volumes of 1000 voxels

	var ids []string
	for i := 0; i < 5; i++ {
		info, err := m.PutVolume(10, 10, 10, testVolume(10, 10, 10, float32(i)), "")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, info.ID)
		if _, err := m.Resolve(info.ID); err != nil {
			t.Fatal(err)
		}
	}
	if m.CachedBytes() > m.cacheCapacity {
		t.Fatalf("cache %d bytes over its %d cap", m.CachedBytes(), m.cacheCapacity)
	}
	// Every id still resolves (cache is a cache, not the store).
	for _, id := range ids {
		if _, err := m.Resolve(id); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	// Repeat resolve returns the identical shared blob (a cache hit).
	b1, _ := m.Resolve(ids[len(ids)-1])
	b2, _ := m.Resolve(ids[len(ids)-1])
	if &b1.Data[0] != &b2.Data[0] {
		t.Fatal("repeat resolve re-decoded instead of hitting the cache")
	}
}

func TestManagerDeleteEvictsCache(t *testing.T) {
	m := NewLocal()
	// PutNew: an unkept intermediate, the only kind Delete removes.
	enc, err := EncodeVolume(2, 2, 2, testVolume(2, 2, 2, 0))
	if err != nil {
		t.Fatal(err)
	}
	info, _, err := m.PutNew(enc, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Resolve(info.ID); err != nil {
		t.Fatal(err)
	}
	m.Delete(info.ID)
	if m.CachedBytes() != 0 {
		t.Fatalf("cache holds %d bytes after delete", m.CachedBytes())
	}
	if _, err := m.Resolve(info.ID); err == nil {
		t.Fatal("deleted id still resolves")
	}
	if _, ok := m.Stat(info.ID); ok {
		t.Fatal("deleted id still in Stat")
	}
}

func TestFromTHREDDS(t *testing.T) {
	g := merra.Grid{NLon: 12, NLat: 8, NLev: 4}
	gen := merra.NewGenerator(g, 7)
	spec := merra.MERRA2().Slice(4)
	catalog := thredds.NewCatalog(spec, gen)
	srv, err := thredds.Serve(catalog, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	urls := make([]string, 3)
	for i := range urls {
		urls[i] = srv.SubsetURL(spec.FileName(i), "IVT")
	}
	m := NewLocal()
	rep, err := FromTHREDDS(context.Background(), m, &thredds.Downloader{Parallel: 2}, urls, "IVT", "ingest@ucsd.edu")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Granules != 3 || rep.BytesMoved <= 0 {
		t.Fatalf("report = %+v", rep)
	}
	blob, err := m.Resolve(rep.ID)
	if err != nil {
		t.Fatal(err)
	}
	if blob.D != 3 || blob.H != g.NLat || blob.W != g.NLon {
		t.Fatalf("ingested dims %dx%dx%d, want 3x%dx%d", blob.D, blob.H, blob.W, g.NLat, g.NLon)
	}
	// Slices must match the generator's own IVT, in URL order.
	levels := merra.PressureLevels(g.NLev)
	for i := 0; i < 3; i++ {
		want := merra.IVT(gen.State(i), levels)
		slice := blob.Data[i*g.NLat*g.NLon : (i+1)*g.NLat*g.NLon]
		for j := range want.Data {
			if slice[j] != want.Data[j] {
				t.Fatalf("granule %d voxel %d: got %v want %v", i, j, slice[j], want.Data[j])
			}
		}
	}
}

func TestFromTHREDDSCancelled(t *testing.T) {
	g := merra.Grid{NLon: 12, NLat: 8, NLev: 4}
	gen := merra.NewGenerator(g, 7)
	spec := merra.MERRA2().Slice(2)
	catalog := thredds.NewCatalog(spec, gen)
	srv, err := thredds.Serve(catalog, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	urls := []string{srv.SubsetURL(spec.FileName(0), "IVT")}
	if _, err := FromTHREDDS(ctx, NewLocal(), nil, urls, "IVT", ""); err == nil {
		t.Fatal("cancelled ingest succeeded")
	}
}

func TestFromTHREDDSBadVariable(t *testing.T) {
	g := merra.Grid{NLon: 12, NLat: 8, NLev: 4}
	gen := merra.NewGenerator(g, 7)
	spec := merra.MERRA2().Slice(1)
	catalog := thredds.NewCatalog(spec, gen)
	srv, err := thredds.Serve(catalog, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	urls := []string{srv.SubsetURL(spec.FileName(0), "IVT")}
	if _, err := FromTHREDDS(context.Background(), NewLocal(), nil, urls, "NOPE", ""); err == nil {
		t.Fatal("missing variable accepted")
	}
}

func BenchmarkResolveCached(b *testing.B) {
	m := NewLocal()
	info, err := m.PutVolume(16, 64, 64, testVolume(16, 64, 64, 1), "")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := m.Resolve(info.ID); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Resolve(info.ID); err != nil {
			b.Fatal(err)
		}
	}
}

func ExampleID() {
	enc, _ := EncodeVolume(1, 1, 2, []float32{1, 2})
	fmt.Println(len(ID(enc)))
	// Output: 64
}

func TestPutKeepsDataset(t *testing.T) {
	m := NewLocal()
	info, err := m.PutVolume(1, 2, 2, []float32{1, 2, 3, 4}, "user")
	if err != nil {
		t.Fatal(err)
	}
	// Put-ed (user-facing) datasets are kept: Delete is a no-op.
	m.Delete(info.ID)
	if _, err := m.Resolve(info.ID); err != nil {
		t.Fatalf("kept dataset deleted: %v", err)
	}
}

func TestPinDefersDeleteUntilUnpin(t *testing.T) {
	m := NewLocal()
	enc, _ := EncodeVolume(1, 2, 2, []float32{5, 6, 7, 8})
	info, created, err := m.PutNew(enc, "")
	if err != nil || !created {
		t.Fatalf("PutNew: created=%v err=%v", created, err)
	}
	m.Pin(info.ID)
	m.Pin(info.ID)
	m.Delete(info.ID) // deferred: two pins outstanding
	if _, err := m.Resolve(info.ID); err != nil {
		t.Fatalf("pinned dataset deleted early: %v", err)
	}
	m.Unpin(info.ID)
	if _, err := m.Resolve(info.ID); err != nil {
		t.Fatalf("dataset deleted with one pin left: %v", err)
	}
	m.Unpin(info.ID) // last pin: the deferred delete fires
	if _, err := m.Resolve(info.ID); err == nil {
		t.Fatal("deferred delete never fired")
	}
}

func TestPutRevivesDoomedDataset(t *testing.T) {
	m := NewLocal()
	enc, _ := EncodeVolume(1, 2, 2, []float32{5, 6, 7, 8})
	info, _, err := m.PutNew(enc, "")
	if err != nil {
		t.Fatal(err)
	}
	m.Pin(info.ID)
	m.Delete(info.ID) // deferred
	// The content is wanted again before the pin drops.
	if _, _, err := m.PutNew(enc, ""); err != nil {
		t.Fatal(err)
	}
	m.Unpin(info.ID)
	if _, err := m.Resolve(info.ID); err != nil {
		t.Fatalf("revived dataset still deleted: %v", err)
	}
}

func TestKeepCancelsDeferredDelete(t *testing.T) {
	m := NewLocal()
	enc, _ := EncodeVolume(1, 2, 2, []float32{5, 6, 7, 8})
	info, _, err := m.PutNew(enc, "")
	if err != nil {
		t.Fatal(err)
	}
	m.Pin(info.ID)
	m.Delete(info.ID) // deferred by the pin
	m.Keep(info.ID)   // promoted to durable while still pinned
	m.Unpin(info.ID)
	if _, err := m.Resolve(info.ID); err != nil {
		t.Fatalf("kept dataset deleted by stale deferred delete: %v", err)
	}
	m.Delete(info.ID) // and direct deletes stay no-ops
	if _, err := m.Resolve(info.ID); err != nil {
		t.Fatalf("kept dataset deleted directly: %v", err)
	}
}

func TestDropWhilePinnedHidesDataset(t *testing.T) {
	m := NewLocal()
	info, err := m.PutVolume(1, 2, 2, []float32{1, 2, 3, 4}, "alice")
	if err != nil {
		t.Fatal(err)
	}
	m.Pin(info.ID) // a running job holds the bytes
	if !m.Drop(info.ID, "alice") {
		t.Fatal("drop failed")
	}
	// The last claim is gone: nobody — alice included — may see the
	// pinned remnant, and it is not listed as anyone's data.
	for _, caller := range []string{"alice", "bob", "anonymous", ""} {
		if m.VisibleTo(info.ID, caller) {
			t.Fatalf("claim-free pinned dataset visible to %q", caller)
		}
	}
	m.Unpin(info.ID) // job done: deferred reclamation fires
	if _, ok := m.Stat(info.ID); ok {
		t.Fatal("dataset survives after last pin of a claim-free id")
	}
}

func TestPutPinnedAtomicWithRelease(t *testing.T) {
	m := NewLocal()
	enc, _ := EncodeVolume(1, 2, 2, []float32{9, 9, 9, 9})
	// Producer A: put + pin atomically.
	infoA, createdA, err := m.PutPinned(enc, "")
	if err != nil || !createdA {
		t.Fatalf("first PutPinned: created=%v err=%v", createdA, err)
	}
	// Producer B content-collides; its pin also lands inside the put.
	infoB, createdB, err := m.PutPinned(enc, "")
	if err != nil || createdB || infoB.ID != infoA.ID {
		t.Fatalf("second PutPinned: %+v created=%v err=%v", infoB, createdB, err)
	}
	// A releases (delete defers on B's pin); B must still resolve it.
	m.Delete(infoA.ID)
	m.Unpin(infoA.ID)
	if _, err := m.Resolve(infoA.ID); err != nil {
		t.Fatalf("blob deleted while a colliding producer still pinned it: %v", err)
	}
	m.Unpin(infoB.ID)
	if _, err := m.Resolve(infoA.ID); err == nil {
		t.Fatal("deferred delete never fired after the last pin")
	}
}

func TestMaskEncodingMustBeCanonical(t *testing.T) {
	enc, err := EncodeMask(1, 1, 3, []float32{1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(enc); err != nil {
		t.Fatalf("canonical mask rejected: %v", err)
	}
	// Stray set bits past bit n would let one logical mask hash to many
	// content addresses; both the decode and the upload-validation path
	// (DecodeHeader) must reject them.
	bad := append([]byte{}, enc...)
	bad[len(bad)-1] |= 0xF8
	if _, err := Decode(bad); err == nil {
		t.Fatal("non-canonical mask decoded")
	}
	if _, _, _, _, err := DecodeHeader(bad); err == nil {
		t.Fatal("non-canonical mask passed header validation")
	}
	m := NewLocal()
	if _, err := m.Put(bad, ""); err == nil {
		t.Fatal("non-canonical mask accepted by the store")
	}
}

func TestFromTHREDDSFollowsURLOrder(t *testing.T) {
	// The dataset is stacked in URL order whatever the download parallelism,
	// so the id pins the order of the list the caller built.
	g := merra.Grid{NLon: 12, NLat: 8, NLev: 4}
	gen := merra.NewGenerator(g, 7)
	spec := merra.MERRA2().Slice(4)
	srv, err := thredds.Serve(thredds.NewCatalog(spec, gen), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	urls := make([]string, 4)
	for i := range urls {
		urls[i] = srv.SubsetURL(spec.FileName(i), "IVT")
	}
	ingest := func(t *testing.T, urls []string, parallel int) (*Manager, IngestReport) {
		t.Helper()
		m := NewLocal()
		rep, err := FromTHREDDS(context.Background(), m, &thredds.Downloader{Parallel: parallel}, urls, "IVT", "")
		if err != nil {
			t.Fatal(err)
		}
		return m, rep
	}
	_, ref := ingest(t, urls, 1)
	for _, parallel := range []int{2, 4} {
		t.Run(fmt.Sprintf("parallel %d", parallel), func(t *testing.T) {
			if _, rep := ingest(t, urls, parallel); rep.ID != ref.ID {
				t.Fatalf("id = %s, want %s (parallel 1)", rep.ID, ref.ID)
			}
		})
	}
	t.Run("reversed", func(t *testing.T) {
		rev := make([]string, len(urls))
		for i, u := range urls {
			rev[len(urls)-1-i] = u
		}
		m, rep := ingest(t, rev, 4)
		if rep.ID == ref.ID {
			t.Fatal("reversed URL list gave the in-order id")
		}
		blob, err := m.Resolve(rep.ID)
		if err != nil {
			t.Fatal(err)
		}
		if blob.D != len(urls) || blob.H != g.NLat || blob.W != g.NLon {
			t.Fatalf("dims %dx%dx%d", blob.D, blob.H, blob.W)
		}
		want := merra.IVT(gen.State(len(urls)-1), merra.PressureLevels(g.NLev))
		for j, v := range want.Data {
			if blob.Data[j] != v {
				t.Fatalf("slice 0 voxel %d = %v, want the last granule's %v", j, blob.Data[j], v)
			}
		}
	})
}

func TestFromTHREDDSNeedsURLs(t *testing.T) {
	if _, err := FromTHREDDS(context.Background(), NewLocal(), nil, nil, "IVT", ""); err == nil {
		t.Fatal("ingest of no URLs succeeded")
	}
}

// PutNew is Put without the kept mark, additionally reporting whether the
// bytes were newly stored: an unkept intermediate, as PutPinned stores
// one, without the pin.
func (m *Manager) PutNew(enc []byte, owner string) (Info, bool, error) {
	return m.put(enc, "", owner, false, false)
}
