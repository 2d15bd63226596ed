package merra

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
)

// Native fuzz target for the NC4-lite readers, which parse whatever bytes a
// THREDDS catalog served (dataset.FromTHREDDS hands each granule to
// ExtractVariable). Invariants: no panic; a refusal is ErrBadMagic,
// ErrNoVar or a wrapped io.ErrUnexpectedEOF; nothing allocated beyond a
// small multiple of the input, whatever its header fields claim; and an
// accepted file re-encodes to the bytes it was decoded from. The corpus
// under testdata/fuzz holds a valid two-variable file, the 40-byte granule
// whose dims claim 2^32 floats, dims whose product wraps an int64 back to 1,
// a header announcing 2^32-1 variables, a zero-length dim beside a huge
// one, a 65535-dim variable with no dims behind it, and a truncated payload.

// ncAllocFactor and ncAllocSlack bound what a decoder may allocate for an
// n-byte input: a decoded header is a 64-byte Variable for as little as 8
// bytes of input, in a list grown by doubling, and dims widen from 4 bytes
// to 8; the slack covers error text and the fuzz worker's own goroutines.
const (
	ncAllocFactor = 32
	ncAllocSlack  = 64 << 10
)

func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func FuzzDecodeBytes(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		limit := uint64(ncAllocFactor*len(data) + ncAllocSlack)
		refusal := func(op string, err error) {
			t.Helper()
			if !errors.Is(err, ErrBadMagic) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("%s: %v, want ErrBadMagic or io.ErrUnexpectedEOF", op, err)
			}
		}
		var file *File
		var listed []Variable
		var err, listErr error
		if got := allocatedBy(func() { file, err = DecodeBytes(data) }); got > limit {
			t.Fatalf("DecodeBytes allocated %d bytes for a %d-byte input", got, len(data))
		}
		if got := allocatedBy(func() { listed, listErr = ListVariables(data) }); got > limit {
			t.Fatalf("ListVariables allocated %d bytes for a %d-byte input", got, len(data))
		}
		if got := allocatedBy(func() {
			if _, err := ExtractVariable(data, "IVT"); err != nil && !errors.Is(err, ErrNoVar) {
				refusal("ExtractVariable", err)
			}
		}); got > limit {
			t.Fatalf("ExtractVariable allocated %d bytes for a %d-byte input", got, len(data))
		}
		// The three readers walk the same headers: they agree on validity.
		if (err == nil) != (listErr == nil) {
			t.Fatalf("DecodeBytes: %v, ListVariables: %v", err, listErr)
		}
		if err != nil {
			refusal("DecodeBytes", err)
			refusal("ListVariables", listErr)
			return
		}

		enc := file.EncodeBytes()
		if len(enc) > len(data) || !bytes.Equal(enc, data[:len(enc)]) {
			t.Fatalf("decode -> encode gave %d bytes that are not the %d-byte input's prefix", len(enc), len(data))
		}
		again, err := DecodeBytes(enc)
		if err != nil || !bytes.Equal(again.EncodeBytes(), enc) {
			t.Fatalf("decode -> encode -> decode is not the identity (err %v)", err)
		}
		if len(listed) != len(file.Vars) {
			t.Fatalf("ListVariables found %d variables, DecodeBytes %d", len(listed), len(file.Vars))
		}
		seen := make(map[string]bool)
		for i, v := range file.Vars {
			if listed[i].Name != v.Name || listed[i].Data != nil || listed[i].Size() != len(v.Data) {
				t.Fatalf("variable %d: listed %q size %d (payload %v), decoded %q with %d values",
					i, listed[i].Name, listed[i].Size(), listed[i].Data != nil, v.Name, len(v.Data))
			}
			if seen[v.Name] {
				continue // ExtractVariable returns the first of a name
			}
			seen[v.Name] = true
			got, err := ExtractVariable(data, v.Name)
			if err != nil {
				t.Fatalf("ExtractVariable(%q) of an accepted file: %v", v.Name, err)
			}
			var a, b bytes.Buffer
			binary.Write(&a, binary.LittleEndian, got.Data)
			binary.Write(&b, binary.LittleEndian, v.Data)
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatalf("ExtractVariable(%q) payload differs from DecodeBytes", v.Name)
			}
		}
	})
}

// ncHeader is a file header followed by one variable header with the given
// raw dims and no payload.
func ncHeader(nvars uint32, name string, dims ...uint32) []byte {
	b := append([]byte(nil), ncMagic[:]...)
	b = binary.LittleEndian.AppendUint64(b, 0)
	b = binary.LittleEndian.AppendUint32(b, nvars)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(name)))
	b = append(b, name...)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(dims)))
	for _, d := range dims {
		b = binary.LittleEndian.AppendUint32(b, d)
	}
	return b
}

// TestDecodersRefuseHostileHeaders: each reader sizes nothing from a header
// field it has not checked against the bytes that are actually there — a
// 40-byte granule cannot ask for 17 GB, dims cannot overflow their product
// into a small one, and a variable count is not a preallocation.
func TestDecodersRefuseHostileHeaders(t *testing.T) {
	manyDims := ncHeader(1, "IVT")
	binary.LittleEndian.PutUint16(manyDims[len(manyDims)-2:], 0xffff)
	for name, data := range map[string][]byte{
		"2^32 floats in 40 bytes": append(ncHeader(1, "IVT", 1<<16, 1<<16), 0, 0, 0, 0, 0),
		"product wraps to 1":      append(ncHeader(1, "IVT", 1<<31, 1<<31, 4, 1), 0, 0, 0, 0),
		"2^32-1 variables":        ncHeader(1<<32-1, "QV", 0),
		"65535 dims, none there":  manyDims,
	} {
		for op, decode := range map[string]func() error{
			"DecodeBytes":     func() error { _, err := DecodeBytes(data); return err },
			"ExtractVariable": func() error { _, err := ExtractVariable(data, "IVT"); return err },
			"ListVariables":   func() error { _, err := ListVariables(data); return err },
		} {
			var err error
			if got := allocatedBy(func() { err = decode() }); got > ncAllocSlack {
				t.Errorf("%s, %s: allocated %d bytes for a %d-byte input", name, op, got, len(data))
			}
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Errorf("%s, %s: err = %v, want io.ErrUnexpectedEOF", name, op, err)
			}
		}
	}
	// A zero-length dim makes an empty variable however large its siblings.
	empty := ncHeader(1, "IVT", 1<<31, 0, 1<<31)
	f, err := DecodeBytes(empty)
	if err != nil || len(f.Vars) != 1 || len(f.Vars[0].Data) != 0 {
		t.Fatalf("empty variable: %+v, %v", f, err)
	}
}
