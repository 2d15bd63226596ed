package merra

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// NC4-lite: a minimal self-describing binary container standing in for
// NetCDF4. Layout (all integers little-endian):
//
//	magic   [8]byte  "NC4LITE\x00"
//	time    int64    file timestamp, unix seconds
//	nvars   uint32
//	per variable:
//	  nameLen uint16, name bytes
//	  ndims   uint16, dims []uint32
//	  payload float32 x prod(dims)
//
// The format supports ExtractVariable: reading a single variable from the
// encoded bytes without materializing the others. That capability is exactly
// what the paper exploits through the THREDDS subset tool to shrink the
// transfer from 455 GB to 246 GB.

var ncMagic = [8]byte{'N', 'C', '4', 'L', 'I', 'T', 'E', 0}

// Errors from NC4-lite decoding.
var (
	ErrBadMagic = errors.New("merra: not an NC4-lite file")
	ErrNoVar    = errors.New("merra: variable not found")
)

// Variable is one named array in a file.
type Variable struct {
	Name string
	Dims []int
	Data []float32
}

// Size returns the element count implied by Dims.
func (v *Variable) Size() int {
	n := 1
	for _, d := range v.Dims {
		n *= d
	}
	return n
}

// File is an NC4-lite dataset.
type File struct {
	Time int64
	Vars []Variable
}

// AddVariable appends a variable; it returns an error if data length does
// not match dims.
func (f *File) AddVariable(name string, dims []int, data []float32) error {
	v := Variable{Name: name, Dims: dims, Data: data}
	if v.Size() != len(data) {
		return fmt.Errorf("merra: variable %s dims %v imply %d elements, got %d",
			name, dims, v.Size(), len(data))
	}
	f.Vars = append(f.Vars, v)
	return nil
}

// Encode serializes the file.
func (f *File) Encode(w io.Writer) error {
	if _, err := w.Write(ncMagic[:]); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, f.Time); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(f.Vars))); err != nil {
		return err
	}
	for _, v := range f.Vars {
		if len(v.Name) > math.MaxUint16 {
			return fmt.Errorf("merra: variable name too long (%d bytes)", len(v.Name))
		}
		if err := binary.Write(w, binary.LittleEndian, uint16(len(v.Name))); err != nil {
			return err
		}
		if _, err := w.Write([]byte(v.Name)); err != nil {
			return err
		}
		if err := binary.Write(w, binary.LittleEndian, uint16(len(v.Dims))); err != nil {
			return err
		}
		for _, d := range v.Dims {
			if err := binary.Write(w, binary.LittleEndian, uint32(d)); err != nil {
				return err
			}
		}
		if err := binary.Write(w, binary.LittleEndian, v.Data); err != nil {
			return err
		}
	}
	return nil
}

// EncodeBytes returns the serialized file.
func (f *File) EncodeBytes() []byte {
	var buf bytes.Buffer
	if err := f.Encode(&buf); err != nil {
		// bytes.Buffer writes cannot fail; any error is a format bug.
		panic(err)
	}
	return buf.Bytes()
}

// ncReader walks an encoded file held in memory. The header fields are
// untrusted — a granule is whatever a THREDDS catalog served — so every
// length is checked against the bytes that remain before anything is sized
// by it: a file can make the decoders allocate a small multiple of its own
// length and no more.
type ncReader struct{ rest []byte }

// take consumes the next n bytes; running off the end is an error.
func (r *ncReader) take(n int) ([]byte, error) {
	if n > len(r.rest) {
		return nil, fmt.Errorf("merra: NC4-lite field of %d bytes with %d left: %w", n, len(r.rest), io.ErrUnexpectedEOF)
	}
	b := r.rest[:n]
	r.rest = r.rest[n:]
	return b, nil
}

func (r *ncReader) u16() (int, error) {
	b, err := r.take(2)
	if err != nil {
		return 0, err
	}
	return int(binary.LittleEndian.Uint16(b)), nil
}

// openNC checks the magic and reads the file header.
func openNC(data []byte) (r *ncReader, timestamp int64, nvars uint32, err error) {
	r = &ncReader{rest: data}
	magic, err := r.take(len(ncMagic))
	if err != nil {
		return nil, 0, 0, err
	}
	if [8]byte(magic) != ncMagic {
		return nil, 0, 0, ErrBadMagic
	}
	hdr, err := r.take(8 + 4)
	if err != nil {
		return nil, 0, 0, err
	}
	return r, int64(binary.LittleEndian.Uint64(hdr)), binary.LittleEndian.Uint32(hdr[8:]), nil
}

// next reads one variable's header and consumes its payload, returned
// still encoded: the element count is the product of raw uint32 dims, so it
// is built up by division against the floats the remaining bytes can hold
// and can neither overflow nor exceed them.
func (r *ncReader) next() (v Variable, payload []byte, err error) {
	nameLen, err := r.u16()
	if err != nil {
		return v, nil, err
	}
	name, err := r.take(nameLen)
	if err != nil {
		return v, nil, err
	}
	ndims, err := r.u16()
	if err != nil {
		return v, nil, err
	}
	dims, err := r.take(4 * ndims)
	if err != nil {
		return v, nil, err
	}
	v = Variable{Name: string(name), Dims: make([]int, ndims)}
	n, limit, empty := 1, len(r.rest)/4, false
	for d := range v.Dims {
		dim := int(binary.LittleEndian.Uint32(dims[4*d:]))
		v.Dims[d] = dim
		switch {
		case dim == 0:
			empty = true
		case n > limit/dim:
			n = limit + 1 // too many for what is left, whatever follows
		default:
			n *= dim
		}
	}
	if empty {
		n = 0
	}
	if n > limit {
		return v, nil, fmt.Errorf("merra: variable %q dims %v need more than the %d bytes left: %w",
			v.Name, v.Dims, len(r.rest), io.ErrUnexpectedEOF)
	}
	payload, err = r.take(4 * n)
	return v, payload, err
}

// floats decodes a little-endian float32 payload.
func floats(payload []byte) []float32 {
	out := make([]float32, len(payload)/4)
	binary.Decode(payload, binary.LittleEndian, out) // next took 4 bytes per element
	return out
}

// ExtractVariable reads a single named variable from encoded bytes, skipping
// (not allocating) every other variable's payload — the subset operation.
func ExtractVariable(data []byte, name string) (*Variable, error) {
	r, _, nvars, err := openNC(data)
	if err != nil {
		return nil, err
	}
	for i := uint32(0); i < nvars; i++ {
		v, payload, err := r.next()
		if err != nil {
			return nil, err
		}
		if v.Name == name {
			v.Data = floats(payload)
			return &v, nil
		}
	}
	return nil, ErrNoVar
}

// StateFile packages a synthetic state (plus its derived IVT) as an NC4-lite
// file with variables QV, U, V, IVT — the shape a real M2I3NPASM granule has
// for this workflow's purposes.
func StateFile(st *State, levels []float64, timestamp int64) *File {
	g := st.Q.Grid
	f := &File{Time: timestamp}
	dims3 := []int{g.NLev, g.NLat, g.NLon}
	// Errors are impossible here: dims are derived from the slices.
	f.AddVariable("QV", dims3, st.Q.Data)
	f.AddVariable("U", dims3, st.U.Data)
	f.AddVariable("V", dims3, st.V.Data)
	ivt := IVT(st, levels)
	f.AddVariable("IVT", []int{g.NLat, g.NLon}, ivt.Data)
	return f
}
