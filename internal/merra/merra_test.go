package merra

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
	"time"
)

// FullGrid returns the paper's MERRA-2 resolution (0.625 x 0.5 degrees,
// 42 levels).
func FullGrid() Grid { return Grid{NLon: 576, NLat: 361, NLev: 42} }

// At returns the value at (lon i, lat j).
func (f *Field2D) At(i, j int) float32 { return f.Data[j*f.NLon+i] }

// Set stores the value at (lon i, lat j).
func (f *Field2D) Set(i, j int, v float32) { f.Data[j*f.NLon+i] = v }

// At returns the value at (lon i, lat j, level k).
func (f *Field3D) At(i, j, k int) float32 {
	return f.Data[(k*f.Grid.NLat+j)*f.Grid.NLon+i]
}

// Max returns the maximum value, or 0 for an empty field.
func (f *Field2D) Max() float32 {
	var m float32
	for idx, v := range f.Data {
		if idx == 0 || v > m {
			m = v
		}
	}
	return m
}

// Mean returns the arithmetic mean.
func (f *Field2D) Mean() float64 {
	if len(f.Data) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range f.Data {
		sum += float64(v)
	}
	return sum / float64(len(f.Data))
}

// LabelMask thresholds an IVT field into the binary representation used for
// FFN training ("a binary representation of locations on earth where intense
// large-scale moisture transport (IVT) processes exist"). Values >= threshold
// become 1.
func LabelMask(ivt *Field2D, threshold float32) *Field2D {
	out := NewField2D(ivt.NLon, ivt.NLat)
	for idx, v := range ivt.Data {
		if v >= threshold {
			out.Data[idx] = 1
		}
	}
	return out
}

var testGrid = Grid{NLon: 48, NLat: 32, NLev: 8}

func TestFullGridMatchesPaper(t *testing.T) {
	g := FullGrid()
	if g.NLon != 576 || g.NLat != 361 || g.NLev != 42 {
		t.Fatalf("FullGrid = %v, want 576x361x42", g)
	}
}

func TestField2DAccessors(t *testing.T) {
	f := NewField2D(4, 3)
	f.Set(2, 1, 7)
	if f.At(2, 1) != 7 {
		t.Fatalf("At = %v, want 7", f.At(2, 1))
	}
	if f.Data[1*4+2] != 7 {
		t.Fatal("Set wrote to wrong flat index")
	}
}

func TestQuantileOrdering(t *testing.T) {
	f := NewField2D(10, 10)
	for i := range f.Data {
		f.Data[i] = float32(99 - i)
	}
	if q0, q100 := f.Quantile(0), f.Quantile(1); q0 != 0 || q100 != 99 {
		t.Fatalf("quantiles = %v, %v, want 0, 99", q0, q100)
	}
	med := f.Quantile(0.5)
	if med < 45 || med > 55 {
		t.Fatalf("median = %v, want ~49.5", med)
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	a := NewGenerator(testGrid, 42).State(7)
	b := NewGenerator(testGrid, 42).State(7)
	for i := range a.Q.Data {
		if a.Q.Data[i] != b.Q.Data[i] {
			t.Fatal("same seed+step produced different humidity")
		}
	}
	c := NewGenerator(testGrid, 43).State(7)
	diff := false
	for i := range a.Q.Data {
		if a.Q.Data[i] != c.Q.Data[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical fields")
	}
}

// TestStateIntoOverDirtyStateMatchesFresh: StateInto overwrites every
// element of Q, U and V, so reusing one State across steps yields the bytes
// a fresh State would.
func TestStateIntoOverDirtyStateMatchesFresh(t *testing.T) {
	for _, seed := range []uint64{1, 7, 1977} {
		gen := NewGenerator(testGrid, seed)
		var st State
		for _, step := range []int{0, 13, 57} {
			if st.Q != nil {
				for _, f := range []*Field3D{st.Q, st.U, st.V} {
					for i := range f.Data {
						f.Data[i] = float32(math.NaN())
					}
				}
			}
			q := st.Q
			gen.StateInto(&st, step)
			if q != nil && st.Q != q {
				t.Fatal("StateInto reallocated fields already on the generator grid")
			}
			fresh := gen.State(step)
			if st.Step != fresh.Step {
				t.Fatalf("step %d, want %d", st.Step, fresh.Step)
			}
			for name, pair := range map[string][2]*Field3D{"Q": {st.Q, fresh.Q}, "U": {st.U, fresh.U}, "V": {st.V, fresh.V}} {
				for i, v := range pair[1].Data {
					if math.Float32bits(pair[0].Data[i]) != math.Float32bits(v) {
						t.Fatalf("seed %d step %d: %s[%d] = %v over a dirty state, %v fresh", seed, step, name, i, pair[0].Data[i], v)
					}
				}
			}
		}
	}
	// A State on another grid is replaced, not written out of bounds.
	st := NewGenerator(Grid{NLon: 8, NLat: 6, NLev: 2}, 1).State(0)
	NewGenerator(testGrid, 1).StateInto(st, 0)
	if st.Q.Grid != testGrid || len(st.V.Data) != testGrid.Size() {
		t.Fatalf("StateInto kept a %v field for a %v generator", st.Q.Grid, testGrid)
	}
}

func TestGeneratorPhysicalPlausibility(t *testing.T) {
	st := NewGenerator(testGrid, 1).State(10)
	for i, q := range st.Q.Data {
		if q < 0 {
			t.Fatalf("negative humidity at %d: %v", i, q)
		}
		if q > 0.1 {
			t.Fatalf("implausible humidity at %d: %v (kg/kg)", i, q)
		}
	}
	// Humidity must decay with altitude on average.
	low, high := 0.0, 0.0
	hs := testGrid.HorizontalSize()
	for idx := 0; idx < hs; idx++ {
		low += float64(st.Q.Data[idx])
		high += float64(st.Q.Data[(testGrid.NLev-1)*hs+idx])
	}
	if low <= high {
		t.Fatalf("humidity does not decay with altitude: surface=%v top=%v", low, high)
	}
}

func TestIVTNonNegativeAndStructured(t *testing.T) {
	gen := NewGenerator(testGrid, 5)
	levels := PressureLevels(testGrid.NLev)
	f := IVT(gen.State(12), levels)
	for i, v := range f.Data {
		if v < 0 {
			t.Fatalf("negative IVT at %d", i)
		}
	}
	// Filaments must create a heavy tail: max well above mean.
	if max, mean := float64(f.Max()), f.Mean(); max < 2*mean {
		t.Fatalf("IVT lacks intense structures: max=%v mean=%v", max, mean)
	}
}

func TestIVTLevelMismatchPanics(t *testing.T) {
	gen := NewGenerator(testGrid, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("IVT with wrong level count did not panic")
		}
	}()
	IVT(gen.State(0), PressureLevels(testGrid.NLev+1))
}

func TestLabelMaskThreshold(t *testing.T) {
	f := NewField2D(2, 2)
	f.Data = []float32{1, 5, 10, 3}
	m := LabelMask(f, 5)
	want := []float32{0, 1, 1, 0}
	for i := range want {
		if m.Data[i] != want[i] {
			t.Fatalf("mask = %v, want %v", m.Data, want)
		}
	}
}

func TestObjectsPersistAcrossSteps(t *testing.T) {
	// The synthetic ARs must move slowly enough that consecutive masks
	// overlap — the property CONNECT exploits to link objects in time.
	gen := NewGenerator(testGrid, 9)
	levels := PressureLevels(testGrid.NLev)
	a := IVT(gen.State(30), levels)
	b := IVT(gen.State(31), levels)
	th := a.Quantile(0.92)
	ma, mb := LabelMask(a, th), LabelMask(b, th)
	overlap, onA := 0, 0
	for i := range ma.Data {
		if ma.Data[i] == 1 {
			onA++
			if mb.Data[i] == 1 {
				overlap++
			}
		}
	}
	if onA == 0 {
		t.Fatal("no active pixels at 92nd percentile threshold")
	}
	if float64(overlap)/float64(onA) < 0.3 {
		t.Fatalf("mask overlap between consecutive steps = %d/%d, want >= 30%%", overlap, onA)
	}
}

func TestIVTVolumeStacksSteps(t *testing.T) {
	gen := NewGenerator(testGrid, 2)
	levels := PressureLevels(testGrid.NLev)
	vol := IVTVolume(gen, levels, 5, 4)
	if vol.Grid.NLev != 4 {
		t.Fatalf("volume time axis = %d, want 4", vol.Grid.NLev)
	}
	single := IVT(gen.State(6), levels)
	hs := testGrid.HorizontalSize()
	for i := 0; i < hs; i++ {
		if vol.Data[1*hs+i] != single.Data[i] {
			t.Fatal("volume slice 1 disagrees with direct IVT of step 6")
		}
	}
}

func TestNCFileRoundTrip(t *testing.T) {
	gen := NewGenerator(testGrid, 3)
	levels := PressureLevels(testGrid.NLev)
	f := StateFile(gen.State(0), levels, 315532800)
	data := f.EncodeBytes()
	back, err := DecodeBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Time != 315532800 {
		t.Fatalf("time = %d", back.Time)
	}
	if len(back.Vars) != 4 {
		t.Fatalf("vars = %d, want 4", len(back.Vars))
	}
	qv := back.Var("QV")
	if qv == nil {
		t.Fatal("QV missing")
	}
	orig := f.Var("QV")
	for i := range orig.Data {
		if qv.Data[i] != orig.Data[i] {
			t.Fatal("QV payload corrupted in round trip")
		}
	}
}

func TestExtractVariableSubsetting(t *testing.T) {
	gen := NewGenerator(testGrid, 3)
	levels := PressureLevels(testGrid.NLev)
	f := StateFile(gen.State(0), levels, 0)
	data := f.EncodeBytes()

	ivtVar, err := ExtractVariable(data, "IVT")
	if err != nil {
		t.Fatal(err)
	}
	if len(ivtVar.Dims) != 2 || ivtVar.Dims[0] != testGrid.NLat || ivtVar.Dims[1] != testGrid.NLon {
		t.Fatalf("IVT dims = %v", ivtVar.Dims)
	}
	want := f.Var("IVT")
	for i := range want.Data {
		if ivtVar.Data[i] != want.Data[i] {
			t.Fatal("extracted IVT differs from encoded IVT")
		}
	}
	// Subset must be much smaller than the full file: 2D vs 3x3D+2D.
	subsetBytes := len(ivtVar.Data) * 4
	if float64(subsetBytes) > 0.2*float64(len(data)) {
		t.Fatalf("subset is %d of %d bytes; expected large reduction", subsetBytes, len(data))
	}
	if _, err := ExtractVariable(data, "NOPE"); err != ErrNoVar {
		t.Fatalf("missing var err = %v, want ErrNoVar", err)
	}
}

func TestListVariables(t *testing.T) {
	gen := NewGenerator(testGrid, 3)
	f := StateFile(gen.State(0), PressureLevels(testGrid.NLev), 0)
	vars, err := ListVariables(f.EncodeBytes())
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"QV", "U", "V", "IVT"}
	if len(vars) != len(names) {
		t.Fatalf("got %d vars", len(vars))
	}
	for i, want := range names {
		if vars[i].Name != want {
			t.Fatalf("var %d = %s, want %s", i, vars[i].Name, want)
		}
		if vars[i].Data != nil {
			t.Fatal("ListVariables materialized payload")
		}
	}
}

func TestDecodeBadMagic(t *testing.T) {
	if _, err := DecodeBytes([]byte("not a real file at all")); err != ErrBadMagic {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestDecodeTruncated(t *testing.T) {
	gen := NewGenerator(testGrid, 3)
	f := StateFile(gen.State(0), PressureLevels(testGrid.NLev), 0)
	data := f.EncodeBytes()
	if _, err := DecodeBytes(data[:len(data)/2]); err == nil {
		t.Fatal("truncated decode succeeded")
	}
}

func TestAddVariableDimMismatch(t *testing.T) {
	var f File
	if err := f.AddVariable("x", []int{2, 2}, make([]float32, 3)); err == nil {
		t.Fatal("dim mismatch accepted")
	}
}

func TestArchiveMatchesPaperNumbers(t *testing.T) {
	a := MERRA2()
	if got := a.NumFiles(); got != 112249 {
		t.Fatalf("NumFiles = %d, want 112249", got)
	}
	if got := a.TotalBytes(false); got < 454e9 || got > 456e9 {
		t.Fatalf("full archive = %v bytes, want ~455 GB", got)
	}
	if got := a.TotalBytes(true); got < 245e9 || got > 247e9 {
		t.Fatalf("subset archive = %v bytes, want ~246 GB", got)
	}
}

func TestArchiveFileNames(t *testing.T) {
	a := MERRA2()
	if got := a.FileName(0); got != "MERRA2_100.inst3_3d_asm_Np.19800101_0000.nc4" {
		t.Fatalf("first granule = %s", got)
	}
	last := a.FileName(a.NumFiles() - 1)
	if want := "MERRA2_400.inst3_3d_asm_Np.20180601_0000.nc4"; last != want {
		t.Fatalf("last granule = %s, want %s", last, want)
	}
}

func TestArchiveFileTimesMonotone(t *testing.T) {
	a := MERRA2()
	if a.FileTime(1).Sub(a.FileTime(0)) != 3*time.Hour {
		t.Fatal("granule spacing != 3h")
	}
}

func TestArchiveSlice(t *testing.T) {
	a := MERRA2().Slice(100)
	if a.NumFiles() != 100 {
		t.Fatalf("sliced NumFiles = %d, want 100", a.NumFiles())
	}
	if a.Slice(0).NumFiles() != 1 {
		t.Fatal("Slice(0) should clamp to 1 granule")
	}
}

func TestPropertyNCRoundTripAnyPayload(t *testing.T) {
	f := func(raw []byte, ts int64) bool {
		// Build a payload from arbitrary bytes (as float32 count).
		n := len(raw) % 64
		data := make([]float32, n)
		for i := range data {
			data[i] = float32(raw[i]) / 3
		}
		var file File
		file.Time = ts
		if err := file.AddVariable("X", []int{n}, data); err != nil {
			return false
		}
		back, err := DecodeBytes(file.EncodeBytes())
		if err != nil {
			return false
		}
		if back.Time != ts {
			return false
		}
		x := back.Var("X")
		if x == nil || len(x.Data) != n {
			return false
		}
		return bytes.Equal(f32bytes(x.Data), f32bytes(data))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func f32bytes(d []float32) []byte {
	out := make([]byte, 0, len(d)*4)
	for _, v := range d {
		u := math.Float32bits(v)
		out = append(out, byte(u), byte(u>>8), byte(u>>16), byte(u>>24))
	}
	return out
}
