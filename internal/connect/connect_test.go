package connect

import (
	"context"
	"testing"
	"testing/quick"

	"chaseci/internal/merra"
	"chaseci/internal/sim"
)

// Label is LabelCtx with a background context and no progress callback.
func Label(v *Volume, conn Connectivity, minVoxels int) *Result {
	res, _ := LabelCtx(context.Background(), v, conn, minVoxels, nil)
	return res
}

// NewVolume allocates a zero float volume.
func NewVolume(t, h, w int) *Volume {
	return &Volume{T: t, H: h, W: w, Data: make([]float32, t*h*w)}
}

// At reports whether voxel (t, y, x) is set.
func (v *Volume) At(t, y, x int) bool {
	i := (t*v.H+y)*v.W + x
	if v.bits != nil {
		return bitSet(v.bits, i)
	}
	return v.Data[i] > 0.5
}

// Set marks voxel (t, y, x) of a float volume.
func (v *Volume) Set(t, y, x int) { v.Data[(t*v.H+y)*v.W+x] = 1 }

// LabelAt returns the object ID at (t, y, x), 0 for background.
func (r *Result) LabelAt(t, y, x int) int32 { return r.Labels[(t*r.H+y)*r.W+x] }

func TestEmptyVolume(t *testing.T) {
	r := Label(NewVolume(4, 4, 4), Conn26, 0)
	if len(r.Objects) != 0 {
		t.Fatalf("objects = %d, want 0", len(r.Objects))
	}
}

func TestSingleVoxel(t *testing.T) {
	v := NewVolume(3, 3, 3)
	v.Set(1, 1, 1)
	r := Label(v, Conn6, 0)
	if len(r.Objects) != 1 {
		t.Fatalf("objects = %d, want 1", len(r.Objects))
	}
	o := r.Objects[0]
	if o.Voxels != 1 || o.Genesis != 1 || o.Termination != 1 || o.Duration() != 1 {
		t.Fatalf("object = %+v", o)
	}
	if r.LabelAt(1, 1, 1) != 1 {
		t.Fatal("voxel not labelled")
	}
}

func TestTwoSeparateObjects(t *testing.T) {
	v := NewVolume(1, 5, 5)
	v.Set(0, 0, 0)
	v.Set(0, 4, 4)
	r := Label(v, Conn26, 0)
	if len(r.Objects) != 2 {
		t.Fatalf("objects = %d, want 2", len(r.Objects))
	}
	if r.LabelAt(0, 0, 0) == r.LabelAt(0, 4, 4) {
		t.Fatal("separate voxels share a label")
	}
}

func TestDiagonalConnectivityDiffers(t *testing.T) {
	v := NewVolume(1, 2, 2)
	v.Set(0, 0, 0)
	v.Set(0, 1, 1) // diagonal neighbor
	if got := len(Label(v, Conn6, 0).Objects); got != 2 {
		t.Fatalf("Conn6 objects = %d, want 2", got)
	}
	if got := len(Label(v, Conn26, 0).Objects); got != 1 {
		t.Fatalf("Conn26 objects = %d, want 1", got)
	}
}

func TestTemporalLinking(t *testing.T) {
	// An object present at the same place across 4 steps is one object with
	// duration 4 — CONNECT's defining property versus per-frame labelling.
	v := NewVolume(4, 5, 5)
	for step := 0; step < 4; step++ {
		v.Set(step, 2, 2)
	}
	r := Label(v, Conn6, 0)
	if len(r.Objects) != 1 {
		t.Fatalf("objects = %d, want 1", len(r.Objects))
	}
	if d := r.Objects[0].Duration(); d != 4 {
		t.Fatalf("duration = %d, want 4", d)
	}
}

func TestMovingObjectTrackedAcrossTime(t *testing.T) {
	// Object drifts +1 x per step; Conn26 keeps it linked, and the pathway
	// centroids must drift monotonically.
	v := NewVolume(5, 5, 10)
	for step := 0; step < 5; step++ {
		v.Set(step, 2, step+1)
		v.Set(step, 2, step+2)
	}
	r := Label(v, Conn26, 0)
	if len(r.Objects) != 1 {
		t.Fatalf("objects = %d, want 1", len(r.Objects))
	}
	o := r.Objects[0]
	if len(o.Pathway) != 5 {
		t.Fatalf("pathway length = %d, want 5", len(o.Pathway))
	}
	for i := 1; i < len(o.Pathway); i++ {
		if o.Pathway[i][1] <= o.Pathway[i-1][1] {
			t.Fatalf("pathway x not increasing: %v", o.Pathway)
		}
	}
}

func TestGenesisAndTermination(t *testing.T) {
	v := NewVolume(6, 3, 3)
	v.Set(2, 1, 1)
	v.Set(3, 1, 1)
	v.Set(4, 1, 1)
	r := Label(v, Conn6, 0)
	o := r.Objects[0]
	if o.Genesis != 2 || o.Termination != 4 {
		t.Fatalf("genesis/termination = %d/%d, want 2/4", o.Genesis, o.Termination)
	}
}

func TestMinVoxelsPrunes(t *testing.T) {
	v := NewVolume(1, 5, 5)
	v.Set(0, 0, 0) // size 1
	v.Set(0, 3, 3) // size 2 blob
	v.Set(0, 3, 4)
	r := Label(v, Conn26, 2)
	if len(r.Objects) != 1 {
		t.Fatalf("objects = %d, want 1 after pruning", len(r.Objects))
	}
	if r.Objects[0].Voxels != 2 {
		t.Fatalf("surviving object voxels = %d, want 2", r.Objects[0].Voxels)
	}
	if r.LabelAt(0, 0, 0) != 0 {
		t.Fatal("pruned voxel still labelled")
	}
}

func TestPeakAreaAndBBox(t *testing.T) {
	v := NewVolume(2, 4, 4)
	v.Set(0, 1, 1)
	v.Set(1, 1, 1)
	v.Set(1, 1, 2)
	v.Set(1, 2, 1)
	r := Label(v, Conn26, 0)
	o := r.Objects[0]
	if o.PeakArea != 3 {
		t.Fatalf("peak area = %d, want 3", o.PeakArea)
	}
	want := [6]int{0, 1, 1, 2, 1, 2}
	if o.BBox != want {
		t.Fatalf("bbox = %v, want %v", o.BBox, want)
	}
}

func TestLabelsDeterministic(t *testing.T) {
	rng := sim.NewRNG(5)
	v := NewVolume(4, 10, 10)
	for i := range v.Data {
		if rng.Float64() < 0.3 {
			v.Data[i] = 1
		}
	}
	a := Label(v, Conn26, 0)
	b := Label(v, Conn26, 0)
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("labelling is not deterministic")
		}
	}
}

// TestLabelAllocBound pins a steady stream of labellings on a 16x64x64
// volume at 20% density, each result released before the next: the label
// array and union-find tables come back from the free list and the
// statistics, objects and pathways from the pooled scratch, so a labelling
// allocates its Result and its Objects slice (2; 760 while the statistics,
// objects and pathways were built per call). The bound is 2x that.
func TestLabelAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; alloc pins run in the non-race job")
	}
	rng := sim.NewRNG(2)
	v := NewVolume(16, 64, 64)
	for i := range v.Data {
		if rng.Float64() < 0.2 {
			v.Data[i] = 1
		}
	}
	for _, in := range []*Volume{v, FromBits(v.T, v.H, v.W, v.packed())} {
		Label(in, Conn26, 0).Release() // warm the pool and the free list
		allocs := testing.AllocsPerRun(10, func() { Label(in, Conn26, 0).Release() })
		t.Logf("Label+Release (bits %v): %.0f allocs", in.bits != nil, allocs)
		const bound = 4
		if allocs > bound {
			t.Fatalf("Label+Release allocates %.0f objects, want <= %d", allocs, bound)
		}
	}
}

func TestSummarize(t *testing.T) {
	v := NewVolume(3, 4, 4)
	v.Set(0, 0, 0)
	v.Set(1, 0, 0)
	v.Set(0, 3, 3)
	r := Label(v, Conn6, 0)
	s := Summarize(r)
	if s.Objects != 2 || s.TotalVoxels != 3 {
		t.Fatalf("stats = %+v", s)
	}
	if s.MaxDuration != 2 || s.MeanDuration != 1.5 {
		t.Fatalf("durations = %+v", s)
	}
}

func TestFromMaskSharesData(t *testing.T) {
	data := make([]float32, 8)
	v := FromMask(2, 2, 2, data)
	data[0] = 1
	if !v.At(0, 0, 0) {
		t.Fatal("FromMask copied instead of sharing")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("dimension mismatch not caught")
		}
	}()
	FromMask(3, 2, 2, data)
}

func TestOnSyntheticIVTScene(t *testing.T) {
	// End-to-end sanity: CONNECT on synthetic IVT masks finds a handful of
	// long-lived objects, not thousands of specks and not one blob.
	g := merra.Grid{NLon: 48, NLat: 32, NLev: 6}
	gen := merra.NewGenerator(g, 21)
	levels := merra.PressureLevels(g.NLev)
	const steps = 10
	vol := merra.IVTVolume(gen, levels, 10, steps)
	f2 := merra.Field2D{NLon: len(vol.Data), NLat: 1, Data: vol.Data}
	th := f2.Quantile(0.92)
	mask := make([]float32, len(vol.Data))
	for i, v := range vol.Data {
		if v >= th {
			mask[i] = 1
		}
	}
	r := Label(FromMask(steps, g.NLat, g.NLon, mask), Conn26, 4)
	if len(r.Objects) == 0 {
		t.Fatal("no objects found in synthetic scene")
	}
	if len(r.Objects) > 60 {
		t.Fatalf("%d objects — mask is noise, not structures", len(r.Objects))
	}
	s := Summarize(r)
	if s.MaxDuration < 3 {
		t.Fatalf("max duration = %d; objects do not persist in time", s.MaxDuration)
	}
}

func TestPropertyLabelsPartitionForeground(t *testing.T) {
	// Every foreground voxel gets a label; no background voxel does; voxel
	// counts per object sum to the foreground count (with minVoxels 0).
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		v := NewVolume(3, 6, 6)
		fg := 0
		for i := range v.Data {
			if rng.Float64() < 0.35 {
				v.Data[i] = 1
				fg++
			}
		}
		r := Label(v, Conn26, 0)
		sum := 0
		for _, o := range r.Objects {
			sum += o.Voxels
		}
		if sum != fg {
			return false
		}
		for i, l := range r.Labels {
			if (v.Data[i] > 0.5) != (l != 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyConnectedPairsShareLabel(t *testing.T) {
	// Any two face-adjacent foreground voxels must share a label under both
	// connectivities.
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		v := NewVolume(3, 5, 5)
		for i := range v.Data {
			if rng.Float64() < 0.4 {
				v.Data[i] = 1
			}
		}
		for _, conn := range []Connectivity{Conn6, Conn26} {
			r := Label(v, conn, 0)
			for t := 0; t < v.T; t++ {
				for y := 0; y < v.H; y++ {
					for x := 0; x < v.W; x++ {
						if !v.At(t, y, x) {
							continue
						}
						for _, o := range [][3]int{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}} {
							nt, ny, nx := t+o[0], y+o[1], x+o[2]
							if nt >= v.T || ny >= v.H || nx >= v.W {
								continue
							}
							if v.At(nt, ny, nx) && r.LabelAt(t, y, x) != r.LabelAt(nt, ny, nx) {
								return false
							}
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
