package connect

import (
	"fmt"
	"sort"
	"testing"

	"chaseci/internal/parallel"
	"chaseci/internal/sim"
)

// newUnionFind is a fresh union-find over n singleton ids.
func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int32, n), size: make([]int32, n)}
	for i := range uf.parent {
		uf.parent[i] = int32(i)
		uf.size[i] = 1
	}
	return uf
}

// labelSerialReference is the seed repository's original single-goroutine
// implementation (voxel-level union-find plus map-based statistics), kept
// verbatim as the ground truth for the block-parallel rewrite.
func labelSerialReference(v *Volume, conn Connectivity, minVoxels int) *Result {
	n := v.T * v.H * v.W
	uf := newUnionFind(n)
	idx := func(t, y, x int) int32 { return int32((t*v.H+y)*v.W + x) }
	offs := neighborOffsets(conn)

	for t := 0; t < v.T; t++ {
		for y := 0; y < v.H; y++ {
			for x := 0; x < v.W; x++ {
				if !v.At(t, y, x) {
					continue
				}
				me := idx(t, y, x)
				for _, o := range offs {
					nt, ny, nx := t+o[0], y+o[1], x+o[2]
					if nt < 0 || ny < 0 || ny >= v.H || nx < 0 || nx >= v.W {
						continue
					}
					if v.At(nt, ny, nx) {
						uf.union(me, idx(nt, ny, nx))
					}
				}
			}
		}
	}

	res := &Result{Labels: make([]int32, n), T: v.T, H: v.H, W: v.W}
	rootID := make(map[int32]int32)
	type acc struct {
		voxels               int
		genesis, termination int
		bbox                 [6]int
		perStepCount         map[int]int
		perStepSumY          map[int]float64
		perStepSumX          map[int]float64
	}
	accs := make(map[int32]*acc)
	var order []int32 // roots in first-voxel scan order, for a stable sort

	for t := 0; t < v.T; t++ {
		for y := 0; y < v.H; y++ {
			for x := 0; x < v.W; x++ {
				if !v.At(t, y, x) {
					continue
				}
				root := uf.find(idx(t, y, x))
				a, ok := accs[root]
				if !ok {
					a = &acc{
						genesis: t, termination: t,
						bbox:         [6]int{t, t, y, y, x, x},
						perStepCount: make(map[int]int),
						perStepSumY:  make(map[int]float64),
						perStepSumX:  make(map[int]float64),
					}
					accs[root] = a
					order = append(order, root)
				}
				a.voxels++
				if t > a.termination {
					a.termination = t
				}
				a.bbox[0] = min(a.bbox[0], t)
				a.bbox[1] = max(a.bbox[1], t)
				a.bbox[2] = min(a.bbox[2], y)
				a.bbox[3] = max(a.bbox[3], y)
				a.bbox[4] = min(a.bbox[4], x)
				a.bbox[5] = max(a.bbox[5], x)
				a.perStepCount[t]++
				a.perStepSumY[t] += float64(y)
				a.perStepSumX[t] += float64(x)
			}
		}
	}

	sort.SliceStable(order, func(i, j int) bool {
		a, b := accs[order[i]], accs[order[j]]
		if a.genesis != b.genesis {
			return a.genesis < b.genesis
		}
		if a.voxels != b.voxels {
			return a.voxels > b.voxels
		}
		return a.bbox != b.bbox && lessBBox(a.bbox, b.bbox)
	})

	nextID := int32(1)
	for _, root := range order {
		a := accs[root]
		if a.voxels < minVoxels {
			continue
		}
		rootID[root] = nextID
		obj := &Object{
			ID:      int(nextID),
			Voxels:  a.voxels,
			Genesis: a.genesis, Termination: a.termination,
			BBox: a.bbox,
		}
		var lastY, lastX float64
		for t := a.genesis; t <= a.termination; t++ {
			if c := a.perStepCount[t]; c > 0 {
				lastY = a.perStepSumY[t] / float64(c)
				lastX = a.perStepSumX[t] / float64(c)
				if c > obj.PeakArea {
					obj.PeakArea = c
				}
			}
			obj.Pathway = append(obj.Pathway, [2]float64{lastY, lastX})
		}
		res.Objects = append(res.Objects, obj)
		nextID++
	}

	for t := 0; t < v.T; t++ {
		for y := 0; y < v.H; y++ {
			for x := 0; x < v.W; x++ {
				if !v.At(t, y, x) {
					continue
				}
				if id, ok := rootID[uf.find(idx(t, y, x))]; ok {
					res.Labels[(t*v.H+y)*v.W+x] = id
				}
			}
		}
	}
	return res
}

func randomMask(seed uint64, t, h, w int, density float64) *Volume {
	rng := sim.NewRNG(seed)
	v := NewVolume(t, h, w)
	for i := range v.Data {
		if rng.Float64() < density {
			v.Data[i] = 1
		}
	}
	return v
}

func requireSameResult(t *testing.T, got, want *Result) {
	t.Helper()
	if len(got.Objects) != len(want.Objects) {
		t.Fatalf("object count: got %d, want %d", len(got.Objects), len(want.Objects))
	}
	for i, o := range got.Objects {
		r := want.Objects[i]
		if o.ID != r.ID || o.Voxels != r.Voxels || o.Genesis != r.Genesis ||
			o.Termination != r.Termination || o.BBox != r.BBox || o.PeakArea != r.PeakArea {
			t.Fatalf("object %d: got %+v, want %+v", i, o, r)
		}
		if len(o.Pathway) != len(r.Pathway) {
			t.Fatalf("object %d pathway length: got %d, want %d", i, len(o.Pathway), len(r.Pathway))
		}
		for s := range o.Pathway {
			if o.Pathway[s] != r.Pathway[s] {
				t.Fatalf("object %d pathway step %d: got %v, want %v", i, s, o.Pathway[s], r.Pathway[s])
			}
		}
	}
	for i := range want.Labels {
		if got.Labels[i] != want.Labels[i] {
			t.Fatalf("label voxel %d: got %d, want %d", i, got.Labels[i], want.Labels[i])
		}
	}
}

// TestLabelBlockParallelMatchesSerial sweeps shapes, densities,
// connectivities, pruning thresholds, and worker counts, requiring the
// block-parallel labelling to reproduce the original serial implementation
// exactly: same labels, same objects, same life cycles.
func TestLabelBlockParallelMatchesSerial(t *testing.T) {
	shapes := [][3]int{{1, 5, 7}, {4, 9, 8}, {7, 16, 15}, {16, 12, 11}}
	for si, shape := range shapes {
		for _, density := range []float64{0.05, 0.2, 0.55} {
			v := randomMask(uint64(si)*31+uint64(density*100), shape[0], shape[1], shape[2], density)
			for _, conn := range []Connectivity{Conn6, Conn26} {
				for _, minVoxels := range []int{0, 4} {
					want := labelSerialReference(v, conn, minVoxels)
					for _, workers := range []int{1, 2, 8} {
						name := fmt.Sprintf("shape=%v/density=%v/conn=%d/min=%d/workers=%d",
							shape, density, conn, minVoxels, workers)
						t.Run(name, func(t *testing.T) {
							prev := parallel.SetWorkers(workers)
							defer parallel.SetWorkers(prev)
							requireSameResult(t, Label(v, conn, minVoxels), want)
						})
					}
				}
			}
		}
	}
}

// TestLabelSolidAndEmpty covers the degenerate extremes at several worker
// counts.
func TestLabelSolidAndEmpty(t *testing.T) {
	for _, workers := range []int{1, 8} {
		prev := parallel.SetWorkers(workers)
		empty := NewVolume(3, 4, 5)
		if res := Label(empty, Conn26, 0); len(res.Objects) != 0 {
			t.Fatalf("workers=%d: empty volume produced %d objects", workers, len(res.Objects))
		}
		solid := NewVolume(3, 4, 5)
		for i := range solid.Data {
			solid.Data[i] = 1
		}
		res := Label(solid, Conn26, 0)
		if len(res.Objects) != 1 || res.Objects[0].Voxels != 60 {
			t.Fatalf("workers=%d: solid volume labelling wrong: %+v", workers, res.Objects)
		}
		parallel.SetWorkers(prev)
	}
}

// TestLabelFromBitsMatchesFromMask: a packed mask labelled where it lies
// (FromBits) gives the labels and objects of the same mask as floats
// (FromMask), and both give the serial reference's, at every connectivity
// and worker count, for solid, empty and random volumes. Every result is
// released before the next labelling, so — the package runs poisoned — each
// call borrows a label array and union-find tables full of NaN bits and a
// voxel the scan left unwritten would surface as label 0x7fc00000.
func TestLabelFromBitsMatchesFromMask(t *testing.T) {
	const T, H, W = 6, 11, 13 // 858 voxels: the packed form ends mid-byte
	solid := NewVolume(T, H, W)
	for i := range solid.Data {
		solid.Data[i] = 1
	}
	volumes := map[string]*Volume{
		"solid":  solid,
		"empty":  NewVolume(T, H, W),
		"sparse": randomMask(5, T, H, W, 0.08),
		"dense":  randomMask(6, T, H, W, 0.45),
	}
	for name, v := range volumes {
		packed := FromBits(T, H, W, v.packed())
		for i := range v.Data {
			if x, y, tt := i%W, i/W%H, i/(W*H); packed.At(tt, y, x) != v.At(tt, y, x) {
				t.Fatalf("%s: packed voxel %d reads %v, float voxel %v", name, i, packed.At(tt, y, x), v.At(tt, y, x))
			}
		}
		for _, conn := range []Connectivity{Conn6, Conn26} {
			want := labelSerialReference(v, conn, 2)
			for _, workers := range []int{1, 2, 8} {
				t.Run(fmt.Sprintf("%s/conn=%d/workers=%d", name, conn, workers), func(t *testing.T) {
					defer parallel.SetWorkers(parallel.SetWorkers(workers))
					for _, in := range []*Volume{packed, FromMask(T, H, W, v.Data), packed} {
						got := Label(in, conn, 2)
						requireSameResult(t, got, want)
						got.Release()
						if got.Labels != nil || len(got.Objects) != len(want.Objects) {
							t.Fatal("Release must detach Labels and keep Objects")
						}
					}
				})
			}
		}
	}
}
