// Package connect implements the CONNECT algorithm (Sellars et al., 2013,
// 2017): the paper's baseline for earth-science object segmentation. CONNECT
// thresholds a geophysical field (here IVT), labels the resulting binary
// voxels into CONNected objECTs across both space and time (x, y, t), and
// tracks each object's full life cycle — genesis, pathway, and termination.
// The original ran as MATLAB functions on a single CPU; this is a from-
// scratch Go implementation using union-find, serving both as the accuracy
// reference for the FFN and as the single-CPU baseline in the scaling
// benches.
//
// The scan is bit-native: a binary volume is one bit per voxel, LSB-first —
// the dataset codec's mask payload — and the one raster loop (labelSlab)
// tests bits. A stored mask is labelled straight from its packed bytes
// (FromBits); a float32 mask (FromMask) is packed at the start of the
// LabelCtx call, 1/32 of its size, and never read again. The label array
// and the union-find tables, the only buffers sized by the volume, are
// borrowed from the tensor free list; everything else a labelling works in
// or returns — the packed bits, the statistics, the objects and their
// pathways — lives in a pooled labelScratch that Result.Release hands back.
package connect

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"chaseci/internal/parallel"
	"chaseci/internal/tensor"
)

// Volume is a binary (T, H, W) mask: time-major, matching ffn.Volume layout.
// It holds either float32 voxels in Data (set means > 0.5) or, from
// FromBits, a packed bitset and no Data.
type Volume struct {
	T, H, W int
	Data    []float32

	bits []byte // FromBits only: 1 bit per voxel, LSB-first, read-only
}

func bitSet(bits []byte, i int) bool { return bits[i>>3]&(1<<(i&7)) != 0 }

// packMask packs a float mask's > 0.5 voxels into a bitset, reusing buf's
// array when it is large enough.
func packMask(buf []byte, data []float32) []byte {
	bits := slices.Grow(buf[:0], (len(data)+7)/8)[:(len(data)+7)/8]
	clear(bits)
	for i, x := range data {
		if x > 0.5 {
			bits[i>>3] |= 1 << (i & 7)
		}
	}
	return bits
}

// Connectivity selects the neighborhood used to join voxels.
type Connectivity int

const (
	// Conn6 joins face neighbors only (±x, ±y, ±t).
	Conn6 Connectivity = 6
	// Conn26 joins all voxels in the 3x3x3 neighborhood, the CONNECT
	// default: objects stay linked across diagonal motion between frames.
	Conn26 Connectivity = 26
)

// Object is one tracked connected object with life-cycle statistics.
type Object struct {
	ID     int
	Voxels int
	// Genesis and Termination are the first and last time steps the object
	// exists.
	Genesis, Termination int
	// Pathway holds the per-step centroid (y, x) from genesis to
	// termination; steps where the object momentarily vanishes under Conn26
	// linking keep the previous centroid.
	Pathway [][2]float64
	// PeakArea is the largest single-step voxel count.
	PeakArea int
	// BBox is the object's bounding box: [t0, t1, y0, y1, x0, x1].
	BBox [6]int
}

// Duration returns the object's lifetime in steps (inclusive).
func (o *Object) Duration() int { return o.Termination - o.Genesis + 1 }

// Result is a labelled volume plus per-object statistics.
type Result struct {
	Labels  []int32 // same layout as the input volume; 0 = background
	Objects []*Object
	T, H, W int

	scratch *labelScratch // where the objects and their pathways live
}

// Release gives Labels — the one buffer of a Result sized by the volume — to
// the tensor free list and the objects' storage back to the next labelling.
// Labels is detached and every Objects entry set to nil (the slice keeps its
// length), so a use after release fails loudly: read what the objects say
// first. It is optional: a Result that is never released is ordinary
// garbage.
func (r *Result) Release() {
	tensor.PutInt32s(r.Labels)
	r.Labels = nil
	clear(r.Objects)
	if r.scratch != nil {
		r.scratch.release()
		r.scratch = nil
	}
}

// unionFind is a weighted quick-union with path compression.
type unionFind struct {
	parent []int32
	size   []int32
}

func (uf *unionFind) find(x int32) int32 {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]] // path halving
		x = uf.parent[x]
	}
	return x
}

func (uf *unionFind) union(a, b int32) {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return
	}
	if uf.size[ra] < uf.size[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	uf.size[ra] += uf.size[rb]
}

// labelSlab assigns provisional labels to time slab [t0, t1) with a
// Rosenfeld-style raster scan: each set voxel adopts the label of any
// already-labelled backward neighbor inside the slab, allocating a fresh
// label when it has none and uniting labels only when two distinct ones
// meet. Labels are allocated from the slab-private range starting at
// nextLabel (uf entries are initialized lazily on allocation), so slabs
// touch disjoint label ranges and disjoint regions of the labels array —
// which is what makes the slab pass safe to run in parallel. Neighbor pairs
// reaching back into t0-1 are left to the caller's boundary stitch. Returns
// one past the last label allocated.
//
// labels arrives dirty (borrowed): the scan writes every voxel of the slab,
// zero for an unset one, and only ever reads labels it has already written.
func labelSlab(ctx context.Context, bits []byte, H, W int, uf *unionFind, labels []int32, conn Connectivity, t0, t1 int, nextLabel int32, tick func()) int32 {
	for t := t0; t < t1; t++ {
		// Cooperative cancellation, checked once per time step: the caller
		// discards everything when the context is cancelled, so the slab
		// can stop with labels half-assigned.
		if ctx.Err() != nil {
			return nextLabel
		}
		withPrevT := t > t0 // t-1 pairs at the slab start are stitched later
		for y := 0; y < H; y++ {
			rowBase := (t*H + y) * W
			curLbl := labels[rowBase:][:W]
			// Backward neighbor rows: (t, y-1), and for Conn26 also
			// (t-1, y-1), (t-1, y), (t-1, y+1). For Conn6 the only
			// off-row neighbors are (t, y-1, x) and (t-1, y, x).
			var nbr [4][]int32
			nRows := 0
			diag := conn == Conn26
			if y > 0 {
				nbr[nRows] = labels[rowBase-W:][:W]
				nRows++
			}
			if withPrevT {
				pBase := ((t-1)*H + y) * W
				if diag && y > 0 {
					nbr[nRows] = labels[pBase-W:][:W]
					nRows++
				}
				nbr[nRows] = labels[pBase:][:W]
				nRows++
				if diag && y < H-1 {
					nbr[nRows] = labels[pBase+W:][:W]
					nRows++
				}
			}
			for x := 0; x < W; x++ {
				if !bitSet(bits, rowBase+x) {
					curLbl[x] = 0
					continue
				}
				var lbl int32
				if x > 0 {
					lbl = curLbl[x-1]
				}
				if diag {
					// Center-first: horizontally adjacent set voxels in any
					// one row are already left-linked, so when the center
					// probe hits, its side neighbors carry the same
					// component and need no probe.
					for r := 0; r < nRows; r++ {
						row := nbr[r]
						if l := row[x]; l != 0 {
							if lbl == 0 {
								lbl = l
							} else if l != lbl {
								uf.union(lbl, l)
							}
							continue
						}
						if x > 0 {
							if l := row[x-1]; l != 0 {
								if lbl == 0 {
									lbl = l
								} else if l != lbl {
									uf.union(lbl, l)
								}
							}
						}
						if x < W-1 {
							if l := row[x+1]; l != 0 {
								if lbl == 0 {
									lbl = l
								} else if l != lbl {
									uf.union(lbl, l)
								}
							}
						}
					}
				} else {
					for r := 0; r < nRows; r++ {
						if l := nbr[r][x]; l != 0 {
							if lbl == 0 {
								lbl = l
							} else if l != lbl {
								uf.union(lbl, l)
							}
						}
					}
				}
				if lbl == 0 {
					lbl = nextLabel
					uf.parent[lbl] = lbl
					uf.size[lbl] = 1
					nextLabel++
				}
				curLbl[x] = lbl
			}
		}
		if tick != nil {
			tick()
		}
	}
	return nextLabel
}

// labelAcc accumulates one object's statistics. The per-step centroid sums
// run for the object's latest step (termination) only: when the scan
// reaches a later step of the object, the finished one is closed into a
// stepSum record, and the object's records chain in step order from first.
type labelAcc struct {
	voxels               int
	genesis, termination int
	bbox                 [6]int
	count                int32 // voxels at termination so far
	sumY, sumX           float64
	first, last          int32 // the object's stepSum records, -1 for none
}

// stepSum is one closed step of one object: its voxel count and centroid
// sums, and the index of the object's next record (-1 at its last).
type stepSum struct {
	t, count, next int32
	sumY, sumX     float64
}

// closeStep records the running step and clears the sums for the next one.
func (a *labelAcc) closeStep(steps []stepSum) []stepSum {
	i := int32(len(steps))
	if a.last >= 0 {
		steps[a.last].next = i
	} else {
		a.first = i
	}
	a.last = i
	steps = append(steps, stepSum{t: int32(a.termination), count: a.count, next: -1, sumY: a.sumY, sumX: a.sumX})
	a.count, a.sumY, a.sumX = 0, 0, 0
	return steps
}

// labelScratch is what one labelling works in beyond the label array and
// the union-find tables: the pass-1 task's parameters, the slab label
// ranges, a float volume's packed bits, the statistics, and the storage the
// result's objects and pathways live in. LabelCtx takes one from
// labelScratches and the Result's Release gives it back, arrays kept.
type labelScratch struct {
	ctx      context.Context
	bits     []byte
	labels   []int32
	uf       unionFind
	conn     Connectivity
	t, h, w  int
	slabs    int     // slab k is parallel.Chunk(t, slabs, k)
	starts   []int32 // slab k draws label ids from [starts[k], starts[k+1])
	progress func(done, total int)
	done     atomic.Int64

	packed []byte
	accs   []labelAcc
	steps  []stepSum
	objs   []Object
	path   [][2]float64
}

var labelScratches = sync.Pool{New: func() any { return new(labelScratch) }}

// release drops the references into the caller's volume and context and
// pools the scratch.
func (sc *labelScratch) release() {
	sc.ctx, sc.bits, sc.labels, sc.uf, sc.progress = nil, nil, nil, unionFind{}, nil
	labelScratches.Put(sc)
}

// Run is pass 1 over slabs [s0, s1): the parallel.Task LabelCtx invokes.
func (sc *labelScratch) Run(s0, s1 int) {
	var tick func()
	if sc.progress != nil {
		tick = sc.tick
	}
	for k := s0; k < s1; k++ {
		t0, t1 := parallel.Chunk(sc.t, sc.slabs, k)
		labelSlab(sc.ctx, sc.bits, sc.h, sc.w, &sc.uf, sc.labels, sc.conn, t0, t1, sc.starts[k], tick)
	}
}

func (sc *labelScratch) tick() { sc.progress(int(sc.done.Add(1)), sc.t) }

// LabelCtx performs connected-object labelling on a binary volume. minVoxels
// discards objects smaller than the threshold (CONNECT prunes noise
// objects); 0 keeps everything.
//
// The union pass is a two-pass block-parallel union-find: the time axis is
// split into slabs whose internal unions run concurrently (backward-looking
// offsets keep each slab's parent entries disjoint), then the slab
// boundaries are stitched serially. Components — and therefore labels,
// objects, and statistics — are identical at every worker count.
//
// Cancellation is checked once per time step inside the parallel slab
// scan, between passes, and per time step of the statistics pass, so a
// cancelled context stops the labelling within one time slice of work per
// worker. On cancellation it returns (nil, ctx.Err()) — provisional labels
// are meaningless half-done, so partial progress is reported only through
// the callback. progress (may be nil) is called with (timeStepsLabelled,
// v.T) as pass-1 slabs complete time steps; it may fire concurrently from
// multiple workers.
//
// Beyond the Result and its Objects slice, a labelling whose last result
// was released allocates nothing: see labelScratch.
func LabelCtx(ctx context.Context, v *Volume, conn Connectivity, minVoxels int, progress func(done, total int)) (*Result, error) {
	if conn != Conn6 && conn != Conn26 {
		panic(fmt.Sprintf("connect: unsupported connectivity %d", conn))
	}
	n := v.T * v.H * v.W
	sc := labelScratches.Get().(*labelScratch)
	bits := v.bits
	if bits == nil {
		sc.packed = packMask(sc.packed, v.Data)
		bits = sc.packed
	}
	// Borrowed dirty: pass 1 writes every voxel's label, set or not.
	labels := tensor.GetInt32s(n) // provisional label ids until the final remap
	res := &Result{Labels: labels, T: v.T, H: v.H, W: v.W, scratch: sc}
	// cancelled gives the half-assigned labels and the scratch back.
	cancelled := func(err error) (*Result, error) { res.Release(); return nil, err }

	// Pass 1: parallel per-slab provisional labelling. Each slab draws
	// label ids from its own range [starts[k], starts[k+1]): a fresh label
	// is only needed where the left neighbor is unset, so a row uses at
	// most ceil(W/2) labels.
	slabs := parallel.Chunks(v.T)
	perRow := int32((v.W + 1) / 2)
	starts := append(sc.starts[:0], 1) // 0 is background
	for k := 0; k < slabs; k++ {
		t0, t1 := parallel.Chunk(v.T, slabs, k)
		starts = append(starts, starts[k]+int32(t1-t0)*int32(v.H)*perRow)
	}
	// Union-find state and the root compaction table, one entry per label
	// id. parent/size are initialized lazily as labels are allocated, so
	// only the compaction table needs clearing.
	ids := int(starts[slabs])
	uf := unionFind{parent: tensor.GetInt32s(ids), size: tensor.GetInt32s(ids)}
	rootSlot := tensor.GetInt32s(ids) // 0 = unseen, else slot+1
	clear(rootSlot)
	defer tensor.PutInt32s(uf.parent)
	defer tensor.PutInt32s(uf.size)
	defer tensor.PutInt32s(rootSlot)
	sc.ctx, sc.bits, sc.labels, sc.uf, sc.conn = ctx, bits, labels, uf, conn
	sc.t, sc.h, sc.w, sc.slabs, sc.starts = v.T, v.H, v.W, slabs, starts
	sc.progress = progress
	sc.done.Store(0)
	parallel.Invoke(slabs, sc)
	if err := ctx.Err(); err != nil {
		return cancelled(err)
	}

	// Pass 2: serial boundary stitch — unite labels across each slab's
	// first time step and the step before it. A voxel is set iff its
	// provisional label is nonzero, so the stitch reads only labels.
	H, W := v.H, v.W
	for k := 1; k < slabs; k++ {
		if err := ctx.Err(); err != nil {
			return cancelled(err)
		}
		t, _ := parallel.Chunk(v.T, slabs, k)
		for y := 0; y < H; y++ {
			rowBase := (t*H + y) * W
			cur := labels[rowBase:][:W]
			var nbr [3][]int32
			nRows := 0
			if conn == Conn26 {
				for ny := y - 1; ny <= y+1; ny++ {
					if ny >= 0 && ny < H {
						nbr[nRows] = labels[((t-1)*H+ny)*W:][:W]
						nRows++
					}
				}
			} else {
				nbr[nRows] = labels[((t-1)*H+y)*W:][:W]
				nRows++
			}
			for x := 0; x < W; x++ {
				l1 := cur[x]
				if l1 == 0 {
					continue
				}
				if conn == Conn6 {
					if l2 := nbr[0][x]; l2 != 0 && l2 != l1 {
						uf.union(l1, l2)
					}
					continue
				}
				for r := 0; r < nRows; r++ {
					row := nbr[r]
					if l2 := row[x]; l2 != 0 {
						if l2 != l1 {
							uf.union(l1, l2)
						}
						continue // sides are already united with the center
					}
					if x > 0 {
						if l2 := row[x-1]; l2 != 0 && l2 != l1 {
							uf.union(l1, l2)
						}
					}
					if x < W-1 {
						if l2 := row[x+1]; l2 != 0 && l2 != l1 {
							uf.union(l1, l2)
						}
					}
				}
			}
		}
	}

	// Stats pass: compact label roots to dense slots in scan order (first
	// voxel encountered — deterministic regardless of union order and
	// worker count) and accumulate per-object statistics. Labels
	// temporarily hold slot ids.
	accs, steps := sc.accs[:0], sc.steps[:0]
	for t := 0; t < v.T; t++ {
		if err := ctx.Err(); err != nil {
			return cancelled(err)
		}
		for y := 0; y < v.H; y++ {
			rowBase := (t*v.H + y) * v.W
			for x := 0; x < v.W; x++ {
				i := rowBase + x
				l := labels[i]
				if l == 0 {
					continue
				}
				// rootSlot memoizes the component slot for every label id
				// (root or not), so most voxels resolve with one load.
				slot := rootSlot[l]
				if slot == 0 {
					root := uf.find(l)
					slot = rootSlot[root]
					if slot == 0 {
						accs = append(accs, labelAcc{
							genesis: t, termination: t,
							bbox:  [6]int{t, t, y, y, x, x},
							first: -1, last: -1,
						})
						slot = int32(len(accs))
						rootSlot[root] = slot
					}
					rootSlot[l] = slot
				}
				a := &accs[slot-1]
				a.voxels++
				if t > a.termination {
					steps = a.closeStep(steps)
					a.termination = t
				}
				a.bbox[0] = min(a.bbox[0], t)
				a.bbox[1] = max(a.bbox[1], t)
				a.bbox[2] = min(a.bbox[2], y)
				a.bbox[3] = max(a.bbox[3], y)
				a.bbox[4] = min(a.bbox[4], x)
				a.bbox[5] = max(a.bbox[5], x)
				a.count++
				a.sumY += float64(y)
				a.sumX += float64(x)
				res.Labels[i] = slot
			}
		}
	}
	for i := range accs {
		steps = accs[i].closeStep(steps)
	}
	sc.accs, sc.steps = accs, steps

	// Deterministic ordering: by genesis, then size desc, then bbox. Every
	// component took at least one label id, so the union-find tables — dead
	// past the stats pass — have room for the order and the slot -> ID map.
	order := uf.size[:len(accs)]
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortStableFunc(order, func(i, j int32) int {
		a, b := &accs[i], &accs[j]
		switch {
		case a.genesis != b.genesis:
			return cmp.Compare(a.genesis, b.genesis)
		case a.voxels != b.voxels:
			return cmp.Compare(b.voxels, a.voxels)
		case lessBBox(a.bbox, b.bbox):
			return -1
		case a.bbox != b.bbox:
			return 1
		}
		return 0
	})

	// Assign final IDs (0 drops the object), then build the Object records
	// and their pathways in storage sized for the kept objects.
	slotID := rootSlot[:len(accs)+1]
	clear(slotID)
	kept, pathLen := 0, 0
	for _, slot := range order {
		if a := &accs[slot]; a.voxels >= minVoxels {
			kept++
			slotID[slot+1] = int32(kept)
			pathLen += a.termination - a.genesis + 1
		}
	}
	if kept > 0 {
		sc.objs = slices.Grow(sc.objs[:0], kept)[:kept]
		sc.path = slices.Grow(sc.path[:0], pathLen)[:pathLen]
		res.Objects = make([]*Object, 0, kept)
	}
	path := sc.path
	for _, slot := range order {
		a := &accs[slot]
		id := slotID[slot+1]
		if id == 0 {
			continue
		}
		n := a.termination - a.genesis + 1
		obj := &sc.objs[id-1]
		*obj = Object{
			ID:      int(id),
			Voxels:  a.voxels,
			Genesis: a.genesis, Termination: a.termination,
			Pathway: path[:n:n],
			BBox:    a.bbox,
		}
		path = path[n:]
		var lastY, lastX float64
		s := a.first
		for t := a.genesis; t <= a.termination; t++ {
			if s >= 0 && int(steps[s].t) == t {
				st := &steps[s]
				lastY = st.sumY / float64(st.count)
				lastX = st.sumX / float64(st.count)
				obj.PeakArea = max(obj.PeakArea, int(st.count))
				s = st.next
			}
			obj.Pathway[t-a.genesis] = [2]float64{lastY, lastX}
		}
		res.Objects = append(res.Objects, obj)
	}

	// Remap temporary slots to final IDs.
	for i, slot := range res.Labels {
		if slot != 0 {
			res.Labels[i] = slotID[slot]
		}
	}
	return res, nil
}

func lessBBox(a, b [6]int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// FromMask adapts any float32 time-major mask (e.g. an ffn.Volume or a
// thresholded merra volume) into a connect.Volume without copying; voxels
// > 0.5 are set.
func FromMask(t, h, w int, data []float32) *Volume {
	if len(data) != t*h*w {
		panic("connect: FromMask dimension mismatch")
	}
	return &Volume{T: t, H: h, W: w, Data: data}
}

// FromBits views a packed time-major mask — 1 bit per voxel, LSB-first, the
// dataset codec's mask payload — as a connect.Volume without copying or
// expanding it. bits is only read.
func FromBits(t, h, w int, bits []byte) *Volume {
	if len(bits) != (t*h*w+7)/8 {
		panic("connect: FromBits dimension mismatch")
	}
	return &Volume{T: t, H: h, W: w, bits: bits}
}

// Stats summarizes a labelling for reports.
type Stats struct {
	Objects      int
	TotalVoxels  int
	MeanDuration float64
	MaxDuration  int
	MeanVoxels   float64
}

// Summarize computes aggregate statistics of a result.
func Summarize(r *Result) Stats {
	s := Stats{Objects: len(r.Objects)}
	for _, o := range r.Objects {
		s.TotalVoxels += o.Voxels
		s.MeanDuration += float64(o.Duration())
		s.MeanVoxels += float64(o.Voxels)
		if o.Duration() > s.MaxDuration {
			s.MaxDuration = o.Duration()
		}
	}
	if len(r.Objects) > 0 {
		s.MeanDuration /= float64(len(r.Objects))
		s.MeanVoxels /= float64(len(r.Objects))
	}
	return s
}
