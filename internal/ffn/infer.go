package ffn

import (
	"context"
	"math"
	"sync/atomic"

	"chaseci/internal/parallel"
	"chaseci/internal/tensor"
)

// Volume is a simple (D, H, W) float32 volume used for whole-dataset images,
// label masks, and inference canvases. D is the time axis for the IVT
// workload.
type Volume struct {
	D, H, W int
	Data    []float32
}

// NewVolume allocates a zero volume.
func NewVolume(d, h, w int) *Volume {
	return &Volume{D: d, H: h, W: w, Data: make([]float32, d*h*w)}
}

// At returns the voxel at (z, y, x).
func (v *Volume) At(z, y, x int) float32 { return v.Data[(z*v.H+y)*v.W+x] }

// Set writes the voxel at (z, y, x).
func (v *Volume) Set(z, y, x int, val float32) { v.Data[(z*v.H+y)*v.W+x] = val }

// Size returns the voxel count.
func (v *Volume) Size() int { return v.D * v.H * v.W }

// BorrowVolume returns a volume whose backing array comes from the shared
// float free list (tensor.GetFloats), contents unspecified: the caller
// overwrites every voxel.
func BorrowVolume(d, h, w int) *Volume {
	return &Volume{D: d, H: h, W: w, Data: tensor.GetFloats(d * h * w)}
}

// ReleaseVolume gives a volume's backing array to the free list and
// detaches it, so a use after release fails loudly. It is optional: a
// volume that is never released is ordinary garbage. The caller must own v
// outright — a BorrowVolume or NewVolume result, or a SegmentCtx mask — and
// never a view (Split) or a borrowed source such as a dataset blob.
func ReleaseVolume(v *Volume) {
	if v == nil {
		return
	}
	tensor.PutFloats(v.Data)
	v.Data = nil
}

// Normalize scales the volume to zero mean, unit variance in place and
// returns it (standard FFN input conditioning).
func (v *Volume) Normalize() *Volume { return v.NormalizeInto(v) }

// NormalizeInto writes the zero-mean, unit-variance scaling of v into dst
// (same geometry) and returns dst, leaving v untouched — how a handler
// conditions a source it only borrows. The arithmetic per element is
// Normalize's, so the two are bit-identical.
func (v *Volume) NormalizeInto(dst *Volume) *Volume {
	if len(dst.Data) != len(v.Data) {
		panic("ffn: NormalizeInto size mismatch")
	}
	n := float64(len(v.Data))
	if n == 0 {
		return dst
	}
	var sum, sumsq float64
	for _, x := range v.Data {
		sum += float64(x)
		sumsq += float64(x) * float64(x)
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	std := 1.0
	if variance > 1e-12 {
		std = math.Sqrt(variance)
	}
	for i, x := range v.Data {
		dst.Data[i] = float32((float64(x) - mean) / std)
	}
	return dst
}

// extractFOVInto copies the FOV centered at (cz, cy, cx) into the caller's
// (1,D,H,W) tensor, allocating nothing. The center must be in-bounds for the
// full FOV.
func extractFOVInto(out *tensor.Tensor, v *Volume, fov [3]int, cz, cy, cx int) {
	extractFOVIntoSlice(out.Data, v, fov, cz, cy, cx)
}

// extractFOVIntoSlice copies the FOV centered at (cz, cy, cx) into dst
// (row-major (D,H,W) layout) — the shared core of the tensor-target and
// batched-slot extract paths.
func extractFOVIntoSlice(dst []float32, v *Volume, fov [3]int, cz, cy, cx int) {
	d, h, w := fov[0], fov[1], fov[2]
	z0, y0, x0 := cz-d/2, cy-h/2, cx-w/2
	i := 0
	for z := 0; z < d; z++ {
		for y := 0; y < h; y++ {
			base := ((z0+z)*v.H + y0 + y) * v.W
			copy(dst[i:i+w], v.Data[base+x0:base+x0+w])
			i += w
		}
	}
}

// InferenceStats summarizes one flood-fill run.
type InferenceStats struct {
	Steps       int // network applications
	Moves       int // FOV relocations enqueued
	MaskVoxels  int // voxels above SegmentProb in the final mask
	SeedsUsed   int
	VoxelsTotal int
}

// mergeCore max-merges the core box (Config.floodReads) of an output FOV
// centered at p into canvas. Element-wise max is commutative and
// associative, so the merged canvas is independent of application order —
// the property the parallel path relies on for determinism.
func mergeCore(canvas []float32, H, W int, fov [3]int, core fovBox, out []float32, pz, py, px int) {
	z0, y0, x0 := pz-fov[0]/2, py-fov[1]/2, px-fov[2]/2
	for z := core.lo[0]; z < core.hi[0]; z++ {
		for y := core.lo[1]; y < core.hi[1]; y++ {
			base := ((z0+z)*H + y0 + y) * W
			row := out[(z*fov[1]+y)*fov[2]:]
			for x := core.lo[2]; x < core.hi[2]; x++ {
				if v := row[x]; v > canvas[base+x0+x] {
					canvas[base+x0+x] = v
				}
			}
		}
	}
}

type fovPos struct{ z, y, x int }

// fovInBounds reports whether the full FOV centered at (z, y, x) fits
// inside the volume — the single definition used for seed acceptance and
// flood expansion alike.
func (cfg *Config) fovInBounds(v *Volume, z, y, x int) bool {
	return z-cfg.FOV[0]/2 >= 0 && z+cfg.FOV[0]/2 < v.D &&
		y-cfg.FOV[1]/2 >= 0 && y+cfg.FOV[1]/2 < v.H &&
		x-cfg.FOV[2]/2 >= 0 && x+cfg.FOV[2]/2 < v.W
}

// Segment runs flood-filling inference over an image volume. Seeds are
// (z, y, x) starting points (typically local IVT maxima); each flood fills
// outward until no face of the FOV exceeds MoveProb. maxSteps bounds total
// network applications (0 means no bound). The result is a binary mask
// volume and run statistics.
//
// Every call runs the one batched flood loop (flood) over one frontier of
// claimed, not yet expanded FOV centers. A budget keeps it on one lane,
// applying the oldest queued centers first, so which applications spend the
// budget does not depend on the worker count. Without a budget and with
// more than one worker (parallel.Workers()) the flood runs on
// parallel.Chunks(seeds) lanes that all take their batches from the shared
// frontier and give the centers they claim back to it — so the lanes stay
// busy together however unevenly the seeds' floods turn out, merging into
// one another as they do. Lanes claim FOV centers through a shared atomic
// visited set (each center is expanded exactly once) and merge into
// lane-private canvases that are max-reduced afterwards. Because each
// application's output depends only on the image and the center — never on
// the canvas, the lane or the schedule — the mask and statistics are
// identical at every worker count.
func (n *Network) Segment(image *Volume, seeds [][3]int, maxSteps int) (*Volume, InferenceStats) {
	mask, stats, _ := n.SegmentCtx(context.Background(), image, seeds, maxSteps, nil)
	return mask, stats
}

// visitedSet is the flood's claimed-center set, one bit per voxel. The
// flood claims through the atomic or; seed acceptance, alone on the set
// before any fan-out, uses the plain one.
type visitedSet []uint32

// borrowVisited borrows a cleared set for n voxels from the free list.
func borrowVisited(n int) visitedSet {
	v := visitedSet(tensor.GetWords((n + 31) / 32))
	clear(v)
	return v
}

func (v visitedSet) release() { tensor.PutWords(v) }

// claim marks key and reports whether this call was the one to mark it.
func (v visitedSet) claim(key int) bool {
	bit := uint32(1) << (key & 31)
	if v[key>>5]&bit != 0 {
		return false
	}
	v[key>>5] |= bit
	return true
}

// claimAtomic is claim for the flood, which may share the set across
// goroutines. It is a load and a compare-and-swap rather than one
// atomic.OrUint32: go1.24.0 miscompiled the value-returning Or where this
// inlined into frontier_test's lane loop (the Or's old word was left in the
// register holding a live slice pointer, and the next load through it
// faulted), and an already claimed center — most moves — now costs no
// locked instruction at all.
func (v visitedSet) claimAtomic(key int) bool {
	w, bit := &v[key>>5], uint32(1)<<(key&31)
	for {
		old := atomic.LoadUint32(w)
		if old&bit != 0 {
			return false
		}
		if atomic.CompareAndSwapUint32(w, old, old|bit) {
			return true
		}
	}
}

// floodProgress counts network applications across all flood lanes and
// fires the user callback every progressEvery applications. A nil
// *floodProgress disables both, costing the flood loop nothing.
type floodProgress struct {
	steps atomic.Int64
	fn    func(steps int)
}

// progressEvery is the callback cadence in network applications; a power of
// two so the hot-loop check is a mask.
const progressEvery = 32

func (p *floodProgress) bump() {
	if p == nil {
		return
	}
	if n := p.steps.Add(1); n&(progressEvery-1) == 0 {
		p.fn(int(n))
	}
}

// SegmentCtx is the context-aware Segment: cancellation is checked before
// every batch on every lane, so a cancelled context stops the run within one
// FOV batch (DefaultFloodBatch applications) per lane.
// On cancellation the partial canvas is still thresholded and returned with
// the statistics accumulated so far and ctx.Err(). progress (may be nil) is
// called with the running application count every progressEvery
// applications; under the multi-lane flood it fires concurrently from
// several lanes, so the callback must be safe for concurrent use. A panic on
// a lane (progress is the caller's code) ends the flood and is re-raised
// here once every lane has stopped. With a background context the mask and
// statistics are identical to Segment's.
//
// image is only read. The whole-volume working arrays (visited bitset,
// canvas, per-lane canvases) come from the shared free list, and the
// returned mask is the canvas thresholded in place: a caller done with it
// may ReleaseVolume it, one that is not simply keeps it.
func (n *Network) SegmentCtx(ctx context.Context, image *Volume, seeds [][3]int, maxSteps int, progress func(steps int)) (*Volume, InferenceStats, error) {
	cfg := n.cfg
	stats := InferenceStats{VoxelsTotal: image.Size()}
	keyOf := func(z, y, x int) int { return (z*image.H+y)*image.W + x }
	var prog *floodProgress
	if progress != nil {
		prog = &floodProgress{fn: progress}
	}

	// Accept in-bounds, deduplicated seeds; claimed doubles as the visited
	// set for the flood (set = already claimed by some flood).
	claimed := borrowVisited(image.Size())
	defer claimed.release()
	var accepted []fovPos
	for _, s := range seeds {
		if cfg.fovInBounds(image, s[0], s[1], s[2]) && claimed.claim(keyOf(s[0], s[1], s[2])) {
			accepted = append(accepted, fovPos{s[0], s[1], s[2]})
			stats.SeedsUsed++
		}
	}

	moveLogit := logit(cfg.MoveProb)
	padLogit := logit(cfg.PadProb)
	seedLogit := logit(cfg.SeedProb)

	// What the flood lanes share read-only is ready before any fan-out: an
	// f32 flood's plan (lane weights and read spans), built here and
	// released when the flood ends, or an int8 network's quantized weights.
	// Those come with the network; only a training step drops them, on a
	// network its trainer's owner floods alone, so they are rebuilt here.
	var plan floodPlan
	if n.int8Inference() {
		if n.qn == nil {
			n.qn = n.quantize()
		}
	} else {
		plan = n.newFloodPlan()
		defer plan.release()
	}

	// The canvas is borrowed, and becomes the returned mask: the caller may
	// hand it back with ReleaseVolume.
	canvas := BorrowVolume(image.D, image.H, image.W)
	fill(canvas.Data, padLogit)
	for _, s := range accepted {
		canvas.Data[keyOf(s.z, s.y, s.x)] = seedLogit
	}

	lanes := parallel.Chunks(len(accepted))
	if maxSteps > 0 {
		lanes = 1
	}
	fr := newFrontier(accepted, lanes, maxSteps > 0)
	if lanes <= 1 {
		n.flood(ctx, image, fr, claimed, canvas.Data, plan, moveLogit, maxSteps, &stats, prog)
	} else {
		// Lane-private canvases, max-reduced in lane order afterwards (order
		// is irrelevant for max, but keep it fixed anyway) and returned to
		// the free list as soon as they are folded in.
		canvases := make([][]float32, lanes)
		laneStats := make([]InferenceStats, lanes)
		parallel.For(lanes, func(k0, k1 int) {
			defer fr.recoverLane()
			for k := k0; k < k1; k++ {
				wc := tensor.GetFloats(image.Size())
				fill(wc, padLogit)
				canvases[k] = wc
				n.flood(ctx, image, fr, claimed, wc, plan, moveLogit, 0, &laneStats[k], prog)
			}
		})
		fr.reraise()
		for k, wc := range canvases {
			for i, v := range wc {
				if v > canvas.Data[i] {
					canvas.Data[i] = v
				}
			}
			tensor.PutFloats(wc)
			stats.Steps += laneStats[k].Steps
			stats.Moves += laneStats[k].Moves
		}
	}

	// Report the final application count: the every-N cadence above skips
	// the tail (and short floods entirely), and the terminal progress
	// should agree with the returned statistics.
	if prog != nil {
		progress(int(prog.steps.Load()))
	}

	// Threshold the canvas in place into the binary mask. On cancellation
	// this reports the partial flood: whatever cores were merged before the
	// stop.
	segLogit := logit(cfg.SegmentProb)
	for i, v := range canvas.Data {
		if v >= segLogit {
			canvas.Data[i] = 1
			stats.MaskVoxels++
		} else {
			canvas.Data[i] = 0
		}
	}
	return canvas, stats, ctx.Err()
}

func fill(b []float32, v float32) {
	for i := range b {
		b[i] = v
	}
}

// moveOffsets returns the six move displacements, center +/- MoveStep along
// each axis: a move goes to center + offset, and the logit at that position
// of the FOV decides it. Those targets need not lie in the merged core (see
// floodReads).
func (cfg *Config) moveOffsets() [6][3]int {
	return [6][3]int{
		{-cfg.MoveStep[0], 0, 0}, {cfg.MoveStep[0], 0, 0},
		{0, -cfg.MoveStep[1], 0}, {0, cfg.MoveStep[1], 0},
		{0, 0, -cfg.MoveStep[2]}, {0, 0, cfg.MoveStep[2]},
	}
}

// fovBox is a box of FOV positions, lo <= p < hi on each axis.
type fovBox struct{ lo, hi [3]int }

// floodReads is everything a flood reads of one application's logits, and
// so all the f32 engine computes of them (readSpans): the core box that
// mergeCore max-merges into the canvas, and the six move targets (FOV
// coordinates, in moveOffsets order). The core is the FOV less a quarter of
// each side: zero-padded convolution borders make edge predictions
// unreliable, and strong object evidence should accumulate rather than
// saturate across overlapping applications. The targets may sit outside
// it: at the default FOV (5, 9, 9) and MoveStep (1, 3, 3) the core is
// z in [1, 4), y and x in [2, 7), and four targets sit on rows or columns 1
// and 7 — 79 logits in all, of 405.
func (cfg *Config) floodReads() (core fovBox, moves [6][3]int) {
	for i, d := range cfg.FOV {
		core.lo[i], core.hi[i] = d/4, d-d/4
	}
	for i, off := range cfg.moveOffsets() {
		for a := range off {
			moves[i][a] = cfg.FOV[a]/2 + off[a]
		}
	}
	return core, moves
}

// GridSeeds produces seed positions on a regular lattice wherever the image
// exceeds threshold — the seed policy used when no object detector is
// available.
func GridSeeds(image *Volume, fov [3]int, stride [3]int, threshold float32) [][3]int {
	var out [][3]int
	for z := fov[0] / 2; z+fov[0]/2 < image.D; z += stride[0] {
		for y := fov[1] / 2; y+fov[1]/2 < image.H; y += stride[1] {
			for x := fov[2] / 2; x+fov[2]/2 < image.W; x += stride[2] {
				if image.At(z, y, x) >= threshold {
					out = append(out, [3]int{z, y, x})
				}
			}
		}
	}
	return out
}
