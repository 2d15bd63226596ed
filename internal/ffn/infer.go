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

// mergeCore max-merges the core of an output FOV centered at p into canvas.
// Only the central core of the FOV is merged: zero-padded convolution
// borders make edge predictions unreliable, and strong object evidence
// should accumulate rather than saturate across overlapping applications.
// Element-wise max is commutative and associative, so the merged canvas is
// independent of application order — the property the parallel path relies
// on for determinism.
func mergeCore(canvas []float32, H, W int, fov [3]int, out []float32, pz, py, px int) {
	mz, my, mx := fov[0]/4, fov[1]/4, fov[2]/4
	z0, y0, x0 := pz-fov[0]/2, py-fov[1]/2, px-fov[2]/2
	for z := mz; z < fov[0]-mz; z++ {
		for y := my; y < fov[1]-my; y++ {
			base := ((z0+z)*H + y0 + y) * W
			row := out[(z*fov[1]+y)*fov[2]:]
			for x := mx; x < fov[2]-mx; x++ {
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
// Every call runs the one batched flood loop (flood). A budget keeps it on
// one goroutine, applying the oldest queued centers first, so which
// applications spend the budget does not depend on the worker count.
// Without a budget and with more than one worker (parallel.Workers()),
// seeds are sharded across workers: floods claim FOV centers through a
// shared atomic visited set (each center is expanded exactly once) and
// merge into worker-private canvases that are max-reduced afterwards.
// Because each application's output depends only on the image and the
// center — never on the canvas — the mask and statistics are identical at
// every worker count.
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
// goroutines.
func (v visitedSet) claimAtomic(key int) bool {
	bit := uint32(1) << (key & 31)
	return atomic.OrUint32(&v[key>>5], bit)&bit == 0
}

// floodProgress counts network applications across all flood workers and
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

// SegmentCtx is the context-aware Segment: cancellation is checked once per
// batch on every path, so a cancelled context stops the run within one FOV
// batch (DefaultFloodBatch applications) per worker.
// On cancellation the partial canvas is still thresholded and returned with
// the statistics accumulated so far and ctx.Err(). progress (may be nil) is
// called with the running application count every progressEvery
// applications; under the sharded flood it fires concurrently from multiple
// workers, so the callback must be safe for concurrent use. With a
// background context the mask and statistics are identical to Segment's.
//
// image is only read. The whole-volume working arrays (visited bitset,
// canvas, per-shard canvases) come from the shared free list, and the
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

	// Build the quantized weight cache before any fan-out: flood workers
	// share it read-only.
	if n.int8Inference() {
		n.quantized()
	}

	// The canvas is borrowed, and becomes the returned mask: the caller may
	// hand it back with ReleaseVolume.
	canvas := BorrowVolume(image.D, image.H, image.W)
	fill(canvas.Data, padLogit)
	for _, s := range accepted {
		canvas.Data[keyOf(s.z, s.y, s.x)] = seedLogit
	}

	shards := parallel.Ranges(len(accepted))
	if maxSteps > 0 || len(shards) <= 1 {
		n.flood(ctx, image, accepted, claimed, canvas.Data, moveLogit, maxSteps, &stats, prog)
	} else {
		// Worker-private canvases, max-reduced in shard order afterwards
		// (order is irrelevant for max, but keep it fixed anyway) and
		// returned to the free list as soon as they are folded in.
		canvases := make([][]float32, len(shards))
		shardStats := make([]InferenceStats, len(shards))
		parallel.For(len(shards), func(s0, s1 int) {
			for k := s0; k < s1; k++ {
				wc := tensor.GetFloats(image.Size())
				fill(wc, padLogit)
				canvases[k] = wc
				n.flood(ctx, image, accepted[shards[k][0]:shards[k][1]], claimed, wc, moveLogit, 0, &shardStats[k], prog)
			}
		})
		for k, wc := range canvases {
			for i, v := range wc {
				if v > canvas.Data[i] {
					canvas.Data[i] = v
				}
			}
			tensor.PutFloats(wc)
			stats.Steps += shardStats[k].Steps
			stats.Moves += shardStats[k].Moves
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

// moveOffsets returns the six move-target displacements (center +/-
// MoveStep along each axis); these sit inside the reliable core of the FOV
// prediction.
func (cfg *Config) moveOffsets() [6][3]int {
	return [6][3]int{
		{-cfg.MoveStep[0], 0, 0}, {cfg.MoveStep[0], 0, 0},
		{0, -cfg.MoveStep[1], 0}, {0, cfg.MoveStep[1], 0},
		{0, 0, -cfg.MoveStep[2]}, {0, 0, cfg.MoveStep[2]},
	}
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
