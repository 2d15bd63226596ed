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

// extractFOV copies the FOV centered at (cz, cy, cx) from a volume into a
// (1,D,H,W) tensor. The center must be in-bounds for the full FOV.
func extractFOV(v *Volume, fov [3]int, cz, cy, cx int) *tensor.Tensor {
	out := tensor.New(1, fov[0], fov[1], fov[2])
	extractFOVInto(out, v, fov, cz, cy, cx)
	return out
}

// extractFOVInto copies the FOV centered at (cz, cy, cx) into the caller's
// (1,D,H,W) tensor, allocating nothing.
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

// inferScratch holds one flood-fill worker's reusable buffers: the FOV
// image extract, the packed 2-channel input, the activation cache, and the
// output logits. One scratch serves one goroutine. Its tensors are borrowed
// from the shared free list and returned by release, so they outlive the
// Network a job built them for.
type inferScratch struct {
	cache *fwdCache
	pom   *tensor.Tensor
	img   *tensor.Tensor // (1,D,H,W) FOV extract
	in    *tensor.Tensor // (2,D,H,W) packed input
	out   *tensor.Tensor // (1,D,H,W) output logits
}

func (n *Network) newInferScratch() *inferScratch {
	d, h, w := n.cfg.FOV[0], n.cfg.FOV[1], n.cfg.FOV[2]
	s := &inferScratch{
		cache: n.newCacheFrom(tensor.Borrow),
		pom:   tensor.Borrow(1, d, h, w),
		img:   tensor.Borrow(1, d, h, w),
		in:    tensor.Borrow(2, d, h, w),
		out:   tensor.Borrow(1, d, h, w),
	}
	n.fillSeedPOM(s.pom.Data)
	return s
}

func (s *inferScratch) release() {
	c := s.cache
	tensor.Release(c.preIn, c.actIn, s.pom, s.img, s.in, s.out)
	tensor.Release(c.modPre1...)
	tensor.Release(c.modAct1...)
	tensor.Release(c.modPre2...)
	tensor.Release(c.modOut...)
}

// applyFOV runs one network application on the FOV centered at (cz, cy, cx),
// reusing the scratch buffers. The returned tensor is s.out. Each
// application is conditioned on a fresh seed POM (pad probability
// everywhere, seed probability at the center) so the network sees exactly
// the input distribution it was trained on; the canvas serves as the
// aggregation buffer across FOVs. This is the single-step simplification of
// FFN's recurrent POM, documented in DESIGN.md.
func (n *Network) applyFOV(s *inferScratch, image *Volume, cz, cy, cx int) *tensor.Tensor {
	extractFOVInto(s.img, image, n.cfg.FOV, cz, cy, cx)
	packInputInto(s.in, s.img, s.pom)
	n.forwardInto(s.cache, s.in, s.out)
	return s.out
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
// With maxSteps == 0 and more than one worker (parallel.Workers()), seeds
// are sharded across workers: floods claim FOV centers through a shared
// atomic visited array (each center is expanded exactly once, as in the
// serial multi-source BFS) and merge into worker-private canvases that are
// max-reduced afterwards. Workers drain ready centers in batches of
// Config.FloodBatch through the batched forward path (weights stream once
// per batch, activations fused into the conv writes). Because each
// application's output depends only on the image and the center — never on
// the canvas — the mask and statistics are identical to the serial per-FOV
// path at every batch size and worker count.
func (n *Network) Segment(image *Volume, seeds [][3]int, maxSteps int) (*Volume, InferenceStats) {
	mask, stats, _ := n.SegmentCtx(context.Background(), image, seeds, maxSteps, nil)
	return mask, stats
}

// visitedSet is the flood's claimed-center set, one bit per voxel. The
// sharded floods claim through the atomic or; the serial flood, alone on
// its set, uses the plain one.
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

// claimAtomic is claim for floods that share the set across goroutines.
func (v visitedSet) claimAtomic(key int) bool {
	bit := uint32(1) << (key & 31)
	return atomic.OrUint32(&v[key>>5], bit)&bit == 0
}

// floodProgress counts network applications across all flood workers and
// fires the user callback every progressEvery applications. A nil
// *floodProgress disables both, costing the flood loops nothing.
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
// every network application in the serial flood and before every batch in
// the batched flood, so a cancelled context stops the run within one FOV
// batch (FloodBatch applications) per worker.
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
	batch := cfg.effectiveFloodBatch()
	if maxSteps > 0 {
		// The bounded-step flood stays per-FOV FIFO, so which applications
		// spend the budget is unchanged by the batch setting.
		n.floodSerial(ctx, image, accepted, claimed, canvas.Data, moveLogit, maxSteps, &stats, prog)
	} else if len(shards) <= 1 {
		if batch > 1 {
			n.floodShardBatch(ctx, image, accepted, claimed, canvas.Data, moveLogit, &stats, prog)
		} else {
			n.floodSerial(ctx, image, accepted, claimed, canvas.Data, moveLogit, 0, &stats, prog)
		}
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
				if batch > 1 {
					n.floodShardBatch(ctx, image, accepted[shards[k][0]:shards[k][1]], claimed, wc, moveLogit, &shardStats[k], prog)
				} else {
					n.floodShard(ctx, image, accepted[shards[k][0]:shards[k][1]], claimed, wc, moveLogit, &shardStats[k], prog)
				}
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

// floodSerial is the single-goroutine flood: a multi-source BFS over FOV
// centers with an optional step budget and cooperative cancellation checked
// before every application.
func (n *Network) floodSerial(ctx context.Context, image *Volume, seeds []fovPos, claimed visitedSet, canvas []float32, moveLogit float32, maxSteps int, stats *InferenceStats, prog *floodProgress) {
	cfg := n.cfg
	ap := n.newFOVApplier()
	defer ap.release()
	offsets := cfg.moveOffsets()
	queue := append([]fovPos(nil), seeds...)
	for len(queue) > 0 {
		if maxSteps > 0 && stats.Steps >= maxSteps {
			break
		}
		if ctx.Err() != nil {
			return
		}
		p := queue[0]
		queue = queue[1:]
		out := ap.apply(image, p)
		mergeCore(canvas, image.H, image.W, cfg.FOV, out, p.z, p.y, p.x)
		stats.Steps++
		prog.bump()

		for _, off := range offsets {
			fz := cfg.FOV[0]/2 + off[0]
			fy := cfg.FOV[1]/2 + off[1]
			fx := cfg.FOV[2]/2 + off[2]
			v := out[(fz*cfg.FOV[1]+fy)*cfg.FOV[2]+fx]
			if v < moveLogit {
				continue
			}
			nz, ny, nx := p.z+off[0], p.y+off[1], p.x+off[2]
			if !cfg.fovInBounds(image, nz, ny, nx) {
				continue
			}
			key := (nz*image.H+ny)*image.W + nx
			if !claimed.claim(key) {
				continue
			}
			queue = append(queue, fovPos{nz, ny, nx})
			stats.Moves++
		}
	}
}

// floodShard floods one worker's seed shard, claiming centers through the
// shared atomic visited bitset and merging into a worker-private canvas.
// Cancellation is checked before every application, as in floodSerial.
func (n *Network) floodShard(ctx context.Context, image *Volume, seeds []fovPos, claimed visitedSet, canvas []float32, moveLogit float32, stats *InferenceStats, prog *floodProgress) {
	cfg := n.cfg
	ap := n.newFOVApplier()
	defer ap.release()
	offsets := cfg.moveOffsets()
	queue := append([]fovPos(nil), seeds...)
	for len(queue) > 0 {
		if ctx.Err() != nil {
			return
		}
		p := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		out := ap.apply(image, p)
		mergeCore(canvas, image.H, image.W, cfg.FOV, out, p.z, p.y, p.x)
		stats.Steps++
		prog.bump()

		for _, off := range offsets {
			fz := cfg.FOV[0]/2 + off[0]
			fy := cfg.FOV[1]/2 + off[1]
			fx := cfg.FOV[2]/2 + off[2]
			v := out[(fz*cfg.FOV[1]+fy)*cfg.FOV[2]+fx]
			if v < moveLogit {
				continue
			}
			nz, ny, nx := p.z+off[0], p.y+off[1], p.x+off[2]
			if !cfg.fovInBounds(image, nz, ny, nx) {
				continue
			}
			key := (nz*image.H+ny)*image.W + nx
			if !claimed.claimAtomic(key) {
				continue
			}
			queue = append(queue, fovPos{nz, ny, nx})
			stats.Moves++
		}
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
