package ffn

import (
	"context"
	"math"
	"math/bits"
	"sync/atomic"

	"chaseci/internal/parallel"
	"chaseci/internal/tensor"
)

// Volume is a simple (D, H, W) float32 volume used for whole-dataset images
// and label masks. D is the time axis for the IVT workload.
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
// (same geometry) and returns dst, leaving v untouched: MomentsOf(v.Data)
// applied to every voxel. Normalize is the in-place form, bit-identical.
func (v *Volume) NormalizeInto(dst *Volume) *Volume {
	if len(dst.Data) != len(v.Data) {
		panic("ffn: NormalizeInto size mismatch")
	}
	m := MomentsOf(v.Data)
	for i, x := range v.Data {
		dst.Data[i] = m.Apply(x)
	}
	return dst
}

// Moments are the mean and standard deviation that condition an image: a
// voxel x is read as Apply(x). A flood reads its raw image through them as
// it extracts each FOV, so no normalised volume is ever written. The
// zero-mean, unit-variance scaling is MomentsOf the data; Moments{0, 1}
// reads every value as itself, -0 and infinities included.
type Moments struct{ Mean, Std float64 }

// MomentsOf returns the normalisation moments of data.
func MomentsOf(data []float32) Moments {
	sum, sumsq := tensor.Sums(data)
	return MomentsFromSums(sum, sumsq, len(data))
}

// MomentsFromSums derives the moments of n values from their index-order
// float64 sum and sum of squares (tensor.Sums): the mean, and the standard
// deviation, taken as 1 where the variance is at most 1e-12 (a constant
// field) or is NaN. No values give Moments{0, 1}.
func MomentsFromSums(sum, sumsq float64, n int) Moments {
	if n == 0 {
		return Moments{0, 1}
	}
	fn := float64(n)
	mean := sum / fn
	variance := sumsq/fn - mean*mean
	std := 1.0
	if variance > 1e-12 {
		std = math.Sqrt(variance)
	}
	return Moments{mean, std}
}

// Apply conditions one voxel.
func (m Moments) Apply(x float32) float32 { return float32((float64(x) - m.Mean) / m.Std) }

// extractFOVInto copies the FOV centered at (cz, cy, cx) into the caller's
// (1,D,H,W) tensor, allocating nothing. The center must be in-bounds for the
// full FOV.
func extractFOVInto(out *tensor.Tensor, v *Volume, fov [3]int, cz, cy, cx int) {
	dst := out.Data
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

// mergeCore ORs the core box (Config.floodReads) of an output FOV centered
// at p into mask: a voxel's bit is set where its logit reaches segLogit,
// and a NaN logit sets none. OR is commutative and associative, so the
// merged mask is independent of application order and of the lane that
// merged it — the property the multi-lane flood relies on for determinism.
// Each core row touches a word or two, each ORed once (orAtomic).
func mergeCore(mask []uint32, H, W int, fov [3]int, core fovBox, out []float32, segLogit float32, pz, py, px int) {
	z0, y0, x0 := pz-fov[0]/2, py-fov[1]/2, px-fov[2]/2
	for z := core.lo[0]; z < core.hi[0]; z++ {
		for y := core.lo[1]; y < core.hi[1]; y++ {
			base := ((z0+z)*H+y0+y)*W + x0
			row := out[(z*fov[1]+y)*fov[2]:]
			word, acc := (base+core.lo[2])>>5, uint32(0)
			for x := core.lo[2]; x < core.hi[2]; x++ {
				key := base + x
				if key>>5 != word {
					orAtomic(&mask[word], acc)
					word, acc = key>>5, 0
				}
				if row[x] >= segLogit {
					acc |= 1 << (key & 31)
				}
			}
			orAtomic(&mask[word], acc)
		}
	}
}

// orAtomic ORs set into *w, which other lanes may be ORing into too: a
// load, and a compare-and-swap only when the word gains a bit. It is not the
// value-returning atomic.OrUint32 for the reason claimAtomic gives.
func orAtomic(w *uint32, set uint32) {
	for {
		old := atomic.LoadUint32(w)
		if old|set == old || atomic.CompareAndSwapUint32(w, old, old|set) {
			return
		}
	}
}

// Mask is a flood's binary result, one bit per voxel of its (D, H, W)
// image: voxel i is bit i%32 of Words[i/32]. The bits past the voxel count
// are zero, so the words written out little-endian are the dataset codec's
// mask payload, byte for byte. Words come from the shared free list, and
// Release hands them back.
type Mask struct {
	D, H, W int
	Words   []uint32
}

// borrowMask borrows a mask for an image of v's geometry with every voxel
// set to on.
func borrowMask(v *Volume, on bool) Mask {
	n := v.Size()
	m := Mask{D: v.D, H: v.H, W: v.W, Words: tensor.GetWords((n + 31) / 32)}
	fill := uint32(0)
	if on {
		fill = ^fill
	}
	for i := range m.Words {
		m.Words[i] = fill
	}
	if rem := n % 32; rem != 0 {
		m.Words[len(m.Words)-1] &= 1<<rem - 1
	}
	return m
}

// put sets voxel i's bit to on. It is for the flood alone on the mask,
// before any fan-out.
func (m Mask) put(i int, on bool) {
	bit := uint32(1) << (i & 31)
	if on {
		m.Words[i>>5] |= bit
	} else {
		m.Words[i>>5] &^= bit
	}
}

// count returns the number of set voxels.
func (m Mask) count() int {
	n := 0
	for _, w := range m.Words {
		n += bits.OnesCount32(w)
	}
	return n
}

// expand returns the mask as a 0/1 float volume borrowed from the free
// list.
func (m Mask) expand() *Volume {
	out := BorrowVolume(m.D, m.H, m.W)
	for i := range out.Data {
		out.Data[i] = float32(m.Words[i>>5] >> (i & 31) & 1)
	}
	return out
}

// Release returns the words to the free list and detaches them.
func (m *Mask) Release() {
	tensor.PutWords(m.Words)
	m.Words = nil
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

// SegmentCtx is Flood over an image that is already conditioned (Moments{0,
// 1}), with the mask expanded to a 0/1 volume borrowed from the free list: a
// caller done with it may ReleaseVolume it, one that is not simply keeps
// it. Cancellation, progress and panics are Flood's.
func (n *Network) SegmentCtx(ctx context.Context, image *Volume, seeds [][3]int, maxSteps int, progress func(steps int)) (*Volume, InferenceStats, error) {
	mask, stats, err := n.Flood(ctx, image, Moments{0, 1}, seeds, maxSteps, progress)
	defer mask.Release()
	return mask.expand(), stats, err
}

// Flood runs flood-filling inference over a raw image volume, reading each
// FOV through m as it extracts it (Moments.Apply), so the flood costs the
// voxels it reaches and not the volume it sits in. Seeds are (z, y, x)
// starting points (typically local IVT maxima); each flood fills outward
// until no face of the FOV exceeds MoveProb. maxSteps bounds total network
// applications (0 means no bound). The result is the mask as bits and the
// run statistics.
//
// A voxel's bit is set when the largest logit that reaches it — PadProb's
// everywhere, SeedProb's at an accepted seed (the seed voxel is clamped to
// it), and the core of every application covering it — reaches
// SegmentProb. So the mask starts as PadProb's verdict, each seed's bit is
// SeedProb's, and each application ORs in its core (mergeCore): whichever
// lane merges a core, and in whatever order, the bits are the same.
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
// visited set (each center is expanded exactly once) and OR their cores
// into the one shared mask. Because each application's output depends only
// on the image and the center — never on the mask, the lane or the
// schedule — the mask and statistics are identical at every worker count.
//
// Cancellation is checked before every batch on every lane, so a cancelled
// context stops the run within one FOV batch (DefaultFloodBatch
// applications) per lane, and the mask of the cores merged so far is
// returned with the statistics accumulated so far and ctx.Err(). progress
// (may be nil) is called with the running application count every
// progressEvery applications; under the multi-lane flood it fires
// concurrently from several lanes, so the callback must be safe for
// concurrent use. A panic on a lane (progress is the caller's code) ends the
// flood and is re-raised here once every lane has stopped.
//
// image is only read. The visited set and the mask, one bit per voxel each,
// come from the shared free list; the caller releases the mask.
func (n *Network) Flood(ctx context.Context, image *Volume, m Moments, seeds [][3]int, maxSteps int, progress func(steps int)) (Mask, InferenceStats, error) {
	cfg := n.cfg
	stats := InferenceStats{VoxelsTotal: image.Size()}
	keyOf := func(z, y, x int) int { return (z*image.H+y)*image.W + x }

	// Accept in-bounds, deduplicated seeds; claimed doubles as the visited
	// set for the flood (set = already claimed by some flood).
	claimed := borrowVisited(image.Size())
	defer claimed.release()
	fr := borrowFrontier()
	defer fr.release()
	for _, s := range seeds {
		if cfg.fovInBounds(image, s[0], s[1], s[2]) && claimed.claim(keyOf(s[0], s[1], s[2])) {
			fr.queue = append(fr.queue, fovPos{s[0], s[1], s[2]})
			stats.SeedsUsed++
		}
	}
	accepted := fr.queue

	segLogit := logit(cfg.SegmentProb)
	mask := borrowMask(image, logit(cfg.PadProb) >= segLogit)
	seedOn := logit(cfg.SeedProb) >= segLogit
	for _, s := range accepted {
		mask.put(keyOf(s.z, s.y, s.x), seedOn)
	}

	lanes := parallel.Chunks(len(accepted))
	if maxSteps > 0 {
		lanes = 1
	}
	fr.lanes, fr.fifo = max(lanes, 1), maxSteps > 0
	// What the flood lanes share is ready before any fan-out: the plan (lane
	// weights and read spans), built here and released when the flood ends.
	run := floodRun{
		image: image, m: m, claimed: claimed, mask: mask.Words,
		fr:        fr,
		plan:      n.newFloodPlan(floodWidth(maxSteps)),
		moveLogit: logit(cfg.MoveProb), segLogit: segLogit,
	}
	defer run.plan.release()
	if progress != nil {
		run.prog = &floodProgress{fn: progress}
	}
	if lanes <= 1 {
		n.flood(ctx, &run, maxSteps, &stats)
	} else {
		// The lanes' closure moves its copy of the run to the heap; the
		// one-lane flood keeps it on the stack.
		shared := run
		laneStats := make([]InferenceStats, lanes)
		parallel.For(lanes, func(k0, k1 int) {
			defer shared.fr.recoverLane()
			for k := k0; k < k1; k++ {
				n.flood(ctx, &shared, 0, &laneStats[k])
			}
		})
		run.fr.reraise()
		for _, ls := range laneStats {
			stats.Steps += ls.Steps
			stats.Moves += ls.Moves
		}
	}

	// Report the final application count: the every-N cadence above skips
	// the tail (and short floods entirely), and the terminal progress
	// should agree with the returned statistics.
	if run.prog != nil {
		progress(int(run.prog.steps.Load()))
	}
	stats.MaskVoxels = mask.count()
	return mask, stats, ctx.Err()
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
// so all the flood's engine computes of them (readSpans): the core box that
// mergeCore ORs into the mask, and the six move targets (FOV
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
	return AppendGridSeeds(nil, image, fov, stride, threshold)
}

// AppendGridSeeds appends GridSeeds' positions to dst, so a caller can keep
// one list's array from call to call.
func AppendGridSeeds(dst [][3]int, image *Volume, fov [3]int, stride [3]int, threshold float32) [][3]int {
	for z := fov[0] / 2; z+fov[0]/2 < image.D; z += stride[0] {
		for y := fov[1] / 2; y+fov[1]/2 < image.H; y += stride[1] {
			for x := fov[2] / 2; x+fov[2]/2 < image.W; x += stride[2] {
				if image.At(z, y, x) >= threshold {
					dst = append(dst, [3]int{z, y, x})
				}
			}
		}
	}
	return dst
}
