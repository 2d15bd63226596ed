package ffn

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"chaseci/internal/parallel"
	"chaseci/internal/tensor"
)

// batchScene builds a flood scene large enough that batches actually fill.
func batchScene(t testing.TB, precision Precision) (*Network, *Volume, [][3]int) {
	t.Helper()
	img := synthVolume(42, 6, 20, 22)
	img.Normalize()
	cfg := DefaultConfig()
	cfg.FOV = [3]int{3, 7, 7}
	cfg.Features = 4
	cfg.MoveStep = [3]int{1, 2, 2}
	cfg.MoveProb = 0.55
	cfg.Precision = precision
	net, err := NewNetwork(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	seeds := GridSeeds(img, cfg.FOV, [3]int{1, 3, 3}, -10)
	if len(seeds) < 4 {
		t.Fatalf("want several seeds, got %d", len(seeds))
	}
	return net, img, seeds
}

// extractFOV is extractFOVInto a fresh (1,D,H,W) tensor.
func extractFOV(v *Volume, fov [3]int, cz, cy, cx int) *tensor.Tensor {
	out := tensor.New(1, fov[0], fov[1], fov[2])
	extractFOVInto(out, v, fov, cz, cy, cx)
	return out
}

// perFOVSegment is the reference the batched flood is held to: a
// one-application-at-a-time FIFO flood over the training path's forwardInto,
// with a map for the visited set and nothing shared with flood but
// mergeCore, fovInBounds and the final threshold.
func perFOVSegment(n *Network, image *Volume, seeds [][3]int, maxSteps int) (*Volume, InferenceStats) {
	cfg := n.cfg
	fov := cfg.FOV
	stats := InferenceStats{VoxelsTotal: image.Size()}
	canvas := NewVolume(image.D, image.H, image.W)
	fill(canvas.Data, logit(cfg.PadProb))
	visited := map[fovPos]bool{}
	var queue []fovPos
	for _, s := range seeds {
		p := fovPos{s[0], s[1], s[2]}
		if cfg.fovInBounds(image, p.z, p.y, p.x) && !visited[p] {
			visited[p] = true
			queue = append(queue, p)
			canvas.Set(p.z, p.y, p.x, logit(cfg.SeedProb))
			stats.SeedsUsed++
		}
	}
	ts := n.newTrainScratch()
	for ; len(queue) > 0 && (maxSteps <= 0 || stats.Steps < maxSteps); queue = queue[1:] {
		p := queue[0]
		extractFOVInto(ts.img, image, fov, p.z, p.y, p.x)
		packInputInto(ts.in, ts.img, ts.pom)
		n.forwardInto(&ts.cache, ts.in, ts.delta)
		mergeCore(canvas.Data, image.H, image.W, fov, ts.delta.Data, p.z, p.y, p.x)
		stats.Steps++
		for _, off := range cfg.moveOffsets() {
			q := fovPos{p.z + off[0], p.y + off[1], p.x + off[2]}
			face := ((fov[0]/2+off[0])*fov[1]+fov[1]/2+off[1])*fov[2] + fov[2]/2 + off[2]
			if ts.delta.Data[face] < logit(cfg.MoveProb) ||
				!cfg.fovInBounds(image, q.z, q.y, q.x) || visited[q] {
				continue
			}
			visited[q] = true
			queue = append(queue, q)
			stats.Moves++
		}
	}
	for i, v := range canvas.Data {
		canvas.Data[i] = 0
		if v >= logit(cfg.SegmentProb) {
			canvas.Data[i] = 1
			stats.MaskVoxels++
		}
	}
	return canvas, stats
}

// TestSegmentBatchedMatchesPerFOV requires the batched flood to reproduce
// the per-FOV reference bit-exactly (mask and statistics) at worker counts
// 1/2/8, with and without a step budget — the equivalence the batched
// engine's "output depends only on image and center" argument promises, and
// for budgets the "first k queued centers, expanded in order" one.
func TestSegmentBatchedMatchesPerFOV(t *testing.T) {
	net, img, seeds := batchScene(t, PrecisionF32)
	for _, maxSteps := range []int{0, 1, 7, 50} {
		refMask, refStats := perFOVSegment(net, img, seeds, maxSteps)
		if refStats.Steps == 0 || refStats.MaskVoxels == 0 {
			t.Fatalf("degenerate reference run: %+v", refStats)
		}
		for _, workers := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("maxSteps=%d/workers=%d", maxSteps, workers), func(t *testing.T) {
				prev := parallel.SetWorkers(workers)
				defer parallel.SetWorkers(prev)
				mask, stats := net.Segment(img, seeds, maxSteps)
				if stats != refStats {
					t.Fatalf("stats diverge: %+v, want %+v", stats, refStats)
				}
				for i := range refMask.Data {
					if mask.Data[i] != refMask.Data[i] {
						t.Fatalf("mask voxel %d diverges", i)
					}
				}
			})
		}
	}
}

// floodGolden holds SHA-256(mask float32 bits, little-endian || %+v of the
// InferenceStats) for batchScene floods, recorded at the last commit that had
// separate per-FOV FIFO, per-FOV LIFO and batched loops (all three agreed).
// On this scene the int8 mask and statistics equal the f32 ones; the logits
// behind them do not (TestForwardBatchQLogitError).
var floodGolden = map[int]string{
	0: "afb579f3dedda58484d1b0496f71f06fdc679b5cf302e7afaead3dfd80bb0985",
	1: "dbdb49c5d8ea25553e513355148a9c3b13747e54e0cde0e0dbd9492fdd54b0e2",
	7: "1f15bf58875c9d71a5cff4135a4c5911100f6946dece1308004066ede9722915",
}

// TestFloodGolden pins absolute flood output — both precisions, unbudgeted
// and budgeted, serial and sharded — to digests recorded before the loops
// were merged.
func TestFloodGolden(t *testing.T) {
	for _, precision := range []Precision{PrecisionF32, PrecisionInt8} {
		net, img, seeds := batchScene(t, precision)
		for maxSteps, want := range floodGolden {
			for _, workers := range []int{1, 2, 8} {
				prev := parallel.SetWorkers(workers)
				mask, stats := net.Segment(img, seeds, maxSteps)
				parallel.SetWorkers(prev)
				h := sha256.New()
				binary.Write(h, binary.LittleEndian, mask.Data)
				fmt.Fprintf(h, "%+v", stats)
				if got := hex.EncodeToString(h.Sum(nil)); got != want {
					t.Errorf("%s maxSteps=%d workers=%d: digest %s (%+v), want %s", precision, maxSteps, workers, got, stats, want)
				}
			}
		}
	}
}

// TestForwardBatchMatchesForwardInto pins the fused batched forward against
// the training-path forwardInto slot by slot.
func TestForwardBatchMatchesForwardInto(t *testing.T) {
	net, img, seeds := batchScene(t, PrecisionF32)
	cfg := net.Config()
	fov := cfg.FOV
	fovN := fov[0] * fov[1] * fov[2]
	bs := net.getBatchScratch()
	defer net.putBatchScratch(bs)
	k := cap(bs.pos)
	if len(seeds) < k {
		t.Fatalf("need %d seeds, have %d", k, len(seeds))
	}
	for i := 0; i < k; i++ {
		s := seeds[i]
		extractFOVIntoSlice(bs.in.Data[2*i*fovN:][:fovN], img, fov, s[0], s[1], s[2])
	}
	net.forwardBatchInto(bs, k)

	ref := net.newTrainScratch()
	for i := 0; i < k; i++ {
		s := seeds[i]
		extractFOVInto(ref.img, img, fov, s[0], s[1], s[2])
		packInputInto(ref.in, ref.img, ref.pom)
		net.forwardInto(&ref.cache, ref.in, ref.delta)
		got := bs.out.Data[i*fovN:][:fovN]
		for j, want := range ref.delta.Data {
			if got[j] != want {
				t.Fatalf("slot %d logit %d: got %v, want %v (not bit-exact)", i, j, got[j], want)
			}
		}
	}
}

// TestFloodBatchScratchAllocFree pins the batched flood hot loop: with a
// warmed scratch, extract + batched forward + merge allocates nothing.
func TestFloodBatchScratchAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; alloc pins run in the non-race job")
	}
	net, img, seeds := batchScene(t, PrecisionF32)
	cfg := net.Config()
	fov := cfg.FOV
	fovN := fov[0] * fov[1] * fov[2]
	canvas := make([]float32, img.Size())
	bs := net.getBatchScratch()
	defer net.putBatchScratch(bs)
	k := cap(bs.pos)
	run := func() {
		for i := 0; i < k; i++ {
			s := seeds[i]
			extractFOVIntoSlice(bs.in.Data[2*i*fovN:][:fovN], img, fov, s[0], s[1], s[2])
		}
		net.forwardBatchInto(bs, k)
		for i := 0; i < k; i++ {
			s := seeds[i]
			mergeCore(canvas, img.H, img.W, fov, bs.out.Data[i*fovN:][:fovN], s[0], s[1], s[2])
		}
	}
	run() // warm dispatch pools
	allocs := testing.AllocsPerRun(20, run)
	if allocs != 0 {
		t.Fatalf("batched flood steady-state allocs/op = %v, want 0", allocs)
	}
}

// TestSegmentAllocBound pins the whole batched flood around that loop —
// seed shards, queues, visited set and the returned mask — on the 6x24x36 IVT
// scene with a warm free list.
func TestSegmentAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; alloc pins run in the non-race job")
	}
	img, _ := buildARScene(t, 6)
	cfg := DefaultConfig()
	cfg.FOV = [3]int{3, 7, 7}
	cfg.Features = 6
	cfg.MoveStep = [3]int{1, 2, 2}
	net, err := NewNetwork(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	seeds := GridSeeds(img, cfg.FOV, [3]int{1, 4, 4}, 1.0)
	net.Segment(img, seeds, 0)
	allocs := testing.AllocsPerRun(10, func() { net.Segment(img, seeds, 0) })
	t.Logf("Segment: %.0f allocs", allocs)
	const bound = 24 // measured 14-15
	if allocs > bound {
		t.Fatalf("Segment allocates %.0f objects per flood, want <= %d", allocs, bound)
	}
}

// TestSegmentReusesBatchScratch verifies repeated Segment calls recycle the
// batched scratch through the network's free list instead of rebuilding it.
// The free list is a mutex-guarded LIFO, not a sync.Pool, so reuse is
// deterministic and this test holds under the race detector too.
func TestSegmentReusesBatchScratch(t *testing.T) {
	net, img, seeds := batchScene(t, PrecisionF32)
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	net.Segment(img, seeds, 0)
	s1 := net.getBatchScratch()
	data := &s1.in.Data[0]
	net.putBatchScratch(s1)
	net.Segment(img, seeds, 0)
	s2 := net.getBatchScratch()
	defer net.putBatchScratch(s2)
	if &s2.in.Data[0] != data {
		t.Fatal("batched scratch was not recycled through the pool")
	}
}
