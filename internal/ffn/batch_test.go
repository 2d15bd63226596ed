package ffn

import (
	"fmt"
	"testing"

	"chaseci/internal/parallel"
	"chaseci/internal/tensor"
)

// batchScene builds a flood scene large enough that batches actually fill.
func batchScene(t testing.TB, floodBatch int) (*Network, *Volume, [][3]int) {
	t.Helper()
	img := synthVolume(42, 6, 20, 22)
	img.Normalize()
	cfg := DefaultConfig()
	cfg.FOV = [3]int{3, 7, 7}
	cfg.Features = 4
	cfg.MoveStep = [3]int{1, 2, 2}
	cfg.MoveProb = 0.55
	cfg.FloodBatch = floodBatch
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

// TestSegmentBatchedMatchesPerFOV requires the batched flood to reproduce
// the per-FOV path bit-exactly (mask and statistics) across batch sizes
// 1/2/8 and worker counts 1/2/8 — the equivalence the batched engine's
// "output depends only on image and center" argument promises.
func TestSegmentBatchedMatchesPerFOV(t *testing.T) {
	// Reference: per-FOV path (FloodBatch=1), serial.
	refNet, img, seeds := batchScene(t, 1)
	prev := parallel.SetWorkers(1)
	refMask, refStats := refNet.Segment(img, seeds, 0)
	parallel.SetWorkers(prev)
	if refStats.Steps == 0 || refStats.MaskVoxels == 0 {
		t.Fatalf("degenerate reference run: %+v", refStats)
	}

	for _, batch := range []int{1, 2, 8} {
		net, _, _ := batchScene(t, batch)
		for _, workers := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("batch=%d/workers=%d", batch, workers), func(t *testing.T) {
				prev := parallel.SetWorkers(workers)
				defer parallel.SetWorkers(prev)
				mask, stats := net.Segment(img, seeds, 0)
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

// TestForwardBatchMatchesForwardInto pins the fused batched forward against
// the training-path forwardInto slot by slot.
func TestForwardBatchMatchesForwardInto(t *testing.T) {
	net, img, seeds := batchScene(t, 8)
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

	ref := net.newInferScratch()
	for i := 0; i < k; i++ {
		s := seeds[i]
		out := net.applyFOV(ref, img, s[0], s[1], s[2])
		got := bs.out.Data[i*fovN:][:fovN]
		for j := range out.Data {
			if got[j] != out.Data[j] {
				t.Fatalf("slot %d logit %d: got %v, want %v (not bit-exact)", i, j, got[j], out.Data[j])
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
	net, img, seeds := batchScene(t, 8)
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
	cfg.FloodBatch = 8
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
	net, img, seeds := batchScene(t, 8)
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

// TestConfigFloodBatchValidation covers the new knob's validation.
func TestConfigFloodBatchValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FloodBatch = -1
	if _, err := NewNetwork(cfg, 1); err == nil {
		t.Fatal("negative FloodBatch must be rejected")
	}
	cfg.FloodBatch = 10 * MaxFloodBatch
	if cfg.effectiveFloodBatch() != MaxFloodBatch {
		t.Fatalf("oversized FloodBatch not capped: %d", cfg.effectiveFloodBatch())
	}
	cfg.FloodBatch = 0
	if cfg.effectiveFloodBatch() != DefaultFloodBatch {
		t.Fatalf("default FloodBatch = %d, want %d", cfg.effectiveFloodBatch(), DefaultFloodBatch)
	}
}

// BenchmarkSegmentBatch tracks flood-fill inference across batch sizes on
// one network geometry (results are identical; only wall-clock changes).
func BenchmarkSegmentBatch(b *testing.B) {
	img := synthVolume(42, 6, 24, 36)
	img.Normalize()
	for _, batch := range []int{1, 2, 4, 8} {
		cfg := DefaultConfig()
		cfg.FOV = [3]int{3, 7, 7}
		cfg.Features = 6
		cfg.MoveStep = [3]int{1, 2, 2}
		cfg.FloodBatch = batch
		net, err := NewNetwork(cfg, 3)
		if err != nil {
			b.Fatal(err)
		}
		seeds := GridSeeds(img, cfg.FOV, [3]int{1, 4, 4}, -10)
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				net.Segment(img, seeds, 0)
			}
		})
	}
}

// TestTrainStepAllocFree pins the training hot path at zero steady-state
// heap allocations (tightened from the earlier <= 2 guard: the scratch and
// optimizer state are fully preallocated after the first step).
func TestTrainStepAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; alloc pins run in the non-race job")
	}
	cfg := DefaultConfig()
	cfg.FOV = [3]int{3, 7, 7}
	cfg.Features = 4
	net, err := NewNetwork(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	opt := tensor.NewSGD(0.01, 0.9)
	img := synthVolume(8, 3, 7, 7)
	lab := NewVolume(3, 7, 7)
	it := extractFOV(img, cfg.FOV, 1, 3, 3)
	lt := extractFOV(lab, cfg.FOV, 1, 3, 3)
	net.TrainStep(opt, it, lt) // warm scratch + velocity maps
	allocs := testing.AllocsPerRun(50, func() {
		net.TrainStep(opt, it, lt)
	})
	if allocs != 0 {
		t.Fatalf("TrainStep steady-state allocs/op = %v, want 0", allocs)
	}
}
