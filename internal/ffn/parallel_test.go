package ffn

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"chaseci/internal/parallel"
	"chaseci/internal/sim"
)

func synthVolume(seed uint64, d, h, w int) *Volume {
	rng := sim.NewRNG(seed)
	v := NewVolume(d, h, w)
	for i := range v.Data {
		v.Data[i] = float32(rng.NormFloat64())
	}
	return v
}

// imbalancedScene is the flood a seed split cannot balance: every seed but
// the first is isolated (one application, no move), and the first reaches
// every lattice center of a block that is most of the volume. The network is
// set by hand so that the scene is exact rather than likely: one input tap
// copies the image into feature 0, the zero-weight residual modules pass it
// through, and the output layer turns it into logit +4 where the image is 1
// and -4 where it is 0 — so a flood moves exactly where the image says.
// The image is 1 on the block x >= riverX0 and 0 on the margin the isolated
// seeds sit in. It returns the application count the scene must take.
func imbalancedScene(t testing.TB, cfg Config, d, h, w int) (net *Network, img *Volume, seeds [][3]int, steps int) {
	t.Helper()
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	net = newNetwork(cfg)
	net.wIn.Data[13] = 1 // feature 0, image channel, center tap
	net.wOut.Data[0], net.bOut[0] = 8, -4

	hz, hy, hx := cfg.FOV[0]/2, cfg.FOV[1]/2, cfg.FOV[2]/2
	sz, sy, sx := cfg.MoveStep[0], cfg.MoveStep[1], cfg.MoveStep[2]
	riverX0 := hx + 5*sx
	img = NewVolume(d, h, w)
	for z := 0; z < d; z++ {
		for y := 0; y < h; y++ {
			for x := riverX0; x < w; x++ {
				img.Set(z, y, x, 1)
			}
		}
	}
	// The river seed, then isolated seeds up the margin: their move targets
	// (x +/- sx) stay left of the river.
	seeds = [][3]int{{hz, hy, riverX0}}
	for y := hy; y+hy < h; y += 2 {
		for _, x := range []int{hx, hx + 3*sx} {
			seeds = append(seeds, [3]int{hz, y, x})
		}
	}
	lattice := func(lo, hi, step int) int { return (hi-lo)/step + 1 } // centers lo, lo+step, ... <= hi
	steps = len(seeds) - 1 +
		lattice(hz, d-1-hz, sz)*lattice(hy, h-1-hy, sy)*lattice(riverX0, w-1-hx, sx)
	return net, img, seeds, steps
}

// TestSegmentParallelDeterministic requires Segment to produce a bit-exact
// identical mask and identical statistics at worker counts 1 (one lane), 2,
// and 8 (lanes sharing the frontier): applications depend only on the image
// and the FOV center, the claimed set is the multi-source reachable set at
// any schedule, and the canvas merge is an order-independent element-wise
// max. The third scene is the imbalanced one, where all the work hangs off
// one seed and the lanes share it through the frontier or not at all.
// (TestMain poisons released buffers, so a lane canvas or scratch read after
// its release would move a mask.)
func TestSegmentParallelDeterministic(t *testing.T) {
	type scene struct {
		name  string
		net   *Network
		img   *Volume
		seeds [][3]int
		steps int // exact application count, when the scene fixes it
	}
	var scenes []scene
	for _, shape := range [][3]int{{6, 20, 22}, {5, 17, 19}} {
		img := synthVolume(42, shape[0], shape[1], shape[2])
		img.Normalize()
		cfg := DefaultConfig()
		cfg.FOV = [3]int{3, 7, 7}
		cfg.Features = 4
		cfg.MoveStep = [3]int{1, 2, 2}
		cfg.MoveProb = 0.55 // permissive: force floods to overlap and spread
		net, err := NewNetwork(cfg, 5)
		if err != nil {
			t.Fatal(err)
		}
		seeds := GridSeeds(img, cfg.FOV, [3]int{1, 3, 3}, -10) // accept everywhere
		if len(seeds) < 4 {
			t.Fatalf("want several seeds, got %d", len(seeds))
		}
		scenes = append(scenes, scene{fmt.Sprintf("shape=%v", shape), net, img, seeds, 0})
	}
	cfg := DefaultConfig()
	cfg.FOV = [3]int{3, 7, 7}
	cfg.Features = 4
	cfg.MoveStep = [3]int{1, 2, 2}
	net, img, seeds, steps := imbalancedScene(t, cfg, 6, 30, 40)
	scenes = append(scenes, scene{"imbalanced", net, img, seeds, steps})

	for _, sc := range scenes {
		var refMask *Volume
		var refStats InferenceStats
		for _, workers := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", sc.name, workers), func(t *testing.T) {
				prev := parallel.SetWorkers(workers)
				defer parallel.SetWorkers(prev)
				mask, stats := sc.net.Segment(sc.img, sc.seeds, 0)
				if workers == 1 {
					refMask, refStats = mask, stats
					if stats.Steps == 0 || stats.MaskVoxels == 0 {
						t.Fatalf("degenerate reference run: %+v", stats)
					}
					if sc.steps != 0 && (stats.Steps != sc.steps || stats.Moves != sc.steps-len(sc.seeds)) {
						t.Fatalf("scene took %d applications and %d moves, built for %d and %d",
							stats.Steps, stats.Moves, sc.steps, sc.steps-len(sc.seeds))
					}
					return
				}
				if stats != refStats {
					t.Fatalf("stats diverge: workers=%d %+v, serial %+v", workers, stats, refStats)
				}
				for i := range refMask.Data {
					if mask.Data[i] != refMask.Data[i] {
						t.Fatalf("mask voxel %d diverges at workers=%d", i, workers)
					}
				}
			})
		}
	}
}

// TestSegmentMaxStepsStaysSerial checks the bounded-step path still honors
// the budget regardless of the worker setting.
func TestSegmentMaxStepsStaysSerial(t *testing.T) {
	prev := parallel.SetWorkers(8)
	defer parallel.SetWorkers(prev)
	img := synthVolume(9, 5, 16, 16)
	img.Normalize()
	cfg := DefaultConfig()
	cfg.FOV = [3]int{3, 7, 7}
	cfg.Features = 4
	cfg.MoveStep = [3]int{1, 2, 2}
	cfg.MoveProb = 0.5
	net, err := NewNetwork(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	seeds := GridSeeds(img, cfg.FOV, [3]int{1, 2, 2}, -10)
	_, stats := net.Segment(img, seeds, 3)
	if stats.Steps > 3 {
		t.Fatalf("maxSteps=3 exceeded: %d steps", stats.Steps)
	}
}

// TestNormalizeMatchesReference pins Normalize to the direct float64
// mean/std computation (the hand-rolled Newton sqrt it replaced converged
// to the same value within 1e-6).
func TestNormalizeMatchesReference(t *testing.T) {
	v := synthVolume(3, 4, 6, 5)
	raw := append([]float32(nil), v.Data...)
	v.Normalize()

	n := float64(len(raw))
	var sum, sumsq float64
	for _, x := range raw {
		sum += float64(x)
		sumsq += float64(x) * float64(x)
	}
	mean := sum / n
	std := math.Sqrt(sumsq/n - mean*mean)
	for i, x := range raw {
		want := (float64(x) - mean) / std
		if diff := math.Abs(float64(v.Data[i]) - want); diff > 1e-6 {
			t.Fatalf("voxel %d: got %v, want %v", i, v.Data[i], want)
		}
	}
}

// TestSharedNetworkConcurrentFloods: a network no trainer owns is only read
// by a flood, so floods on one network started together, straight from
// NewNetwork, each produce the mask a twin network floods to alone, and
// leave the weights as made.
func TestSharedNetworkConcurrentFloods(t *testing.T) {
	twin, img, seeds := batchScene(t)
	want, wantStats := twin.Segment(img, seeds, 0)
	net, _, _ := batchScene(t)
	params := append([]float32(nil), net.params...)

	masks := make([]*Volume, 4)
	stats := make([]InferenceStats, len(masks))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range masks {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			masks[i], stats[i] = net.Segment(img, seeds, 0)
		}(i)
	}
	close(start)
	wg.Wait()
	for i, mask := range masks {
		if stats[i] != wantStats || !slices.Equal(mask.Data, want.Data) {
			t.Fatalf("flood %d of 4 concurrent: %+v, want the lone flood's %+v", i, stats[i], wantStats)
		}
	}
	if !slices.Equal(net.params, params) {
		t.Fatal("concurrent floods wrote the network")
	}
}
