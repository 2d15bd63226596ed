package ffn

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"chaseci/internal/parallel"
)

// TestNormalizeIntoMatchesNormalize: the borrowing form leaves its source
// untouched and is bit-identical to the in-place one.
func TestNormalizeIntoMatchesNormalize(t *testing.T) {
	src := synthVolume(3, 4, 10, 12)
	orig := append([]float32(nil), src.Data...)
	dst := BorrowVolume(src.D, src.H, src.W)
	if got := src.NormalizeInto(dst); got != dst {
		t.Fatal("NormalizeInto must return dst")
	}
	for i := range orig {
		if src.Data[i] != orig[i] {
			t.Fatalf("source voxel %d was written", i)
		}
	}
	src.Normalize()
	for i := range src.Data {
		if dst.Data[i] != src.Data[i] {
			t.Fatalf("voxel %d: NormalizeInto %v, Normalize %v", i, dst.Data[i], src.Data[i])
		}
	}
}

// TestVisitedSetClaimsExactlyOnce: both claim forms report a fresh key
// once, and concurrent atomic claims of one key have exactly one winner
// without disturbing the other bits of the word.
func TestVisitedSetClaimsExactlyOnce(t *testing.T) {
	v := borrowVisited(100)
	defer v.release()
	if len(v) != 4 {
		t.Fatalf("100 voxels need 4 words, got %d", len(v))
	}
	for _, w := range v {
		if w != 0 {
			t.Fatal("borrowed set is not cleared")
		}
	}
	if !v.claim(37) || v.claim(37) || v.claimAtomic(37) {
		t.Fatal("key 37 must be claimable exactly once")
	}
	if !v.claimAtomic(99) || v.claimAtomic(99) || v.claim(99) {
		t.Fatal("key 99 must be claimable exactly once")
	}
	var wg sync.WaitGroup
	wins := make([]int, 8)
	for g := range wins {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for key := 32; key < 64; key++ { // one word, contended bit by bit
				if key != 37 && v.claimAtomic(key) {
					wins[g]++
				}
			}
		}(g)
	}
	wg.Wait()
	total := 0
	for _, w := range wins {
		total += w
	}
	if total != 31 || v[1] != ^uint32(0) {
		t.Fatalf("%d winners over 31 contended keys, word %#x", total, v[1])
	}
}

// TestSegmentCtxSteadyStateAllocs: once one flood has run, a second one on a
// brand-new Network of the same geometry allocates no whole-volume array and
// no scratch tensor — they all come back from the shared free list, although
// nothing of the first Network survives. Serial and sharded.
func TestSegmentCtxSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins are meaningless under the race detector")
	}
	img := synthVolume(42, 12, 48, 48)
	img.Normalize()
	volBytes := uint64(4 * img.Size())
	// A flood that never moves (no random-weight logit reaches p=0.9999):
	// one application per seed, so the flood queues stay a few hundred bytes
	// and what is left to measure is the arrays under test.
	cfg := DefaultConfig()
	cfg.FOV = [3]int{3, 7, 7}
	cfg.Features = 4
	cfg.MoveProb = 0.9999
	seeds := GridSeeds(img, cfg.FOV, [3]int{4, 16, 16}, -10)
	for _, workers := range []int{1, 4} {
		prev := parallel.SetWorkers(workers)
		newNet := func() *Network {
			net, err := NewNetwork(cfg, 5)
			if err != nil {
				t.Fatal(err)
			}
			return net
		}
		flood := func(net *Network) uint64 {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			mask, _, err := net.SegmentCtx(context.Background(), img, seeds, 0, nil)
			runtime.ReadMemStats(&m1)
			if err != nil {
				t.Fatal(err)
			}
			ReleaseVolume(mask)
			return m1.TotalAlloc - m0.TotalAlloc
		}
		cold := flood(newNet())
		// How many scratches are live at once under the sharded flood
		// depends on scheduling, so the stock may take a flood or two to
		// reach its working size: the best of a few is the steady state.
		warm := flood(newNet())
		for i := 0; i < 4; i++ {
			warm = min(warm, flood(newNet()))
		}
		parallel.SetWorkers(prev)
		// Every whole-volume array is 110 KB and the batched scratch is
		// 342 KB a worker (eight slots of padded, channel-blocked
		// buffers); what remains is seed lists, tensor headers and
		// dispatch, a few KB.
		if warm >= volBytes/8 {
			t.Errorf("workers=%d: steady-state flood allocated %d B (first flood %d B); a %d B volume or a scratch tensor is being reallocated",
				workers, warm, cold, volBytes)
		}
		t.Logf("workers=%d: first flood %d B, steady state %d B", workers, cold, warm)
	}
}

// TestReleasedMaskIsRecycledAsCanvas: the mask SegmentCtx returns is its
// canvas, and releasing it feeds the next flood's canvas.
func TestReleasedMaskIsRecycledAsCanvas(t *testing.T) {
	net, img, seeds := batchScene(t)
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	mask, want := net.Segment(img, seeds, 0)
	p := &mask.Data[0]
	ReleaseVolume(mask)
	if mask.Data != nil {
		t.Fatal("ReleaseVolume must detach the backing array")
	}
	again, got := net.Segment(img, seeds, 0)
	if &again.Data[0] != p {
		t.Fatal("released mask was not reused as the next canvas")
	}
	if got != want {
		t.Fatalf("stats over a recycled canvas %+v, want %+v", got, want)
	}
	ReleaseVolume(nil) // a no-op, not a panic
}
