package ffn

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"chaseci/internal/parallel"
)

// segCtxScene builds a permissive flood scene with many seeds so runs take
// enough applications to observe mid-flight cancellation.
func segCtxScene(t *testing.T) (*Network, *Volume, [][3]int) {
	t.Helper()
	img := synthVolume(7, 6, 20, 22)
	img.Normalize()
	cfg := DefaultConfig()
	cfg.FOV = [3]int{3, 7, 7}
	cfg.Features = 4
	cfg.MoveStep = [3]int{1, 2, 2}
	cfg.MoveProb = 0.55
	net, err := NewNetwork(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	seeds := GridSeeds(img, cfg.FOV, [3]int{1, 3, 3}, -10)
	return net, img, seeds
}

// TestSegmentCtxMatchesSegment requires the context-aware entrypoint with a
// background context to reproduce Segment bit-exactly, serial and sharded.
func TestSegmentCtxMatchesSegment(t *testing.T) {
	net, img, seeds := segCtxScene(t)
	for _, workers := range []int{1, 4} {
		prev := parallel.SetWorkers(workers)
		defer parallel.SetWorkers(prev)
		wantMask, wantStats := net.Segment(img, seeds, 0)
		var lastProgress atomic.Int64 // the multi-lane flood calls it concurrently
		mask, stats, err := net.SegmentCtx(context.Background(), img, seeds, 0,
			func(steps int) { lastProgress.Store(int64(steps)) })
		if err != nil {
			t.Fatalf("workers=%d: unexpected error %v", workers, err)
		}
		if stats != wantStats {
			t.Fatalf("workers=%d: stats %+v, want %+v", workers, stats, wantStats)
		}
		for i := range wantMask.Data {
			if mask.Data[i] != wantMask.Data[i] {
				t.Fatalf("workers=%d: mask voxel %d diverges", workers, i)
			}
		}
		if stats.Steps >= progressEvery && lastProgress.Load() == 0 {
			t.Fatalf("workers=%d: progress callback never fired over %d steps", workers, stats.Steps)
		}
	}
}

// TestSegmentCtxCancelMidFlood cancels from inside the progress callback —
// a deterministic mid-flight cancellation — and expects a prompt stop with
// partial statistics.
func TestSegmentCtxCancelMidFlood(t *testing.T) {
	net, img, seeds := segCtxScene(t)
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	_, full := net.Segment(img, seeds, 0)
	if full.Steps < 3*progressEvery {
		t.Fatalf("scene too small to cancel mid-flight: %d steps", full.Steps)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	mask, stats, err := net.SegmentCtx(ctx, img, seeds, 0, func(steps int) {
		if steps >= progressEvery {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if stats.Steps == 0 || stats.Steps >= full.Steps {
		t.Fatalf("cancelled run took %d steps, want in (0, %d)", stats.Steps, full.Steps)
	}
	if mask == nil {
		t.Fatal("cancelled run must still return the partial mask")
	}
}

// TestSegmentCtxCancelSharded covers the multi-lane flood: every lane must
// stop promptly after cancellation, the ones waiting on the frontier too.
func TestSegmentCtxCancelSharded(t *testing.T) {
	net, img, seeds := segCtxScene(t)
	prev := parallel.SetWorkers(4)
	defer parallel.SetWorkers(prev)
	_, full := net.Segment(img, seeds, 0)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, stats, err := net.SegmentCtx(ctx, img, seeds, 0, func(steps int) {
		if steps >= progressEvery {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if stats.Steps == 0 || stats.Steps >= full.Steps {
		t.Fatalf("cancelled sharded run took %d steps, want in (0, %d)", stats.Steps, full.Steps)
	}
	// The cancel lands at application progressEvery; each of the four lanes
	// may finish the batch it holds and takes no other.
	if limit := progressEvery + 4*DefaultFloodBatch; stats.Steps > limit {
		t.Fatalf("cancelled sharded run took %d steps, want at most %d (one batch per lane)", stats.Steps, limit)
	}
}
