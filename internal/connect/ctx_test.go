package connect

import (
	"context"
	"errors"
	"sync"
	"testing"

	"chaseci/internal/parallel"
	"chaseci/internal/sim"
)

// noisyVolume builds a binary volume with scattered blobs across many time
// steps so pass 1 has real work in every slab.
func noisyVolume(seed uint64, tSteps, h, w int) *Volume {
	rng := sim.NewRNG(seed)
	v := NewVolume(tSteps, h, w)
	for i := range v.Data {
		if rng.Float64() < 0.35 {
			v.Data[i] = 1
		}
	}
	return v
}

// TestLabelCtxMatchesLabel requires the context-aware entrypoint with a
// background context to reproduce Label exactly at several worker counts.
func TestLabelCtxMatchesLabel(t *testing.T) {
	v := noisyVolume(3, 12, 18, 20)
	for _, workers := range []int{1, 4} {
		prev := parallel.SetWorkers(workers)
		want := Label(v, Conn26, 2)
		// Progress fires concurrently from the slab workers, in no
		// particular order: keep the furthest point reported.
		var mu sync.Mutex
		var lastDone, lastTotal int
		got, err := LabelCtx(context.Background(), v, Conn26, 2, func(done, total int) {
			mu.Lock()
			if done > lastDone {
				lastDone, lastTotal = done, total
			}
			mu.Unlock()
		})
		parallel.SetWorkers(prev)
		if err != nil {
			t.Fatalf("workers=%d: unexpected error %v", workers, err)
		}
		if len(got.Objects) != len(want.Objects) {
			t.Fatalf("workers=%d: %d objects, want %d", workers, len(got.Objects), len(want.Objects))
		}
		for i := range want.Labels {
			if got.Labels[i] != want.Labels[i] {
				t.Fatalf("workers=%d: label %d diverges", workers, i)
			}
		}
		if lastDone != v.T || lastTotal != v.T {
			t.Fatalf("workers=%d: progress ended at %d/%d, want %d/%d", workers, lastDone, lastTotal, v.T, v.T)
		}
	}
}

// TestLabelCtxPreCancelled: an already-cancelled context returns before
// doing meaningful work.
func TestLabelCtxPreCancelled(t *testing.T) {
	v := noisyVolume(3, 8, 10, 10)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := LabelCtx(ctx, v, Conn26, 0, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("cancelled labelling must not return a result")
	}
}

// TestLabelCtxCancelMidScan cancels from the progress callback once half
// the time steps are labelled — deterministic mid-flight cancellation.
func TestLabelCtxCancelMidScan(t *testing.T) {
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	v := noisyVolume(5, 16, 14, 14)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	maxSeen := 0
	res, err := LabelCtx(ctx, v, Conn26, 0, func(done, total int) {
		if done > maxSeen {
			maxSeen = done
		}
		if done == total/2 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("cancelled labelling must not return a result")
	}
	if maxSeen == 0 || maxSeen >= v.T {
		t.Fatalf("progress reached %d of %d steps; want a genuine mid-flight stop", maxSeen, v.T)
	}
}
