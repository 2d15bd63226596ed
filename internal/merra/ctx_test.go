package merra

import (
	"context"
	"errors"
	"math"
	"testing"
)

// TestIVTCtxMatchesIVT pins the wrapper equivalence bit-exactly.
func TestIVTCtxMatchesIVT(t *testing.T) {
	g := Grid{NLon: 24, NLat: 18, NLev: 5}
	gen := NewGenerator(g, 9)
	levels := PressureLevels(g.NLev)
	st := gen.State(3)
	want := IVT(st, levels)
	got, err := IVTCtx(context.Background(), st, levels)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("IVT value %d diverges: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestIVTCtxPreCancelled(t *testing.T) {
	g := Grid{NLon: 16, NLat: 12, NLev: 4}
	gen := NewGenerator(g, 9)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := IVTCtx(ctx, gen.State(0), PressureLevels(g.NLev))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if out != nil {
		t.Fatal("cancelled IVT must not return a field")
	}
}

// TestIVTVolumeCtxCancelMidVolume cancels from the per-step progress
// callback and expects a prompt stop.
func TestIVTVolumeCtxCancelMidVolume(t *testing.T) {
	g := Grid{NLon: 16, NLat: 12, NLev: 4}
	gen := NewGenerator(g, 9)
	levels := PressureLevels(g.NLev)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	maxDone := 0
	vol, err := IVTVolumeCtx(ctx, gen, levels, 0, 8, func(done, total int) {
		maxDone = done
		if done == 3 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if vol != nil {
		t.Fatal("cancelled volume derivation must not return a volume")
	}
	if maxDone != 3 {
		t.Fatalf("stopped after %d steps, want 3", maxDone)
	}
}

// TestIVTVolumeCtxMatchesIVTVolume pins the wrapper equivalence.
func TestIVTVolumeCtxMatchesIVTVolume(t *testing.T) {
	g := Grid{NLon: 16, NLat: 12, NLev: 4}
	gen := NewGenerator(g, 9)
	levels := PressureLevels(g.NLev)
	want := IVTVolume(gen, levels, 2, 4)
	got, err := IVTVolumeCtx(context.Background(), gen, levels, 2, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("volume value %d diverges", i)
		}
	}
}

// TestIVTVolumeOverDirtyBuffersMatchesFresh: IVTVolumeCtx's row scratch and
// output come from the free list with whatever the last borrower left in
// them. The package runs poisoned, so after a Release every buffer the next
// call borrows is NaN throughout; the volume must still equal, bit for bit,
// the per-step fields integrated from freshly allocated states.
func TestIVTVolumeOverDirtyBuffersMatchesFresh(t *testing.T) {
	levels := PressureLevels(testGrid.NLev)
	const start, steps = 3, 5
	hw := testGrid.HorizontalSize()
	for _, seed := range []uint64{1, 7, 1977} {
		gen := NewGenerator(testGrid, seed)
		var want []float32
		for s := 0; s < steps; s++ {
			want = append(want, IVT(gen.State(start+s), levels).Data...)
		}
		for round := 0; round < 3; round++ {
			vol := IVTVolume(gen, levels, start, steps)
			if vol.Grid != (Grid{NLon: testGrid.NLon, NLat: testGrid.NLat, NLev: steps}) || len(vol.Data) != steps*hw {
				t.Fatalf("volume grid %v with %d values", vol.Grid, len(vol.Data))
			}
			for i, v := range want {
				if math.Float32bits(vol.Data[i]) != math.Float32bits(v) {
					t.Fatalf("seed %d round %d: voxel %d = %v over dirty buffers, %v fresh", seed, round, i, vol.Data[i], v)
				}
			}
			vol.Release()
			if vol.Data != nil {
				t.Fatal("Release must detach Data")
			}
		}
	}
}
