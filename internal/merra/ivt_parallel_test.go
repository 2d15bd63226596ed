package merra

import (
	"context"
	"fmt"
	"math"
	"testing"

	"chaseci/internal/parallel"
)

// IVTInto computes the transport magnitude field into dst, which must match
// the state's horizontal grid (a mismatch panics — a wiring bug, like a bad
// level count). Steady-state derivation through IVTInto allocates nothing:
// the dispatch task and per-shard row buffers recycle through pools and the
// output lives in the caller's buffer.
func IVTInto(dst *Field2D, st *State, levels []float64) {
	g := st.Q.Grid
	if dst.NLon != g.NLon || dst.NLat != g.NLat {
		panic("merra: IVTInto destination grid mismatch")
	}
	_ = ivtIntoCtx(context.Background(), dst.Data, st, levels)
}

// ivtScalarReference is the original per-point trapezoidal integration,
// kept as the ground truth for the latitude-sharded kernel.
func ivtScalarReference(st *State, levels []float64) *Field2D {
	g := st.Q.Grid
	out := NewField2D(g.NLon, g.NLat)
	for j := 0; j < g.NLat; j++ {
		for i := 0; i < g.NLon; i++ {
			var fx, fy float64
			for k := 0; k < g.NLev-1; k++ {
				dp := levels[k] - levels[k+1]
				quA := float64(st.Q.At(i, j, k)) * float64(st.U.At(i, j, k))
				quB := float64(st.Q.At(i, j, k+1)) * float64(st.U.At(i, j, k+1))
				qvA := float64(st.Q.At(i, j, k)) * float64(st.V.At(i, j, k))
				qvB := float64(st.Q.At(i, j, k+1)) * float64(st.V.At(i, j, k+1))
				fx += 0.5 * (quA + quB) * dp
				fy += 0.5 * (qvA + qvB) * dp
			}
			fx /= gravity
			fy /= gravity
			out.Set(i, j, float32(math.Sqrt(fx*fx+fy*fy)))
		}
	}
	return out
}

// TestIVTAllocBound pins the integration's allocation budget: beyond the
// output Field2D (struct + data = 2 allocations), the pooled dispatch task
// and row buffers must make steady-state IVT derivation allocation-free at
// every worker count.
func TestIVTAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; alloc pins run in the non-race job")
	}
	g := Grid{NLon: 96, NLat: 64, NLev: 16}
	gen := NewGenerator(g, 3)
	st := gen.State(0)
	levels := PressureLevels(g.NLev)
	dst := NewField2D(g.NLon, g.NLat)
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			prev := parallel.SetWorkers(workers)
			defer parallel.SetWorkers(prev)
			IVT(st, levels) // warm task + row pools
			allocs := testing.AllocsPerRun(20, func() {
				IVT(st, levels)
			})
			if allocs > 2 {
				t.Fatalf("IVT steady-state allocs/op = %v, want <= 2 (output Field2D only)", allocs)
			}
			allocs = testing.AllocsPerRun(20, func() {
				IVTInto(dst, st, levels)
			})
			if allocs != 0 {
				t.Fatalf("IVTInto steady-state allocs/op = %v, want 0", allocs)
			}
		})
	}
}

// TestIVTIntoMatchesIVT: the into-variant writes the same field IVT
// returns, fully overwriting stale destination contents.
func TestIVTIntoMatchesIVT(t *testing.T) {
	g := Grid{NLon: 24, NLat: 17, NLev: 8}
	gen := NewGenerator(g, 9)
	st := gen.State(3)
	levels := PressureLevels(g.NLev)
	want := IVT(st, levels)
	dst := NewField2D(g.NLon, g.NLat)
	for i := range dst.Data {
		dst.Data[i] = -1 // stale garbage IVTInto must overwrite
	}
	IVTInto(dst, st, levels)
	for i := range want.Data {
		if dst.Data[i] != want.Data[i] {
			t.Fatalf("element %d: got %v, want %v", i, dst.Data[i], want.Data[i])
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("grid-mismatched destination did not panic")
		}
	}()
	IVTInto(NewField2D(g.NLon+1, g.NLat), st, levels)
}

// TestIVTParallelMatchesScalar requires the sharded row-walking kernel to be
// bit-exact with the original per-point integration at every worker count:
// each output element is computed by exactly one worker with an identical
// operation sequence.
func TestIVTParallelMatchesScalar(t *testing.T) {
	for _, g := range []Grid{{NLon: 7, NLat: 5, NLev: 3}, {NLon: 24, NLat: 17, NLev: 8}, {NLon: 33, NLat: 32, NLev: 5}} {
		gen := NewGenerator(g, 9)
		st := gen.State(3)
		levels := PressureLevels(g.NLev)
		want := ivtScalarReference(st, levels)
		for _, workers := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%v/workers=%d", g, workers), func(t *testing.T) {
				prev := parallel.SetWorkers(workers)
				defer parallel.SetWorkers(prev)
				got := IVT(st, levels)
				for i := range want.Data {
					if got.Data[i] != want.Data[i] {
						t.Fatalf("element %d: got %v, want %v (not bit-exact)", i, got.Data[i], want.Data[i])
					}
				}
			})
		}
	}
}
