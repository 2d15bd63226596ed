package tensor

import (
	"fmt"
	"math"
	"testing"

	"chaseci/internal/parallel"
	"chaseci/internal/sim"
)

// The span path must be exactly equal to the scalar engine — same bits in,
// same bits out — across geometries that exercise every way a plane's flat
// run can end: runs that fill their last vector and runs that spill one
// lane into a new one, runs shorter than a vector, single-row and
// single-plane shapes, every group size the kernel has an entry for, planes
// that take several stages, rows longer than a stage, and channel counts on
// both sides of the grain policy. Sweeps run at several worker counts since
// slices shard across workers.

type spanShape struct{ b, cin, cout, d, h, w int }

var spanShapes = []spanShape{
	{1, 1, 1, 1, 1, 1},
	{1, 1, 1, 1, 1, 7},
	{1, 2, 3, 2, 3, 5},
	{1, 2, 2, 3, 7, 7}, // FFN FOV geometry
	{2, 3, 4, 3, 4, 8},
	{3, 2, 3, 2, 5, 9},
	{1, 2, 2, 4, 6, 17},
	{2, 8, 8, 5, 9, 9}, // default-config module geometry
	// Every FOV geometry the repo floods or trains with, at flood batch
	// sizes, and tails on both sides of a vector boundary.
	{8, 8, 8, 5, 9, 9},   // default net, full flood batch: 97 lanes, 13 vectors (7+6)
	{2, 6, 6, 3, 7, 7},   // test/bench net: 61 lanes, 8 vectors (one group)
	{1, 2, 2, 5, 11, 13}, // 163 lanes: 21 vectors (7+7+7), 5 lanes dropped
	{1, 1, 1, 1, 3, 3},   // 13 lanes: 2 vectors, 3 lanes dropped
	{3, 2, 2, 2, 1, 9},   // one row: 9 lanes, one past a vector boundary
	{1, 2, 2, 2, 2, 6},   // 14 lanes at pitch 8: the pad columns end vector 0
	{1, 2, 2, 2, 24, 24}, // 622 lanes: 78 vectors, two stages
	{1, 1, 2, 1, 2, 600}, // rows longer than a stage
}

// TestSpanVectorsPerPlane pins the kernel's work per output plane as a
// count: 8-lane vectors multiplied for h*w outputs. The 4x8 block tiling the
// flat run replaced spent 24 on a 9x9 plane.
func TestSpanVectorsPerPlane(t *testing.T) {
	for _, tc := range []struct{ h, w, vectors int }{
		{9, 9, 13}, // default FOV plane: 81 of 104 lanes reach the output
		{7, 7, 8},  // test FOV plane: 49 of 64
		{15, 15, 32},
		{1, 1, 1},
	} {
		if got := spanPlaneVectors(tc.h, tc.w); got != tc.vectors {
			t.Errorf("spanPlaneVectors(%d, %d) = %d, want %d", tc.h, tc.w, got, tc.vectors)
		}
	}
}

// spanOperands builds one shape's random input, weights and bias.
func spanOperands(sh spanShape) (in, w *Tensor, bias []float32) {
	rng := sim.NewRNG(uint64(31*sh.b + 7*sh.cin + sh.d + sh.h + sh.w))
	in = randTensor(rng, sh.b, sh.cin, sh.d, sh.h, sh.w)
	w = randTensor(rng, sh.cout, sh.cin, 3, 3, 3)
	bias = make([]float32, sh.cout)
	for i := range bias {
		bias[i] = float32(rng.NormFloat64())
	}
	return
}

// convWithEpilogue dispatches the batched conv that fuses ep.
func convWithEpilogue(ep convEpilogue, out, in, w *Tensor, bias []float32, maxBatch int) {
	if ep == epReLU {
		Conv3DBatchReLUInto(out, in, w, bias, maxBatch)
	} else {
		Conv3DBatchInto(out, in, w, bias, maxBatch)
	}
}

func runBothConvPaths(t *testing.T, sh spanShape, ep convEpilogue, maxBatch int) (span, scalar *Tensor) {
	t.Helper()
	in, w, bias := spanOperands(sh)
	span = New(sh.b, sh.cout, sh.d, sh.h, sh.w)
	scalar = New(sh.b, sh.cout, sh.d, sh.h, sh.w)
	prev := SetSpanKernels(true)
	convWithEpilogue(ep, span, in, w, bias, maxBatch)
	SetSpanKernels(false)
	convWithEpilogue(ep, scalar, in, w, bias, maxBatch)
	SetSpanKernels(prev)
	return span, scalar
}

func TestSpanMatchesScalarSweep(t *testing.T) {
	if !SpanKernelsActive() {
		t.Skip("SIMD span kernels unavailable on this CPU/build")
	}
	defer parallel.SetWorkers(parallel.SetWorkers(1))
	for _, workers := range []int{1, 2, 8} {
		parallel.SetWorkers(workers)
		for _, sh := range spanShapes {
			for _, ep := range []convEpilogue{epNone, epReLU} {
				name := fmt.Sprintf("w%d/%v/ep%d", workers, sh, ep)
				span, scalar := runBothConvPaths(t, sh, ep, 0)
				for i := range span.Data {
					if span.Data[i] != scalar.Data[i] {
						t.Fatalf("%s: span[%d]=%g scalar[%d]=%g", name, i, span.Data[i], i, scalar.Data[i])
					}
				}
			}
		}
	}
}

// Partial batches (maxBatch < B) must only touch the live slots on both
// paths; dead slots keep their previous contents.
func TestSpanPartialBatch(t *testing.T) {
	if !SpanKernelsActive() {
		t.Skip("SIMD span kernels unavailable on this CPU/build")
	}
	defer parallel.SetWorkers(parallel.SetWorkers(1))
	for _, workers := range []int{1, 2, 8} {
		parallel.SetWorkers(workers)
		for _, sh := range []spanShape{{4, 2, 3, 2, 5, 7}, {8, 8, 8, 5, 9, 9}, {3, 2, 2, 2, 1, 9}} {
			for _, ep := range []convEpilogue{epNone, epReLU} {
				for _, maxBatch := range []int{1, sh.b - 1} {
					span, scalar := runBothConvPaths(t, sh, ep, maxBatch)
					live := maxBatch * sh.cout * sh.d * sh.h * sh.w
					for i := 0; i < live; i++ {
						if span.Data[i] != scalar.Data[i] {
							t.Fatalf("w%d/%v/ep%d/batch %d: live slot diverges at %d: span=%g scalar=%g",
								workers, sh, ep, maxBatch, i, span.Data[i], scalar.Data[i])
						}
					}
					for i := live; i < len(span.Data); i++ {
						if span.Data[i] != 0 {
							t.Fatalf("w%d/%v/ep%d/batch %d: dead slot written at %d: %g",
								workers, sh, ep, maxBatch, i, span.Data[i])
						}
					}
				}
			}
		}
	}
}

// The flat kernel multiplies lanes it never keeps: the two pad columns
// between rows, the lanes past a plane's last element, and — through its
// loads running up to seven lanes past the run — whatever lies after the
// plane: the next padded plane, the next batch item, the buffer's slack.
// Fill all of that with NaN and nothing may change: with one batch item's
// padded block (borders included) and the slack tail poisoned, every other
// item's output is bit-equal to the scalar engine's on the clean input, so
// NaN-free, while the poisoned item's own output is NaN throughout.
func TestSpanOverReadsNeverReachOutput(t *testing.T) {
	if !SpanKernelsActive() {
		t.Skip("SIMD span kernels unavailable on this CPU/build")
	}
	nan := float32(math.NaN())
	for _, sh := range []spanShape{{3, 2, 3, 2, 5, 9}, {4, 8, 8, 5, 9, 9}, {3, 6, 6, 3, 7, 7}, {3, 1, 1, 1, 3, 3}, {3, 2, 2, 2, 1, 9}} {
		for _, ep := range []convEpilogue{epNone, epReLU} {
			in, w, bias := spanOperands(sh)
			want := New(sh.b, sh.cout, sh.d, sh.h, sh.w)
			prev := SetSpanKernels(false)
			convWithEpilogue(ep, want, in, w, bias, 0)
			SetSpanKernels(prev)

			// The dispatch's staging, then the poison.
			const poisoned = 1
			nch := sh.b * sh.cin
			pch := (sh.d + 2) * (sh.h + 2) * (sh.w + 2)
			pad := make([]float32, spanPadLen(nch, sh.d, sh.h, sh.w))
			fillPadded(pad, in.Data, nch, sh.d, sh.h, sh.w)
			for i := poisoned * sh.cin * pch; i < (poisoned+1)*sh.cin*pch; i++ {
				pad[i] = nan
			}
			for i := nch * pch; i < len(pad); i++ {
				pad[i] = nan
			}
			got := New(sh.b, sh.cout, sh.d, sh.h, sh.w)
			task := &convBatch{out: got.Data, w: w.Data, bias: bias, pad: pad, ep: ep,
				cout: sh.cout, cin: sh.cin, d: sh.d, h: sh.h, wd: sh.w}
			task.runSpan(0, sh.b*sh.cout*sh.d)

			item := sh.cout * sh.d * sh.h * sh.w
			for i, v := range got.Data {
				switch {
				case i/item == poisoned:
					if v == v {
						t.Fatalf("%v/ep%d: poisoned item's output %d is %g, want NaN (the poison is not live)", sh, ep, i, v)
					}
				case math.Float32bits(v) != math.Float32bits(want.Data[i]):
					t.Fatalf("%v/ep%d: item %d output %d = %g, scalar engine on the clean input %g",
						sh, ep, i/item, i, v, want.Data[i])
				}
			}
		}
	}
}

// The 4-d single-input wrappers route through the same dispatch; pin the
// span path against the naive reference conv as well as the scalar engine.
func TestSpanConv3DIntoMatchesScalar(t *testing.T) {
	if !SpanKernelsActive() {
		t.Skip("SIMD span kernels unavailable on this CPU/build")
	}
	rng := sim.NewRNG(11)
	in := randTensor(rng, 3, 4, 6, 11)
	w := randTensor(rng, 2, 3, 3, 3, 3)
	bias := []float32{0.3, -0.7}
	span := New(2, 4, 6, 11)
	scalar := New(2, 4, 6, 11)
	prev := SetSpanKernels(true)
	Conv3DInto(span, in, w, bias)
	SetSpanKernels(false)
	Conv3DInto(scalar, in, w, bias)
	SetSpanKernels(prev)
	for i := range span.Data {
		if span.Data[i] != scalar.Data[i] {
			t.Fatalf("Conv3DInto diverges at %d: span=%g scalar=%g", i, span.Data[i], scalar.Data[i])
		}
	}
}

// Non-3x3x3 kernels must keep taking the scalar engine untouched (the span
// path only claims the 3x3x3 geometry).
func TestSpanLeavesGenericKernelsAlone(t *testing.T) {
	rng := sim.NewRNG(13)
	in := randTensor(rng, 1, 2, 3, 5, 7)
	w := randTensor(rng, 2, 2, 1, 1, 1)
	out := New(1, 2, 3, 5, 7)
	ref := New(1, 2, 3, 5, 7)
	prev := SetSpanKernels(true)
	Conv3DBatchInto(out, in, w, nil, 0)
	SetSpanKernels(false)
	Conv3DBatchInto(ref, in, w, nil, 0)
	SetSpanKernels(prev)
	for i := range out.Data {
		if out.Data[i] != ref.Data[i] {
			t.Fatalf("1x1x1 conv diverges at %d", i)
		}
	}
}

// The span path must stay allocation-free in steady state: the padded copy
// comes from the pooled scratch arena.
func TestSpanAllocFree(t *testing.T) {
	if !SpanKernelsActive() {
		t.Skip("SIMD span kernels unavailable on this CPU/build")
	}
	if raceEnabled {
		t.Skip("alloc bounds are meaningless under -race")
	}
	rng := sim.NewRNG(17)
	in := randTensor(rng, 8, 6, 3, 7, 7)
	w := randTensor(rng, 6, 6, 3, 3, 3)
	bias := make([]float32, 6)
	out := New(8, 6, 3, 7, 7)
	Conv3DBatchReLUInto(out, in, w, bias, 0) // warm pools
	allocs := testing.AllocsPerRun(50, func() {
		Conv3DBatchReLUInto(out, in, w, bias, 0)
	})
	if allocs != 0 {
		t.Fatalf("span conv allocates %.1f/op, want 0", allocs)
	}
}
