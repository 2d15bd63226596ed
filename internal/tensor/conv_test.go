package tensor

import (
	"fmt"
	"math"
	"testing"

	"chaseci/internal/parallel"
	"chaseci/internal/sim"
)

// conv3dScalar is the original single-goroutine reference kernel, kept
// verbatim as the ground truth the parallel Into kernels must reproduce.
func conv3dScalar(in, weight *Tensor, bias []float32) *Tensor {
	cin, d, h, w := in.Shape[0], in.Shape[1], in.Shape[2], in.Shape[3]
	cout := weight.Shape[0]
	kd, kh, kw := weight.Shape[2], weight.Shape[3], weight.Shape[4]
	pd, ph, pw := kd/2, kh/2, kw/2
	out := New(cout, d, h, w)
	for oc := 0; oc < cout; oc++ {
		var b float32
		if bias != nil {
			b = bias[oc]
		}
		for z := 0; z < d; z++ {
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					sum := b
					for ic := 0; ic < cin; ic++ {
						for dz := 0; dz < kd; dz++ {
							iz := z + dz - pd
							if iz < 0 || iz >= d {
								continue
							}
							for dy := 0; dy < kh; dy++ {
								iy := y + dy - ph
								if iy < 0 || iy >= h {
									continue
								}
								wBase := (((oc*cin+ic)*kd+dz)*kh + dy) * kw
								iBase := ((ic*d+iz)*h + iy) * w
								for dx := 0; dx < kw; dx++ {
									ix := x + dx - pw
									if ix < 0 || ix >= w {
										continue
									}
									sum += weight.Data[wBase+dx] * in.Data[iBase+ix]
								}
							}
						}
					}
					out.Data[vIdx(out.Shape, oc, z, y, x)] = sum
				}
			}
		}
	}
	return out
}

// conv3dBackwardScalar is the original reference backward pass.
func conv3dBackwardScalar(in, weight, gradOut *Tensor) (gradIn, gradW *Tensor, gradB []float32) {
	cin, d, h, w := in.Shape[0], in.Shape[1], in.Shape[2], in.Shape[3]
	cout := weight.Shape[0]
	kd, kh, kw := weight.Shape[2], weight.Shape[3], weight.Shape[4]
	pd, ph, pw := kd/2, kh/2, kw/2
	gradIn = New(cin, d, h, w)
	gradW = New(cout, cin, kd, kh, kw)
	gradB = make([]float32, cout)
	for oc := 0; oc < cout; oc++ {
		for z := 0; z < d; z++ {
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					g := gradOut.Data[vIdx(gradOut.Shape, oc, z, y, x)]
					if g == 0 {
						continue
					}
					gradB[oc] += g
					for ic := 0; ic < cin; ic++ {
						for dz := 0; dz < kd; dz++ {
							iz := z + dz - pd
							if iz < 0 || iz >= d {
								continue
							}
							for dy := 0; dy < kh; dy++ {
								iy := y + dy - ph
								if iy < 0 || iy >= h {
									continue
								}
								wBase := (((oc*cin+ic)*kd+dz)*kh + dy) * kw
								iBase := ((ic*d+iz)*h + iy) * w
								for dx := 0; dx < kw; dx++ {
									ix := x + dx - pw
									if ix < 0 || ix >= w {
										continue
									}
									gradW.Data[wBase+dx] += g * in.Data[iBase+ix]
									gradIn.Data[iBase+ix] += g * weight.Data[wBase+dx]
								}
							}
						}
					}
				}
			}
		}
	}
	return gradIn, gradW, gradB
}

type convCase struct {
	cin, d, h, w int
	cout         int
	kd, kh, kw   int
}

var convCases = []convCase{
	{1, 1, 1, 1, 1, 1, 1, 1},
	{1, 3, 5, 7, 2, 3, 3, 3},
	{2, 3, 4, 5, 3, 3, 3, 3}, // even dims
	{3, 2, 7, 6, 2, 3, 1, 5}, // mixed kernel
	{2, 4, 6, 8, 4, 2, 2, 2}, // even kernel
	{3, 4, 8, 9, 5, 3, 3, 3}, // large enough to shard
	{2, 5, 9, 9, 1, 5, 3, 3},
}

func randTensor(rng *sim.RNG, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64())
	}
	return t
}

// TestConv3DIntoMatchesScalar sweeps odd/even shapes and worker counts and
// requires bit-exact agreement with the scalar reference kernel.
func TestConv3DIntoMatchesScalar(t *testing.T) {
	rng := sim.NewRNG(7)
	for _, tc := range convCases {
		in := randTensor(rng, tc.cin, tc.d, tc.h, tc.w)
		weight := randTensor(rng, tc.cout, tc.cin, tc.kd, tc.kh, tc.kw)
		bias := make([]float32, tc.cout)
		for i := range bias {
			bias[i] = float32(rng.NormFloat64())
		}
		want := conv3dScalar(in, weight, bias)
		for _, workers := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%+v/workers=%d", tc, workers), func(t *testing.T) {
				prev := parallel.SetWorkers(workers)
				defer parallel.SetWorkers(prev)
				out := New(tc.cout, tc.d, tc.h, tc.w)
				out.Fill(999) // stale garbage must be overwritten
				Conv3DInto(out, in, weight, bias)
				for i := range want.Data {
					if out.Data[i] != want.Data[i] {
						t.Fatalf("element %d: got %v, want %v (not bit-exact)", i, out.Data[i], want.Data[i])
					}
				}
				// Nil bias path.
				outNB := Conv3D(in, weight, nil)
				wantNB := conv3dScalar(in, weight, nil)
				for i := range wantNB.Data {
					if outNB.Data[i] != wantNB.Data[i] {
						t.Fatalf("nil-bias element %d: got %v, want %v", i, outNB.Data[i], wantNB.Data[i])
					}
				}
			})
		}
	}
}

// bwdCases are the backward's geometries: the odd-kernel forward cases, the
// FFN's layers (the bench net's input, module and 1x1x1 output convs, the
// default net's module conv) and eleven output channels, which span two lane
// groups of the weight-gradient kernel.
var bwdCases = append(oddKernelCases(),
	convCase{2, 3, 7, 7, 6, 3, 3, 3},
	convCase{6, 3, 7, 7, 6, 3, 3, 3},
	convCase{6, 3, 7, 7, 1, 1, 1, 1},
	convCase{8, 5, 9, 9, 8, 3, 3, 3},
	convCase{3, 3, 5, 6, 11, 3, 3, 3},
)

func oddKernelCases() (odd []convCase) {
	for _, tc := range convCases {
		if tc.kd%2 == 1 && tc.kh%2 == 1 && tc.kw%2 == 1 {
			odd = append(odd, tc)
		}
	}
	return odd
}

// TestConv3DBackwardIntoMatchesScalar requires all three gradients to be
// bit-exact with the scalar scatter at every worker count, on both the span
// and the scalar engine, with a nil gradIn leaving gradW and gradB as they
// are. Every other case's gradOut is half exact zeros, one of them -0: the
// scatter skips those products, the gathers add them.
func TestConv3DBackwardIntoMatchesScalar(t *testing.T) {
	rng := sim.NewRNG(11)
	defer SetSpanKernels(SetSpanKernels(true))
	for ci, tc := range bwdCases {
		in := randTensor(rng, tc.cin, tc.d, tc.h, tc.w)
		weight := randTensor(rng, tc.cout, tc.cin, tc.kd, tc.kh, tc.kw)
		gradOut := randTensor(rng, tc.cout, tc.d, tc.h, tc.w)
		if ci%2 == 1 {
			for i := range gradOut.Data {
				if i%2 == 0 {
					gradOut.Data[i] = 0
				}
			}
			gradOut.Data[0] = float32(math.Copysign(0, -1))
		}
		wantIn, wantW, wantB := conv3dBackwardScalar(in, weight, gradOut)
		for _, span := range []bool{true, false} {
			for _, workers := range []int{1, 2, 8} {
				t.Run(fmt.Sprintf("%+v/span=%v/workers=%d", tc, span, workers), func(t *testing.T) {
					SetSpanKernels(span)
					defer parallel.SetWorkers(parallel.SetWorkers(workers))
					gradIn, gradW, gradB := New(in.Shape...), New(weight.Shape...), make([]float32, tc.cout)
					gradIn.Fill(999) // stale garbage must be overwritten
					gradW.Fill(999)
					Conv3DBackwardInto(gradIn, gradW, gradB, in, weight, gradOut)
					sameBits(t, "gradIn", gradIn.Data, wantIn.Data)
					sameBits(t, "gradW", gradW.Data, wantW.Data)
					sameBits(t, "gradB", gradB, wantB)

					gradW.Fill(999)
					Conv3DBackwardInto(nil, gradW, gradB, in, weight, gradOut)
					sameBits(t, "gradW with nil gradIn", gradW.Data, wantW.Data)
					sameBits(t, "gradB with nil gradIn", gradB, wantB)
				})
			}
		}
	}
}

func sameBits(t *testing.T, name string, got, want []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s[%d]: got %v, want %v (not bit-exact)", name, i, got[i], want[i])
		}
	}
}

// Even kernels have no symmetric "same" padding, so the input gradient is
// not a flipped forward conv: the backward refuses them, as it does a shape
// mismatch.
func TestConv3DBackwardIntoRefusesEvenKernels(t *testing.T) {
	rng := sim.NewRNG(5)
	for _, k := range [][3]int{{2, 2, 2}, {3, 3, 2}, {1, 4, 1}} {
		in := randTensor(rng, 2, 4, 6, 8)
		weight := randTensor(rng, 3, 2, k[0], k[1], k[2])
		gradOut := randTensor(rng, 3, 4, 6, 8)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("kernel %v: no panic", k)
				}
			}()
			Conv3DBackwardInto(New(in.Shape...), New(weight.Shape...), make([]float32, 3), in, weight, gradOut)
		}()
	}
}

// TestConv3DIntoReusesBuffer guards the allocation contract: repeated
// Conv3DInto calls into the same output must not allocate.
func TestConv3DIntoReusesBuffer(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; alloc pins run in the non-race job")
	}
	rng := sim.NewRNG(3)
	in := randTensor(rng, 4, 3, 7, 7)
	weight := randTensor(rng, 4, 4, 3, 3, 3)
	bias := make([]float32, 4)
	out := New(4, 3, 7, 7)
	Conv3DInto(out, in, weight, bias) // warm pools
	allocs := testing.AllocsPerRun(50, func() {
		Conv3DInto(out, in, weight, bias)
	})
	if allocs != 0 {
		t.Fatalf("Conv3DInto steady-state allocs/op = %v, want 0", allocs)
	}
}

// TestConv3DBackwardIntoReusesBuffer: the backward is allocation-free in
// steady state on both engines, with and without the input gradient.
func TestConv3DBackwardIntoReusesBuffer(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; alloc pins run in the non-race job")
	}
	defer SetSpanKernels(SetSpanKernels(true))
	rng := sim.NewRNG(3)
	in := randTensor(rng, 6, 3, 7, 7)
	weight := randTensor(rng, 6, 6, 3, 3, 3)
	gradOut := randTensor(rng, 6, 3, 7, 7)
	gradIn, gradW, gradB := New(in.Shape...), New(weight.Shape...), make([]float32, 6)
	for _, span := range []bool{true, false} {
		SetSpanKernels(span)
		for _, gi := range []*Tensor{gradIn, nil} {
			Conv3DBackwardInto(gi, gradW, gradB, in, weight, gradOut) // warm pools
			allocs := testing.AllocsPerRun(50, func() {
				Conv3DBackwardInto(gi, gradW, gradB, in, weight, gradOut)
			})
			if allocs != 0 {
				t.Fatalf("span=%v gradIn=%v: Conv3DBackwardInto steady-state allocs/op = %v, want 0", span, gi != nil, allocs)
			}
		}
	}
}

// BenchmarkConv3DBackwardInto times the backward at the FFN's layer shapes:
// the bench net's input, module and output convs and the default net's
// module conv, serial and on two workers.
func BenchmarkConv3DBackwardInto(b *testing.B) {
	for _, tc := range []struct {
		name string
		c    convCase
	}{
		{"in_2x3x7x7_to6", convCase{2, 3, 7, 7, 6, 3, 3, 3}},
		{"mod_6x3x7x7_to6", convCase{6, 3, 7, 7, 6, 3, 3, 3}},
		{"mod_8x5x9x9_to8", convCase{8, 5, 9, 9, 8, 3, 3, 3}},
		{"out_6x3x7x7_to1_k1", convCase{6, 3, 7, 7, 1, 1, 1, 1}},
	} {
		c := tc.c
		rng := sim.NewRNG(1)
		in := randTensor(rng, c.cin, c.d, c.h, c.w)
		weight := randTensor(rng, c.cout, c.cin, c.kd, c.kh, c.kw)
		gradOut := randTensor(rng, c.cout, c.d, c.h, c.w)
		gradIn, gradW, gradB := New(in.Shape...), New(weight.Shape...), make([]float32, c.cout)
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(b *testing.B) {
				defer parallel.SetWorkers(parallel.SetWorkers(workers))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					Conv3DBackwardInto(gradIn, gradW, gradB, in, weight, gradOut)
				}
			})
		}
	}
}
