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

// TestConv3DBackwardIntoMatchesScalar requires gradW and gradB to be
// bit-exact at every worker count (they are owned per output channel) and
// gradIn to be bit-exact serially and within roundoff when the reduction
// over output-channel shards reassociates additions.
func TestConv3DBackwardIntoMatchesScalar(t *testing.T) {
	rng := sim.NewRNG(11)
	for _, tc := range convCases {
		in := randTensor(rng, tc.cin, tc.d, tc.h, tc.w)
		weight := randTensor(rng, tc.cout, tc.cin, tc.kd, tc.kh, tc.kw)
		gradOut := randTensor(rng, tc.cout, tc.d, tc.h, tc.w)
		wantIn, wantW, wantB := conv3dBackwardScalar(in, weight, gradOut)
		for _, workers := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%+v/workers=%d", tc, workers), func(t *testing.T) {
				prev := parallel.SetWorkers(workers)
				defer parallel.SetWorkers(prev)
				gradIn, gradW, gradB := New(in.Shape...), New(weight.Shape...), make([]float32, tc.cout)
				Conv3DBackwardInto(gradIn, gradW, gradB, in, weight, gradOut)
				for i := range wantW.Data {
					if gradW.Data[i] != wantW.Data[i] {
						t.Fatalf("gradW[%d]: got %v, want %v (not bit-exact)", i, gradW.Data[i], wantW.Data[i])
					}
				}
				for i := range wantB {
					if gradB[i] != wantB[i] {
						t.Fatalf("gradB[%d]: got %v, want %v (not bit-exact)", i, gradB[i], wantB[i])
					}
				}
				for i := range wantIn.Data {
					got, want := float64(gradIn.Data[i]), float64(wantIn.Data[i])
					if workers == 1 {
						if got != want {
							t.Fatalf("gradIn[%d]: got %v, want %v (serial must be bit-exact)", i, got, want)
						}
						continue
					}
					if diff := math.Abs(got - want); diff > 1e-5*(1+math.Abs(want)) {
						t.Fatalf("gradIn[%d]: got %v, want %v (|diff|=%g beyond reduction roundoff)", i, got, want, diff)
					}
				}
			})
		}
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
