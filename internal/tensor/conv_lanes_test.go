package tensor

import (
	"fmt"
	"math"
	"testing"

	"chaseci/internal/sim"
)

// toBlocked copies item b of a (B, C, D, H, W) tensor into a fresh Blocked
// buffer with c >= C channels per position: zero shell, and NaN in the
// lanes past C, which no conv may read.
func toBlocked(t *Tensor, b, c int) ([]float32, Blocked) {
	ch, d, h, w := t.Shape[1], t.Shape[2], t.Shape[3], t.Shape[4]
	lay := Blocked{D: d, H: h, W: w, C: c}
	buf := make([]float32, lay.Len())
	nan := float32(math.NaN())
	for z := 0; z < d; z++ {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				p := buf[lay.Pos(z, y, x):][:c]
				for i := range p {
					p[i] = nan
					if i < ch {
						p[i] = t.Data[(((b*ch+i)*d+z)*h+y)*w+x]
					}
				}
			}
		}
	}
	return buf, lay
}

// laneSpans lists rows for ConvLanes33ReLU: every row whole, or row r as
// [r%w/2, r%w/2 + 1 + r%(w+1)) clipped, so widths 1..w all occur and some
// rows are empty.
func laneSpans(d, h, w int, whole bool) []int32 {
	spans := make([]int32, 2*d*h)
	for r := 0; r < d*h; r++ {
		lo, hi := 0, w
		if !whole {
			lo = r % w / 2
			hi = min(lo+r%(w+1), w)
		}
		spans[2*r], spans[2*r+1] = int32(lo), int32(hi)
	}
	return spans
}

// TestConvLanesMatchesBatchedConv pins the channel-lane engine bit-exact to
// Conv3DBatchReLUInto (and, with a residual, to Conv3DBatchInto, AddInPlace,
// ReLUInto) over every tile width 1..laneTile and past it, input channels
// 2..16 and output channels on both sides of a vector, on the AVX2 kernel and
// on its Go twin. Positions outside the spans must keep their sentinel: the
// engine writes only what it is asked for.
func TestConvLanesMatchesBatchedConv(t *testing.T) {
	defer SetSpanKernels(SetSpanKernels(true))
	rng := sim.NewRNG(41)
	const d, h = 2, 3
	for _, cin := range []int{2, 4, 6, 8, 11, 16} {
		for _, cout := range []int{4, 6, 8, 12, 16} {
			for _, w := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 25} {
				in := randTensor(rng, 1, cin, d, h, w)
				wt := randTensor(rng, cout, cin, 3, 3, 3)
				res := randTensor(rng, 1, cout, d, h, w)
				bias := make([]float32, cout)
				for i := range bias {
					bias[i] = float32(rng.NormFloat64())
				}
				wantReLU := New(1, cout, d, h, w)
				Conv3DBatchReLUInto(wantReLU, in, wt, bias, 0)
				wantRes := batchRef(in, wt, bias, res, epResReLU)
				c8 := LaneChannels(cout)
				lw := make([]float32, LaneWeights33Len(cout, cin))
				PackLaneWeights33(lw, wt, bias)
				inBuf, li := toBlocked(in, 0, cin+cin%3) // a pitch that is not the channel count
				resBuf, _ := toBlocked(res, 0, c8)
				lo := Blocked{D: d, H: h, W: w, C: c8}
				for _, span := range []bool{true, false} {
					SetSpanKernels(span)
					for _, whole := range []bool{true, false} {
						spans := laneSpans(d, h, w, whole)
						for _, withRes := range []bool{false, true} {
							name := fmt.Sprintf("cin%d/cout%d/w%d/span=%v/whole=%v/res=%v", cin, cout, w, span, whole, withRes)
							want, r := wantReLU, []float32(nil)
							if withRes {
								want, r = wantRes, resBuf
							}
							out := make([]float32, lo.Len())
							sentinel := float32(math.Inf(-1))
							for i := range out {
								out[i] = sentinel
							}
							ConvLanes33ReLU(out, lo, inBuf, li, cin, lw, r, spans)
							for z := 0; z < d; z++ {
								for y := 0; y < h; y++ {
									row := 2 * (z*h + y)
									for x := 0; x < w; x++ {
										p := out[lo.Pos(z, y, x):][:c8]
										if x < int(spans[row]) || x >= int(spans[row+1]) {
											for _, v := range p {
												if v != sentinel {
													t.Fatalf("%s: position (%d,%d,%d) outside the spans was written", name, z, y, x)
												}
											}
											continue
										}
										for oc := 0; oc < cout; oc++ {
											ref := want.Data[((oc*d+z)*h+y)*w+x]
											if math.Float32bits(p[oc]) != math.Float32bits(ref) {
												t.Fatalf("%s: (%d,%d,%d) oc %d = %v, want %v (not bit-exact)", name, z, y, x, oc, p[oc], ref)
											}
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

// The fused ReLU keeps what tensor.relu keeps: a NaN sum and a -0 sum pass
// through, on both engines. Weights of -0 against a zero input add -0 at
// every tap, so a -0 bias stays -0, and adding a -0 residual keeps it so.
func TestConvLanesReLUKeepsNaNAndNegativeZero(t *testing.T) {
	defer SetSpanKernels(SetSpanKernels(true))
	negZero := float32(math.Copysign(0, -1))
	wt := New(8, 1, 3, 3, 3)
	wt.Fill(negZero)
	bias := []float32{negZero, float32(math.NaN()), -1, 2, negZero, 0, -3, 4}
	in := New(1, 1, 1, 1, 3)
	res := New(1, 8, 1, 1, 3)
	for x := 0; x < 3; x++ {
		res.Data[4*3+x] = negZero
	}
	lw := make([]float32, LaneWeights33Len(8, 1))
	PackLaneWeights33(lw, wt, bias)
	inBuf, li := toBlocked(in, 0, 1)
	resBuf, lo := toBlocked(res, 0, 8)
	for _, span := range []bool{true, false} {
		SetSpanKernels(span)
		for _, withRes := range []bool{false, true} {
			want := New(1, 8, 1, 1, 3)
			Conv3DBatchReLUInto(want, in, wt, bias, 0)
			r := []float32(nil)
			if withRes {
				want, r = batchRef(in, wt, bias, res, epResReLU), resBuf
			}
			out := make([]float32, lo.Len())
			ConvLanes33ReLU(out, lo, inBuf, li, 1, lw, r, []int32{0, 3})
			for x := 0; x < 3; x++ {
				for l, v := range out[lo.Pos(0, 0, x):][:8] {
					if ref := want.Data[l*3+x]; math.Float32bits(v) != math.Float32bits(ref) {
						t.Fatalf("span=%v res=%v lane %d: %v (bits %#x), want %v (bits %#x)",
							span, withRes, l, v, math.Float32bits(v), ref, math.Float32bits(ref))
					}
				}
			}
			lane := 0 // -0 bias, no residual
			if withRes {
				lane = 4 // -0 bias plus a -0 residual
			}
			if got := out[lo.Pos(0, 0, 1)+lane]; math.Float32bits(got) != math.Float32bits(negZero) {
				t.Fatalf("span=%v res=%v: a -0 sum came out as %v", span, withRes, got)
			}
			if got := out[lo.Pos(0, 0, 1)+1]; got == got {
				t.Fatalf("span=%v res=%v: a NaN sum came out as %v", span, withRes, got)
			}
		}
	}
}

// TestConvLanesAllocFree: a layer allocates nothing.
func TestConvLanesAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc bounds are meaningless under -race")
	}
	rng := sim.NewRNG(43)
	in := randTensor(rng, 1, 8, 5, 9, 9)
	wt := randTensor(rng, 8, 8, 3, 3, 3)
	inBuf, li := toBlocked(in, 0, 8)
	out := make([]float32, li.Len())
	lw := make([]float32, LaneWeights33Len(8, 8))
	PackLaneWeights33(lw, wt, nil)
	spans := laneSpans(5, 9, 9, true)
	allocs := testing.AllocsPerRun(50, func() {
		ConvLanes33ReLU(out, li, inBuf, li, 8, lw, inBuf, spans)
	})
	if allocs != 0 {
		t.Fatalf("ConvLanes33ReLU allocates %.1f/op, want 0", allocs)
	}
}

// BenchmarkConvLanes33ReLU times one module conv of the default flood
// geometry (8 features, 5x9x9, every position) on one slot.
func BenchmarkConvLanes33ReLU(b *testing.B) {
	rng := sim.NewRNG(1)
	in := randTensor(rng, 1, 8, 5, 9, 9)
	wt := randTensor(rng, 8, 8, 3, 3, 3)
	inBuf, li := toBlocked(in, 0, 8)
	out := make([]float32, li.Len())
	lw := make([]float32, LaneWeights33Len(8, 8))
	PackLaneWeights33(lw, wt, nil)
	spans := laneSpans(5, 9, 9, true)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ConvLanes33ReLU(out, li, inBuf, li, 8, lw, nil, spans)
	}
}

// TestConvLanesBackwardMatchesConv3DBackward pins training's lane backward
// to Conv3DBackwardInto, bit for bit, on the AVX2 kernels and on their Go
// twins: ConvLanes33 with PackLaneWeights33Flipped weights and the skip
// gradient as its residual is gradIn followed by AddInPlace, and
// ConvLanesGradW33 is gradW and gradB, for channel counts on both sides of
// a vector and past two. MaskReLUGrad on the post-activation is
// ReLUBackwardInto on the pre-activation, -0 and NaN included.
func TestConvLanesBackwardMatchesConv3DBackward(t *testing.T) {
	defer SetSpanKernels(SetSpanKernels(true))
	rng := sim.NewRNG(47)
	const d, h, w = 3, 4, 5
	for _, cin := range []int{2, 6, 8, 12} {
		for _, cout := range []int{6, 8, 12, 17} {
			in := randTensor(rng, 1, cin, d, h, w)
			wt := randTensor(rng, cout, cin, 3, 3, 3)
			gOut := randTensor(rng, 1, cout, d, h, w)
			skip := randTensor(rng, 1, cin, d, h, w)
			in3 := &Tensor{Shape: in.Shape[1:], Data: in.Data}
			gOut3 := &Tensor{Shape: gOut.Shape[1:], Data: gOut.Data}
			lw := make([]float32, LaneWeights33Len(cin, cout))
			PackLaneWeights33Flipped(lw, wt)
			inBuf, li := toBlocked(in, 0, cin)
			gBuf, lg := toBlocked(gOut, 0, LaneChannels(cout))
			skipBuf, lo := toBlocked(skip, 0, LaneChannels(cin))
			for _, span := range []bool{true, false} {
				SetSpanKernels(span)
				name := fmt.Sprintf("cin%d/cout%d/span=%v", cin, cout, span)
				gradIn, gradW, gradB := New(cin, d, h, w), New(cout, cin, 3, 3, 3), make([]float32, cout)
				Conv3DBackwardInto(gradIn, gradW, gradB, in3, wt, gOut3)
				gradIn.AddInPlace(&Tensor{Shape: gradIn.Shape, Data: skip.Data})

				out := make([]float32, lo.Len())
				ConvLanes33(out, lo, gBuf, lg, cout, lw, skipBuf, laneSpans(d, h, w, true))
				gw, gb := make([]float32, len(gradW.Data)), make([]float32, cout)
				ConvLanesGradW33(gw, gb, inBuf, li, cin, gBuf, lg, cout)
				for z := 0; z < d; z++ {
					for y := 0; y < h; y++ {
						for x := 0; x < w; x++ {
							for c := 0; c < cin; c++ {
								got, want := out[lo.Pos(z, y, x)+c], gradIn.Data[((c*d+z)*h+y)*w+x]
								if math.Float32bits(got) != math.Float32bits(want) {
									t.Fatalf("%s: gradIn (%d,%d,%d) c %d = %v, want %v", name, z, y, x, c, got, want)
								}
							}
						}
					}
				}
				for i, want := range gradW.Data {
					if math.Float32bits(gw[i]) != math.Float32bits(want) {
						t.Fatalf("%s: gradW[%d] = %v, want %v", name, i, gw[i], want)
					}
				}
				for i, want := range gradB {
					if math.Float32bits(gb[i]) != math.Float32bits(want) {
						t.Fatalf("%s: gradB[%d] = %v, want %v", name, i, gb[i], want)
					}
				}
			}
		}
	}

	negZero := float32(math.Copysign(0, -1))
	nan := float32(math.NaN())
	pre := New(1, 8, 1, 1, 2)
	copy(pre.Data, []float32{negZero, 0, -1, 2, nan, 1e-40, -1e-40, 3, 5, -5, 0, negZero, nan, 7, -7, 1})
	act := New(1, 8, 1, 1, 2)
	ReLUInto(act, pre)
	g := randTensor(rng, 1, 8, 1, 1, 2)
	want := New(1, 8, 1, 1, 2)
	ReLUBackwardInto(want, pre, g)
	gBuf, lay := toBlocked(g, 0, 8)
	actBuf, _ := toBlocked(act, 0, 8)
	MaskReLUGrad(gBuf, actBuf, lay)
	for x := 0; x < 2; x++ {
		for c, v := range gBuf[lay.Pos(0, 0, x):][:8] {
			if ref := want.Data[c*2+x]; math.Float32bits(v) != math.Float32bits(ref) {
				t.Fatalf("MaskReLUGrad channel %d x %d (pre %v): %v, want %v", c, x, pre.Data[c*2+x], v, ref)
			}
		}
	}
}
