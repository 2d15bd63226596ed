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
// geometry (8 features, 5x9x9, every position) on two slots: two width-1
// calls, or one paired call (ConvLanes33ReLUx2). ns/app is per slot.
func BenchmarkConvLanes33ReLU(b *testing.B) {
	rng := sim.NewRNG(1)
	in := randTensor(rng, 2, 8, 5, 9, 9)
	wt := randTensor(rng, 8, 8, 3, 3, 3)
	in0, li := toBlocked(in, 0, 8)
	in1, _ := toBlocked(in, 1, 8)
	lw := make([]float32, LaneWeights33Len(8, 8))
	PackLaneWeights33(lw, wt, nil)
	spans := laneSpans(5, 9, 9, true)
	for _, width := range []int{1, 2} {
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			b.ReportAllocs()
			if width == 1 {
				out := make([]float32, li.Len())
				for i := 0; i < b.N; i++ {
					ConvLanes33ReLU(out, li, in0, li, 8, lw, nil, spans)
					ConvLanes33ReLU(out, li, in1, li, 8, lw, nil, spans)
				}
			} else {
				pair, lp := pairBlocked(in0, in1, li)
				out := make([]float32, lp.Len())
				lw2 := pairedWeights(lw)
				for i := 0; i < b.N; i++ {
					ConvLanes33ReLUx2(out, lp, pair, lp, 8, lw2, nil, spans)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(2*b.N), "ns/app")
		})
	}
}

// pairBlocked interleaves two buffers of layout lay into one of twice the
// channels, channel c of slot s at 2c+s: ConvLanes33ReLUx2's layout.
func pairBlocked(a, b []float32, lay Blocked) ([]float32, Blocked) {
	lp := lay
	lp.C *= 2
	out := make([]float32, lp.Len())
	for i := range a[:lay.Len()] {
		p, c := i/lay.C, i%lay.C
		out[p*lp.C+2*c], out[p*lp.C+2*c+1] = a[i], b[i]
	}
	return out, lp
}

// pairedWeights is lw in paired form, in a fresh slice.
func pairedWeights(lw []float32) []float32 {
	lw2 := make([]float32, 2*len(lw))
	copy(lw2, lw)
	PairLaneWeights(lw2)
	return lw2
}

// specialInputs plants -0, subnormals, NaN and both infinities among a
// tensor's values.
func specialInputs(t *Tensor) {
	specials := []float32{float32(math.Copysign(0, -1)), math.Float32frombits(1), -math.Float32frombits(0x7fffff),
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}
	for i := 5; i < len(t.Data); i += 13 {
		t.Data[i] = specials[i%len(specials)]
	}
}

// TestConvLanesPairedMatchesSlots holds the paired engine to two width-1
// calls, bit for bit and slot by slot, on every body the host runs (the
// 16-lane AVX-512F kernel against the AVX2 one, and the Go twins against
// each other): input channels 2/6/8/12 and output channels 6/8/12/17 (one
// group and several, lanes past cout), every tile width 1..12 and a row of
// two tiles, full, ragged and empty spans, with and without a residual, at
// a +0 and a -Inf floor, on inputs holding -0, subnormals, NaN and
// infinities. A partner slot full of NaN (on every other row width and
// spans kind) must leave a slot's bits as they are alone, and positions
// outside the spans must keep their sentinel.
func TestConvLanesPairedMatchesSlots(t *testing.T) {
	defer SetSpanKernels(SetSpanKernels(true))
	rng := sim.NewRNG(53)
	const d, h = 2, 3
	nan := float32(math.NaN())
	sentinel := float32(-7.5)
	for _, cin := range []int{2, 6, 8, 12} {
		for _, cout := range []int{6, 8, 12, 17} {
			for _, w := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13} {
				in := randTensor(rng, 2, cin, d, h, w)
				specialInputs(in)
				res := randTensor(rng, 2, cout, d, h, w)
				specialInputs(res)
				wt := randTensor(rng, cout, cin, 3, 3, 3)
				bias := make([]float32, cout)
				for i := range bias {
					bias[i] = float32(rng.NormFloat64())
				}
				c8 := LaneChannels(cout)
				lw := make([]float32, LaneWeights33Len(cout, cin))
				PackLaneWeights33(lw, wt, bias)
				lw2 := pairedWeights(lw)
				pitch := cin + cin%3 // a pitch that is not the channel count
				in0, li := toBlocked(in, 0, pitch)
				in1, _ := toBlocked(in, 1, pitch)
				res0, lo := toBlocked(res, 0, c8)
				res1, _ := toBlocked(res, 1, c8)
				dead := make([]float32, li.Len()) // slot 1 all NaN inside the shell
				for z := 0; z < d; z++ {
					for y := 0; y < h; y++ {
						for x := 0; x < w; x++ {
							for c := 0; c < pitch; c++ {
								dead[li.Pos(z, y, x)+c] = nan
							}
						}
					}
				}
				empty := make([]int32, 2*d*h)
				for _, span := range []bool{true, false} {
					SetSpanKernels(span)
					for si, spans := range [][]int32{laneSpans(d, h, w, true), laneSpans(d, h, w, false), empty} {
						for _, withRes := range []bool{false, true} {
							for _, floor := range []float32{0, float32(math.Inf(-1))} {
								partner := []string{"live", "nan"}[(w+si)%2]
								name := fmt.Sprintf("cin%d/cout%d/w%d/span=%v/spans%d/res=%v/floor=%v/partner=%s",
									cin, cout, w, span, si, withRes, floor, partner)
								other := in1
								if partner == "nan" {
									other = dead
								}
								var r0, r1, rp []float32
								if withRes {
									r0, r1 = res0, res1
									rp, _ = pairBlocked(res0, res1, lo)
								}
								want := [2][]float32{make([]float32, lo.Len()), make([]float32, lo.Len())}
								for s, src := range [2][]float32{in0, other} {
									for i := range want[s] {
										want[s][i] = sentinel
									}
									r := r0
									if s == 1 {
										r = r1
									}
									convLanes33(want[s], lo, src, li, cin, lw, r, spans, floor, 1)
								}
								pin, lpi := pairBlocked(in0, other, li)
								lpo := lo
								lpo.C *= 2
								got := make([]float32, lpo.Len())
								for i := range got {
									got[i] = sentinel
								}
								convLanes33(got, lpo, pin, lpi, cin, lw2, rp, spans, floor, 2)
								for s := 0; s < 2; s++ {
									if s == 1 && partner == "nan" {
										continue // the dead slot's lanes are anything
									}
									for p := 0; p < lo.Len()/c8; p++ {
										for c := 0; c < c8; c++ {
											a, b := got[p*2*c8+2*c+s], want[s][p*c8+c]
											if math.Float32bits(a) != math.Float32bits(b) {
												t.Fatalf("%s: slot %d position %d channel %d = %v (%#x), alone %v (%#x)",
													name, s, p, c, a, math.Float32bits(a), b, math.Float32bits(b))
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

// TestKernelBodies logs which conv bodies this host runs — the AVX2
// convRow33, convBwdW33 and maskReLUGrad8 and the AVX-512F convRow33x2 and
// convBwdW33x2, or only their Go twins — and holds each body that runs to
// its twin on one module conv, its weight gradient and a ReLU backward over
// -0, subnormals, NaN and infinities, so a green run says what it covered.
func TestKernelBodies(t *testing.T) {
	defer SetSpanKernels(SetSpanKernels(true))
	t.Logf("AVX2 bodies (convRow33, convBwdW33, maskReLUGrad8): %v", SpanKernelsActive())
	t.Logf("AVX-512F bodies (convRow33x2, convBwdW33x2): %v", PairedLanesActive())
	rng := sim.NewRNG(59)
	in := randTensor(rng, 2, 8, 5, 9, 9)
	wt := randTensor(rng, 8, 8, 3, 3, 3)
	in0, li := toBlocked(in, 0, 8)
	in1, _ := toBlocked(in, 1, 8)
	pair, lp := pairBlocked(in0, in1, li)
	lw := make([]float32, LaneWeights33Len(8, 8))
	PackLaneWeights33(lw, wt, nil)
	lw2 := pairedWeights(lw)
	spans := laneSpans(5, 9, 9, true)
	// A gradient and a post-activation with -0, +0, subnormals, NaN and
	// infinities in both.
	g, act := randTensor(rng, 1, 16, 5, 9, 9), randTensor(rng, 1, 16, 5, 9, 9)
	specialInputs(g)
	specialInputs(act)
	for i := 3; i < len(act.Data); i += 17 {
		act.Data[i] = 0
	}
	gBuf, lg := toBlocked(g, 0, 16)
	actBuf, _ := toBlocked(act, 0, 16)
	run := func(span bool) (one, two []float32) {
		SetSpanKernels(span)
		one, two = make([]float32, li.Len()), make([]float32, lp.Len())
		ConvLanes33ReLU(one, li, in0, li, 8, lw, in0, spans)
		ConvLanes33ReLUx2(two, lp, pair, lp, 8, lw2, pair, spans)
		// The weight gradients with the conv's outputs as the gradient,
		// after the outputs: width 1's in one, width 2's two slots in two.
		gw, gb := make([]float32, 8*8*27), make([]float32, 8)
		ConvLanesGradW33(gw, gb, in0, li, 8, one, li, 8)
		one = append(append(one, gw...), gb...)
		gw2 := [2][]float32{make([]float32, 8*8*27), make([]float32, 8*8*27)}
		gb2 := [2][]float32{make([]float32, 8), make([]float32, 8)}
		ConvLanesGradW33x2(gw2, gb2, pair, lp, 8, two, lp, 8)
		for s := range 2 {
			two = append(append(two, gw2[s]...), gb2[s]...)
		}
		// Then a ReLU backward, after width 2's.
		masked := append([]float32(nil), gBuf...)
		MaskReLUGrad(masked, actBuf, lg)
		two = append(two, masked...)
		return one, two
	}
	one, two := run(true)
	oneGo, twoGo := run(false)
	for i := range one {
		if math.Float32bits(one[i]) != math.Float32bits(oneGo[i]) {
			t.Fatalf("width 1, float %d of conv then gradients: %v, Go twin %v", i, one[i], oneGo[i])
		}
	}
	for i := range two {
		if math.Float32bits(two[i]) != math.Float32bits(twoGo[i]) {
			t.Fatalf("width 2, float %d of conv then gradients: %v, Go twin %v", i, two[i], twoGo[i])
		}
	}
}

// TestConvLanesGradW33PairedMatchesSlots holds the paired weight gradient
// to two width-1 calls, bit for bit and slot by slot, on every body the
// host runs (convBwdW33x2 against convBwdW33, and the Go twins against each
// other): input channels 2/6/8/12 at a pitch that is not the channel count,
// output channels 6/8/12 (lanes past cout, one group and two), on inputs
// and gradients holding -0, subnormals, NaN and infinities. A partner slot
// full of NaN must leave a slot's gradients as they are alone, and every
// element of both slots' gradients is overwritten.
func TestConvLanesGradW33PairedMatchesSlots(t *testing.T) {
	defer SetSpanKernels(SetSpanKernels(true))
	rng := sim.NewRNG(61)
	nan := float32(math.NaN())
	const sentinel = float32(-7.5)
	filled := func(n int) []float32 {
		b := make([]float32, n)
		for i := range b {
			b[i] = sentinel
		}
		return b
	}
	for _, geo := range [][3]int{{1, 1, 1}, {2, 3, 5}, {3, 7, 7}} {
		d, h, w := geo[0], geo[1], geo[2]
		for _, cin := range []int{2, 6, 8, 12} {
			for _, cout := range []int{6, 8, 12} {
				in := randTensor(rng, 2, cin, d, h, w)
				specialInputs(in)
				g := randTensor(rng, 2, cout, d, h, w)
				specialInputs(g)
				pitch := cin + cin%3
				in0, li := toBlocked(in, 0, pitch)
				in1, _ := toBlocked(in, 1, pitch)
				g0, lg := toBlocked(g, 0, LaneChannels(cout))
				g1, _ := toBlocked(g, 1, LaneChannels(cout))
				deadIn, deadG := make([]float32, li.Len()), make([]float32, lg.Len())
				for _, dead := range [2][]float32{deadIn, deadG} {
					for i := range dead {
						dead[i] = nan
					}
				}
				for _, span := range []bool{true, false} {
					SetSpanKernels(span)
					for _, partner := range []string{"live", "nan"} {
						name := fmt.Sprintf("%dx%dx%d/cin%d/cout%d/span=%v/partner=%s", d, h, w, cin, cout, span, partner)
						otherIn, otherG := in1, g1
						if partner == "nan" {
							otherIn, otherG = deadIn, deadG
						}
						var want, got [2][]float32
						var wantB, gotB [2][]float32
						for s, src := range [2][2][]float32{{in0, g0}, {otherIn, otherG}} {
							want[s], wantB[s] = filled(cout*cin*27), filled(cout)
							got[s], gotB[s] = filled(cout*cin*27), filled(cout)
							ConvLanesGradW33(want[s], wantB[s], src[0], li, cin, src[1], lg, cout)
						}
						pin, lpi := pairBlocked(in0, otherIn, li)
						pg, lpg := pairBlocked(g0, otherG, lg)
						ConvLanesGradW33x2(got, gotB, pin, lpi, cin, pg, lpg, cout)
						for s := range 2 {
							if s == 1 && partner == "nan" {
								for i, v := range got[s] {
									if v == sentinel {
										t.Fatalf("%s: dead slot's gradW[%d] not written", name, i)
									}
								}
								continue
							}
							for i := range want[s] {
								if math.Float32bits(got[s][i]) != math.Float32bits(want[s][i]) {
									t.Fatalf("%s: slot %d gradW[%d] = %v (%#x), alone %v (%#x)",
										name, s, i, got[s][i], math.Float32bits(got[s][i]), want[s][i], math.Float32bits(want[s][i]))
								}
							}
							for i := range wantB[s] {
								if math.Float32bits(gotB[s][i]) != math.Float32bits(wantB[s][i]) {
									t.Fatalf("%s: slot %d gradB[%d] = %v, alone %v", name, s, i, gotB[s][i], wantB[s][i])
								}
							}
						}
					}
				}
			}
		}
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

// BenchmarkConvLanesGradW33 times the weight gradient of one module conv of
// the bench's training geometry (6 features in 8 lanes, 3x7x7) on two
// slots: two width-1 calls, or one paired call (ConvLanesGradW33x2).
// ns/app is per slot.
func BenchmarkConvLanesGradW33(b *testing.B) {
	rng := sim.NewRNG(3)
	const c, d, h, w = 6, 3, 7, 7
	in := randTensor(rng, 2, c, d, h, w)
	g := randTensor(rng, 2, c, d, h, w)
	in0, li := toBlocked(in, 0, LaneChannels(c))
	in1, _ := toBlocked(in, 1, LaneChannels(c))
	g0, _ := toBlocked(g, 0, LaneChannels(c))
	g1, _ := toBlocked(g, 1, LaneChannels(c))
	gw := [2][]float32{make([]float32, c*c*27), make([]float32, c*c*27)}
	gb := [2][]float32{make([]float32, c), make([]float32, c)}
	for _, width := range []int{1, 2} {
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			b.ReportAllocs()
			if width == 1 {
				for i := 0; i < b.N; i++ {
					ConvLanesGradW33(gw[0], gb[0], in0, li, c, g0, li, c)
					ConvLanesGradW33(gw[1], gb[1], in1, li, c, g1, li, c)
				}
			} else {
				pin, lp := pairBlocked(in0, in1, li)
				pg, _ := pairBlocked(g0, g1, li)
				for i := 0; i < b.N; i++ {
					ConvLanesGradW33x2(gw, gb, pin, lp, c, pg, lp, c)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(2*b.N), "ns/app")
		})
	}
}
