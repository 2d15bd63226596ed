package tensor

import (
	"fmt"
	"sync"

	"chaseci/internal/parallel"
)

// 3-D convolution kernels. The Into variants write into caller-provided
// tensors and allocate nothing in steady state; Conv3D is a thin allocating
// wrapper the tests use as the reference.
//
// The forward kernel is the batched engine in conv_batch.go: every output
// element receives its tap contributions in the scalar kernel's
// ic -> dz -> dy -> dx order with the same skip conditions (including the
// register-accumulating 3x3 fast path), so the result is bit-exact with the
// naive loop at every worker count; parallel fan-out shards whole (oc, z)
// slices, each written by exactly one worker.
//
// The backward kernel is two gathers, each bit-exact with the serial
// scatter loop (for every output position in (oc, z, y, x) order, for every
// in-bounds tap: gradW += g*in, gradIn += g*w) at every worker count:
//
//   - The input gradient is the forward conv of gradOut with the weights'
//     channels transposed and taps flipped, w'[ic][oc][k] = w[oc][ic][taps-1-k],
//     and no bias, run through the forward engine (the span path for 3x3x3).
//     Each gradIn element receives its products in the scatter's oc -> z ->
//     y -> x order, because the flipped tap walks the output positions in
//     raster order. The forward engine's padding taps and the scatter's
//     skipped g == 0 products both add a signed zero, which leaves every
//     finite sum unchanged (a sum that starts at +0 never becomes -0).
//     The flip needs symmetric padding, so the backward refuses even kernels.
//   - The weight gradient is one dot product per gradW element over the
//     output positions in (z, y, x) order; the bias gradient is the same
//     sum of gradOut alone. Units of (output-channel group, ic) shard the
//     work, so every gradW element has one writer. For 3x3x3 on the span
//     path, convBwdW33 runs eight output channels in the lanes of one
//     vector against the zero-padded input, with separate multiply and add;
//     otherwise a scalar gather walks the in-bounds positions of each tap.

// convGrainFlops is the approximate mul-add count one dispatch chunk should
// amortize; below it the kernel stays serial.
const convGrainFlops = 16384

func convCheck(in, weight *Tensor) (cin, d, h, w, cout, kd, kh, kw int) {
	cin, d, h, w = in.Shape[0], in.Shape[1], in.Shape[2], in.Shape[3]
	cout = weight.Shape[0]
	if weight.Shape[1] != cin {
		panic(fmt.Sprintf("tensor: Conv3D weight expects %d input channels, input has %d", weight.Shape[1], cin))
	}
	kd, kh, kw = weight.Shape[2], weight.Shape[3], weight.Shape[4]
	return
}

// Conv3DInto computes the same stride-1, same-padded 3-D convolution as
// Conv3D but writes into out, which must be (Cout, D, H, W). It performs no
// allocation and its result is bit-exact with the scalar kernel at every
// parallel.SetWorkers count.
func Conv3DInto(out, in, weight *Tensor, bias []float32) {
	_, d, h, w, cout, _, _, _ := convCheck(in, weight)
	if out.Shape[0] != cout || out.Shape[1] != d || out.Shape[2] != h || out.Shape[3] != w {
		panic(fmt.Sprintf("tensor: Conv3DInto out shape %v, want (%d,%d,%d,%d)", out.Shape, cout, d, h, w))
	}
	hdr := batch1Pool.Get().(*struct{ o, i Tensor })
	convBatchDispatch(asBatch1(&hdr.o, out), asBatch1(&hdr.i, in), weight, bias, epNone, 0)
	hdr.o.Data, hdr.i.Data = nil, nil
	batch1Pool.Put(hdr)
}

// Conv3D computes a 3-D convolution with stride 1 and symmetric zero
// padding kd/2, kh/2, kw/2 ("same" shape for odd kernels).
//
//	in:     (Cin, D, H, W)
//	weight: (Cout, Cin, KD, KH, KW)
//	bias:   len Cout (may be nil)
//	out:    (Cout, D, H, W)
func Conv3D(in, weight *Tensor, bias []float32) *Tensor {
	_, d, h, w, cout, _, _, _ := convCheck(in, weight)
	out := New(cout, d, h, w)
	Conv3DInto(out, in, weight, bias)
	return out
}

// bwdLanes is how many output channels one weight-gradient unit covers: the
// AVX2 kernel's eight lanes.
const bwdLanes = 8

// convBwd is the pooled weight-gradient Task: one Run processes a range of
// flattened (output-channel group, ic) units, and each unit is the only
// writer of gradW[oc][ic] for the bwdLanes channels of its group. Its tensor
// headers carry the input-gradient pass.
type convBwd struct {
	in, g, gradW  []float32 // g is gradOut, or its lane transpose on the span path
	pad           []float32 // zero-padded input (span path only)
	span          bool
	cin, cout     int
	d, h, wd      int
	kd, kh, kw    int
	wt, gIn, gOut Tensor // flipped weights, gradIn and gradOut views for the input pass
}

var convBwdPool = sync.Pool{New: func() any { return new(convBwd) }}

func (t *convBwd) Run(start, end int) {
	for u := start; u < end; u++ {
		oc0, ic := u/t.cin*bwdLanes, u%t.cin
		oc1 := min(oc0+bwdLanes, t.cout)
		if t.span {
			t.unitSpan(oc0, oc1, ic)
			continue
		}
		for oc := oc0; oc < oc1; oc++ {
			t.unitScalar(oc, ic)
		}
	}
}

// unitSpan computes gradW[oc0:oc1][ic] of a 3x3x3 kernel with the AVX2
// kernel, from the padded planar input and the group's dense lane slab.
func (t *convBwd) unitSpan(oc0, oc1, ic int) {
	d, h, w := t.d, t.h, t.wd
	pplane := (h + 2) * (w + 2)
	geo := gradW33Geom{d: d, h: h, w: w, pplane: pplane, prow: w + 2, istr: 1, gstr: bwdLanes}
	gradW33Unit([2][]float32{t.gradW}, [2][]float32{}, t.pad[ic*(d+2)*pplane:], t.g[oc0*d*h*w:], &geo, oc0, oc1, ic, t.cin, 1, true)
}

// gradW33Geom is where the weight-gradient kernel finds its operands, in
// floats: the padded input's plane, row and position strides, and the
// gradient lane slab's position stride, plus what it skips after each row
// and each plane.
type gradW33Geom struct {
	d, h, w                    int
	pplane, prow, istr         int
	gstr, growSkip, gplaneSkip int
}

// gradW33Unit computes gradW[s][oc0:oc1][ic] of a 3x3x3 kernel for each of
// width (1 or 2) batch slots s, and gradB[s][oc0:oc1] too unless gradB[0]
// is nil, from in, the padded input of channel ic from its first position
// (at width 2 the slot pair of the channel), and gT, the gradient's lanes
// from output channel oc0 of the first position: one convBwdW33 or
// convBwdW33x2 call (its Go twin unless asm) per dz yields the nine
// (dy, dx) taps of eight output channels per slot, lane width*l+s of tap k
// at acc[k*width*bwdLanes+width*l+s], and the first call the bias lanes.
func gradW33Unit(gradW, gradB [2][]float32, in, gT []float32, geo *gradW33Geom, oc0, oc1, ic, cin, width int, asm bool) {
	var acc [9 * 2 * bwdLanes]float32
	var bacc [2 * bwdLanes]float32
	vec := width * bwdLanes
	for dz := 0; dz < 3; dz++ {
		pin := in[dz*geo.pplane:]
		var bias []float32 // the bias lanes, summed on the first call only
		var bp *float32
		if dz == 0 && gradB[0] != nil {
			bias, bp = bacc[:vec], &bacc[0]
		}
		switch {
		case asm && width == 2:
			convBwdW33x2(&acc[0], bp, &pin[0], &gT[0], int64(geo.d), int64(geo.h), int64(geo.w),
				int64(4*geo.pplane), int64(4*geo.prow), int64(4*geo.istr),
				int64(4*geo.gstr), int64(4*geo.growSkip), int64(4*geo.gplaneSkip))
		case asm:
			convBwdW33(&acc[0], bp, &pin[0], &gT[0], int64(geo.d), int64(geo.h), int64(geo.w),
				int64(4*geo.pplane), int64(4*geo.prow), int64(4*geo.istr),
				int64(4*geo.gstr), int64(4*geo.growSkip), int64(4*geo.gplaneSkip))
		case width == 2:
			convBwdW33x2Go(&acc, bias, pin, gT, geo)
		default:
			convBwdW33Go((*[9 * bwdLanes]float32)(acc[:]), bias, pin, gT, geo)
		}
		for s := range width {
			for oc := oc0; oc < oc1; oc++ {
				dst := gradW[s][(oc*cin+ic)*27+dz*9:][:9:9]
				src := acc[width*(oc-oc0)+s:][:8*vec+1]
				dst[0], dst[1], dst[2] = src[0], src[vec], src[2*vec]
				dst[3], dst[4], dst[5] = src[3*vec], src[4*vec], src[5*vec]
				dst[6], dst[7], dst[8] = src[6*vec], src[7*vec], src[8*vec]
			}
		}
	}
	if gradB[0] != nil {
		for s := range width {
			for oc := oc0; oc < oc1; oc++ {
				gradB[s][oc] = bacc[width*(oc-oc0)+s]
			}
		}
	}
}

// convBwdW33Go is convBwdW33 in Go, with strides in floats: the same sums
// in the same (z, y, x) order, each product rounded on its own, and the
// bias lanes' into bias unless it is nil.
func convBwdW33Go(acc *[9 * bwdLanes]float32, bias, pin, gT []float32, geo *gradW33Geom) {
	*acc = [9 * bwdLanes]float32{}
	clear(bias)
	g := 0
	for z := 0; z < geo.d; z++ {
		for y := 0; y < geo.h; y++ {
			row := pin[z*geo.pplane+y*geo.prow:]
			for x := 0; x < geo.w; x++ {
				gl := gT[g:][:bwdLanes:bwdLanes]
				g += geo.gstr
				for k := 0; k < 9; k++ {
					v := row[k/3*geo.prow+(x+k%3)*geo.istr]
					a := acc[k*bwdLanes:][:bwdLanes]
					for l, gv := range gl {
						a[l] += float32(v * gv)
					}
				}
				if bias != nil {
					for l, gv := range gl {
						bias[l] += gv
					}
				}
			}
			g += geo.growSkip
		}
		g += geo.gplaneSkip
	}
}

// convBwdW33x2Go is convBwdW33x2 in Go: convBwdW33Go's sums for two slots,
// lane 2c+s multiplying slot s's input (pin[s], pin at the pair of channel
// ic) by gradOut lane 2c+s. A lane's sequence does not depend on any other
// lane's, so this gives the kernel's bits. Each slot's input is hoisted
// and multiplied as convBwdW33Go multiplies its own, so the two twins also
// agree on which NaN a product of two NaNs keeps.
func convBwdW33x2Go(acc *[9 * 2 * bwdLanes]float32, bias, pin, gT []float32, geo *gradW33Geom) {
	const vec = 2 * bwdLanes
	*acc = [9 * vec]float32{}
	clear(bias)
	g := 0
	for z := 0; z < geo.d; z++ {
		for y := 0; y < geo.h; y++ {
			row := pin[z*geo.pplane+y*geo.prow:]
			for x := 0; x < geo.w; x++ {
				gl := gT[g:][:vec:vec]
				g += geo.gstr
				for k := 0; k < 9; k++ {
					a := acc[k*vec:][:vec]
					for s := 0; s < 2; s++ {
						v := row[k/3*geo.prow+(x+k%3)*geo.istr+s]
						for l := s; l < vec; l += 2 {
							a[l] += float32(v * gl[l])
						}
					}
				}
				if bias != nil {
					for l, gv := range gl {
						bias[l] += gv
					}
				}
			}
			g += geo.growSkip
		}
		g += geo.gplaneSkip
	}
}

// unitScalar computes gradW[oc][ic] one tap at a time: a register
// accumulator over the output positions in (z, y, x) order, restricted to
// those whose tap lands inside the input.
func (t *convBwd) unitScalar(oc, ic int) {
	d, h, w := t.d, t.h, t.wd
	kd, kh, kw := t.kd, t.kh, t.kw
	pd, ph, pw := kd/2, kh/2, kw/2
	npos := d * h * w
	g := t.g[oc*npos:][:npos]
	inCh := t.in[ic*npos:][:npos]
	dst := t.gradW[(oc*t.cin+ic)*kd*kh*kw:][:kd*kh*kw]
	for dz := 0; dz < kd; dz++ {
		z0, z1 := max(pd-dz, 0), min(d+pd-dz, d)
		for dy := 0; dy < kh; dy++ {
			y0, y1 := max(ph-dy, 0), min(h+ph-dy, h)
			for dx := 0; dx < kw; dx++ {
				x0, x1 := max(pw-dx, 0), min(w+pw-dx, w)
				off := ((dz-pd)*h+dy-ph)*w + dx - pw
				var acc float32
				for z := z0; z < z1 && x0 < x1; z++ {
					for y := y0; y < y1; y++ {
						row := (z*h + y) * w
						gRow := g[row+x0 : row+x1]
						iRow := inCh[row+x0+off:][:len(gRow)]
						for i, gv := range gRow {
							acc += gv * iRow[i]
						}
					}
				}
				dst[(dz*kh+dy)*kw+dx] = acc
			}
		}
	}
}

// Conv3DBackwardInto computes the gradients of a Conv3D call with an odd
// kernel into caller-provided tensors: gradIn (Cin, D, H, W), gradW (same
// shape as weight) and gradB (len Cout), all overwritten. A nil gradIn skips
// the input gradient. It allocates nothing in steady state. Even kernels
// panic (see the header).
func Conv3DBackwardInto(gradIn, gradW *Tensor, gradB []float32, in, weight, gradOut *Tensor) {
	cin, d, h, w, cout, kd, kh, kw := convCheck(in, weight)
	if kd%2 == 0 || kh%2 == 0 || kw%2 == 0 {
		panic(fmt.Sprintf("tensor: Conv3DBackwardInto needs an odd kernel, got %dx%dx%d", kd, kh, kw))
	}
	if (gradIn != nil && !SameShape(gradIn, in)) || !SameShape(gradW, weight) || len(gradB) != cout ||
		len(gradOut.Data) != cout*d*h*w {
		panic("tensor: Conv3DBackwardInto gradient shape mismatch")
	}
	npos := d * h * w
	for oc := range gradB {
		var s float32
		for _, g := range gradOut.Data[oc*npos:][:npos] {
			s += g
		}
		gradB[oc] = s
	}

	t := convBwdPool.Get().(*convBwd)
	t.in, t.g, t.gradW = in.Data, gradOut.Data, gradW.Data
	t.cin, t.cout, t.d, t.h, t.wd = cin, cout, d, h, w
	t.kd, t.kh, t.kw = kd, kh, kw
	groups := (cout + bwdLanes - 1) / bwdLanes
	if t.span = spanActive(kd, kh, kw); t.span {
		// Border-free taps against the zero-padded input, and gradOut
		// transposed so that lane l at position p of group k's slab is
		// output channel k*bwdLanes+l; lanes past cout stay zero.
		t.pad = GetFloats(spanPadLen(cin, d, h, w))
		clear(t.pad)
		fillPadded(t.pad, in.Data, cin, d, h, w)
		t.g = GetFloats(groups * bwdLanes * npos)
		if cout%bwdLanes != 0 {
			clear(t.g)
		}
		for oc := 0; oc < cout; oc++ {
			dst := t.g[(oc/bwdLanes)*bwdLanes*npos+oc%bwdLanes:]
			for p, v := range gradOut.Data[oc*npos:][:npos] {
				dst[p*bwdLanes] = v
			}
		}
	}
	unitWork := npos * kd * kh * kw * min(cout, bwdLanes)
	grain := 1
	if unitWork < convGrainFlops {
		grain = (convGrainFlops + unitWork - 1) / unitWork
	}
	parallel.InvokeGrain(groups*cin, grain, t)
	if t.span {
		PutFloats(t.pad)
		PutFloats(t.g)
		t.pad = nil
	}
	t.in, t.g, t.gradW = nil, nil, nil

	if gradIn != nil {
		t.inputGrad(gradIn, weight, gradOut)
	}
	convBwdPool.Put(t)
}

// inputGrad writes gradIn as the forward conv of gradOut with the weights'
// channels transposed and taps flipped, w'[ic][oc][k] = w[oc][ic][taps-1-k].
func (t *convBwd) inputGrad(gradIn, weight, gradOut *Tensor) {
	cout, cin := weight.Shape[0], weight.Shape[1]
	taps := len(weight.Data) / (cout * cin)
	wt := GetFloats(len(weight.Data))
	for oc := 0; oc < cout; oc++ {
		for ic := 0; ic < cin; ic++ {
			src := weight.Data[(oc*cin+ic)*taps:][:taps]
			dst := wt[(ic*cout+oc)*taps:][:taps]
			for k, v := range src {
				dst[taps-1-k] = v
			}
		}
	}
	t.wt.Shape = append(t.wt.Shape[:0], cin, cout)
	t.wt.Shape = append(t.wt.Shape, weight.Shape[2:]...)
	t.wt.Data = wt
	convBatchDispatch(asBatch1(&t.gIn, gradIn), asBatch1(&t.gOut, gradOut), &t.wt, nil, epNone, 0)
	PutFloats(wt)
	t.wt.Data, t.gIn.Data, t.gOut.Data = nil, nil, nil
}
