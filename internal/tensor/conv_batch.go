package tensor

import (
	"fmt"
	"sync"

	"chaseci/internal/parallel"
)

// Batched, fused 3-D convolution kernels. Conv3DBatchInto processes B packed
// inputs against one shared weight tensor in a single dispatch: the parallel
// fan-out shards flattened (b, oc, z) output slices, so the weights stay
// cache-hot across the whole batch instead of being re-streamed once per
// input. Conv3DBatchReLUInto folds ReLU into the output write of each
// slice, eliminating the separate ReLUInto traversal.
//
// Bit-exactness contract: every output element receives its tap
// contributions in the scalar kernel's ic -> dz -> dy -> dx order with the
// same skip conditions, the epilogue applies after the element's last tap
// exactly as the unfused sequence (conv write, ReLU) would, and each
// (b, oc, z) slice is written by exactly one worker — so results are
// bit-exact with Conv3DInto-then-ReLUInto at every batch size and worker
// count. Unlike convFwd's one-tap-per-pass rows, the
// batched kernel walks each (ic, dz, dy) row once and accumulates all kw
// taps into a register before storing, which is the same per-element
// operation sequence with ~kw fewer output loads/stores.

// convEpilogue selects what is fused into the output write of a slice.
type convEpilogue int

const (
	epNone convEpilogue = iota
	epReLU
)

// convBatch is the pooled batched-forward Task: one Run processes a range
// of flattened (b, oc, z) output slices.
type convBatch struct {
	out, in, w, bias []float32
	pad              []float32 // zero-padded input (span path only)
	span             bool      // route Run through the SIMD span kernel
	ep               convEpilogue
	cout             int
	cin, d, h, wd    int
	kd, kh, kw       int
	pd, ph, pw       int
}

var convBatchPool = sync.Pool{New: func() any { return new(convBatch) }}

func (t *convBatch) Run(start, end int) {
	if t.span {
		t.runSpan(start, end)
		return
	}
	cin, d, h, w := t.cin, t.d, t.h, t.wd
	kd, kh, kw := t.kd, t.kh, t.kw
	pd := t.pd
	hw := h * w
	chSize := d * hw
	fast33 := kh == 3 && kw == 3 && w >= 3
	for u := start; u < end; u++ {
		b, rem := u/(t.cout*d), u%(t.cout*d)
		oc, z := rem/d, rem%d
		var bv float32
		if t.bias != nil {
			bv = t.bias[oc]
		}
		sliceBase := (b*t.cout + oc) * chSize
		outPlane := t.out[sliceBase+z*hw:][:hw]
		for i := range outPlane {
			outPlane[i] = bv
		}
		inBatch := t.in[b*cin*chSize:]
		for ic := 0; ic < cin; ic++ {
			inCh := inBatch[ic*chSize:]
			for dz := 0; dz < kd; dz++ {
				iz := z + dz - pd
				if iz < 0 || iz >= d {
					continue
				}
				inPlane := inCh[iz*hw:][:hw]
				wTap := t.w[(((oc*cin+ic)*kd+dz)*kh)*kw:][:kh*kw]
				if fast33 {
					t.plane33(outPlane, inPlane, wTap)
				} else {
					t.planeGeneric(outPlane, inPlane, wTap)
				}
			}
		}
		// Fused epilogue: applied once per slice, after the slice's last tap
		// — the same per-element sequence as the unfused conv-then-ReLU
		// traversals.
		if t.ep == epReLU {
			for i, v := range outPlane {
				if v < 0 {
					outPlane[i] = 0
				}
			}
		}
	}
}

// plane33 accumulates one (ic, dz) input plane's 3x3 in-plane taps into the
// output plane — the dominant FFN geometry. All nine weights live in
// registers and every interior element accumulates its nine taps in dy -> dx
// order before a single store, so the per-element operation sequence (and
// therefore the result) is identical to the generic one-tap-per-pass walk
// while touching the output once instead of nine times.
func (t *convBatch) plane33(outPlane, inPlane, wt []float32) {
	h, w := t.h, t.wd
	w00, w01, w02 := wt[0], wt[1], wt[2]
	w10, w11, w12 := wt[3], wt[4], wt[5]
	w20, w21, w22 := wt[6], wt[7], wt[8]
	n := w - 2
	for y := 0; y < h; y++ {
		outRow := outPlane[y*w:][:w]
		if y >= 1 && y <= h-2 {
			r0 := inPlane[(y-1)*w:][:w]
			r1 := inPlane[y*w:][:w]
			r2 := inPlane[(y+1)*w:][:w]
			// Left border x=0: in-bounds taps are dx=1,2 for each dy.
			acc := outRow[0]
			acc += w01 * r0[0]
			acc += w02 * r0[1]
			acc += w11 * r1[0]
			acc += w12 * r1[1]
			acc += w21 * r2[0]
			acc += w22 * r2[1]
			outRow[0] = acc
			// Interior: equal-length shifted views so every index is
			// provably in bounds; nine-tap register accumulation.
			if n > 0 {
				dst := outRow[1:][:n]
				s00, s01, s02 := r0[0:][:n], r0[1:][:n], r0[2:][:n]
				s10, s11, s12 := r1[0:][:n], r1[1:][:n], r1[2:][:n]
				s20, s21, s22 := r2[0:][:n], r2[1:][:n], r2[2:][:n]
				for i := range dst {
					a := dst[i]
					a += w00 * s00[i]
					a += w01 * s01[i]
					a += w02 * s02[i]
					a += w10 * s10[i]
					a += w11 * s11[i]
					a += w12 * s12[i]
					a += w20 * s20[i]
					a += w21 * s21[i]
					a += w22 * s22[i]
					dst[i] = a
				}
			}
			// Right border x=w-1: in-bounds taps are dx=0,1.
			acc = outRow[w-1]
			acc += w00 * r0[w-2]
			acc += w01 * r0[w-1]
			acc += w10 * r1[w-2]
			acc += w11 * r1[w-1]
			acc += w20 * r2[w-2]
			acc += w21 * r2[w-1]
			outRow[w-1] = acc
			continue
		}
		// y-border rows: one single-row pass per in-bounds dy, ascending, so
		// each element still receives its taps in dy -> dx order.
		for dy := 0; dy < 3; dy++ {
			iy := y + dy - 1
			if iy < 0 || iy >= h {
				continue
			}
			wr := wt[dy*3:][:3]
			row3(outRow, inPlane[iy*w:][:w], wr[0], wr[1], wr[2], w, n)
		}
	}
}

// row3 accumulates one kernel row's three taps into one output row.
func row3(outRow, r []float32, w0, w1, w2 float32, w, n int) {
	acc := outRow[0]
	acc += w1 * r[0]
	acc += w2 * r[1]
	outRow[0] = acc
	if n > 0 {
		dst := outRow[1:][:n]
		s0, s1, s2 := r[0:][:n], r[1:][:n], r[2:][:n]
		for i := range dst {
			a := dst[i]
			a += w0 * s0[i]
			a += w1 * s1[i]
			a += w2 * s2[i]
			dst[i] = a
		}
	}
	acc = outRow[w-1]
	acc += w0 * r[w-2]
	acc += w1 * r[w-1]
	outRow[w-1] = acc
}

// planeGeneric accumulates one (ic, dz) plane with arbitrary (kh, kw): per
// tap, the valid x range becomes a bounds-check-free run over each valid
// output row (the convFwd structure), preserving dy -> dx per-element order.
func (t *convBatch) planeGeneric(outPlane, inPlane, wTap []float32) {
	h, w := t.h, t.wd
	kh, kw := t.kh, t.kw
	ph, pw := t.ph, t.pw
	for dy := 0; dy < kh; dy++ {
		yLo, yHi := ph-dy, h-1+ph-dy
		if yLo < 0 {
			yLo = 0
		}
		if yHi > h-1 {
			yHi = h - 1
		}
		if yLo > yHi {
			continue
		}
		wRow := wTap[dy*kw:][:kw]
		for dx := 0; dx < kw; dx++ {
			wv := wRow[dx]
			off := dx - pw
			x0, x1 := 0, w
			if off < 0 {
				x0 = -off
			} else {
				x1 = w - off
			}
			if x0 >= x1 {
				continue
			}
			runLen := x1 - x0
			outBase := yLo*w + x0
			inBase := (yLo+dy-ph)*w + x0 + off
			for y := yLo; y <= yHi; y++ {
				dst := outPlane[outBase:][:runLen]
				src := inPlane[inBase:][:runLen]
				for i, v := range src {
					dst[i] += wv * v
				}
				outBase += w
				inBase += w
			}
		}
	}
}

// convBatchCheck validates batched (B, C, D, H, W) geometry against the
// shared weights and returns the unpacked dimensions.
func convBatchCheck(out, in, weight *Tensor) (batch, cin, d, h, w, cout, kd, kh, kw int) {
	if len(in.Shape) != 5 || len(out.Shape) != 5 {
		panic(fmt.Sprintf("tensor: Conv3DBatchInto wants 5-d (B,C,D,H,W) tensors, got in %v out %v", in.Shape, out.Shape))
	}
	batch = in.Shape[0]
	cin, d, h, w = in.Shape[1], in.Shape[2], in.Shape[3], in.Shape[4]
	cout = weight.Shape[0]
	if weight.Shape[1] != cin {
		panic(fmt.Sprintf("tensor: Conv3DBatchInto weight expects %d input channels, input has %d", weight.Shape[1], cin))
	}
	kd, kh, kw = weight.Shape[2], weight.Shape[3], weight.Shape[4]
	if out.Shape[0] != batch || out.Shape[1] != cout || out.Shape[2] != d || out.Shape[3] != h || out.Shape[4] != w {
		panic(fmt.Sprintf("tensor: Conv3DBatchInto out shape %v, want (%d,%d,%d,%d,%d)", out.Shape, batch, cout, d, h, w))
	}
	return
}

// convBatchDispatch runs the pooled batched task over nSlices with the
// standard grain policy and releases it. maxBatch limits how many leading
// batch items participate (len(out) may exceed the live batch when a
// reusable scratch tensor is larger than the final partial batch).
func convBatchDispatch(out, in, weight *Tensor, bias []float32, ep convEpilogue, maxBatch int) {
	batch, cin, d, h, w, cout, kd, kh, kw := convBatchCheck(out, in, weight)
	if maxBatch > 0 && maxBatch < batch {
		batch = maxBatch
	}
	t := convBatchPool.Get().(*convBatch)
	t.out, t.in, t.w, t.bias = out.Data, in.Data, weight.Data, bias
	t.ep = ep
	t.cout = cout
	t.cin, t.d, t.h, t.wd = cin, d, h, w
	t.kd, t.kh, t.kw = kd, kh, kw
	t.pd, t.ph, t.pw = kd/2, kh/2, kw/2
	if spanActive(kd, kh, kw) {
		// Span path: stage the live batch into a zero-padded scratch copy so
		// the vector kernel runs border-free (see conv_span.go).
		t.pad = GetFloats(spanPadLen(batch*cin, d, h, w))
		clear(t.pad)
		fillPadded(t.pad, in.Data, batch*cin, d, h, w)
		t.span = true
	}
	unitWork := h * w * cin * kd * kh * kw
	grain := 1
	if unitWork < convGrainFlops {
		grain = (convGrainFlops + unitWork - 1) / unitWork
	}
	parallel.InvokeGrain(batch*cout*d, grain, t)
	if t.span {
		PutFloats(t.pad)
		t.pad, t.span = nil, false
	}
	t.out, t.in, t.w, t.bias = nil, nil, nil, nil
	convBatchPool.Put(t)
}

// Conv3DBatchInto computes B independent stride-1, same-padded 3-D
// convolutions against shared weights in one dispatch:
//
//	in:     (B, Cin, D, H, W)
//	weight: (Cout, Cin, KD, KH, KW)
//	bias:   len Cout (may be nil)
//	out:    (B, Cout, D, H, W)
//
// Each item's result is bit-exact with Conv3DInto on that item, at every
// batch size and worker count, and the call allocates nothing. batch limits
// processing to the first batch items (0 or >= B processes all of them),
// letting a reusable full-size scratch tensor serve partial final batches.
func Conv3DBatchInto(out, in, weight *Tensor, bias []float32, batch int) {
	convBatchDispatch(out, in, weight, bias, epNone, batch)
}

// Conv3DBatchReLUInto is Conv3DBatchInto with ReLU fused into the output
// write: out = max(0, conv(in)). Bit-exact with Conv3DBatchInto followed by
// ReLUInto, one full output traversal cheaper.
func Conv3DBatchReLUInto(out, in, weight *Tensor, bias []float32, batch int) {
	convBatchDispatch(out, in, weight, bias, epReLU, batch)
}

// asBatch1 views a (C, D, H, W) tensor as (1, C, D, H, W) without copying.
// hdr must be a caller-owned reusable header whose Shape has capacity 5.
func asBatch1(hdr, t *Tensor) *Tensor {
	hdr.Shape = append(hdr.Shape[:0], 1)
	hdr.Shape = append(hdr.Shape, t.Shape...)
	hdr.Data = t.Data
	return hdr
}

var batch1Pool = sync.Pool{New: func() any {
	return &struct{ o, i Tensor }{
		o: Tensor{Shape: make([]int, 0, 5)},
		i: Tensor{Shape: make([]int, 0, 5)},
	}
}}
