package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"chaseci/internal/parallel"
)

// Int8 quantized inference path for the 3x3x3 conv geometry.
//
// Weights are quantized per output channel with a symmetric [-127, 127]
// range (scale = maxabs/127), so dequantization is a single multiply per
// accumulator. Activations are quantized per batch slot to asymmetric uint8
// with a dynamic range widened to include zero (lo = min(0, min), hi =
// max(0, max)), which keeps the padded border representable as the exact
// zero point and makes each slot's result independent of how the batch is
// grouped — the same input yields bit-identical int8 outputs at every batch
// size and worker count.
//
// The conv accumulates int32 = sum(q_w * u8) over a zero-padded input copy
// (all cin*27 taps applied uniformly), then requantizes:
//
//	out = saIn * scaleW[oc] * (acc - zuIn*SumQ[oc]) + bias[oc]
//
// where SumQ[oc] is the weight-code sum, folding the activation zero point
// out of the accumulator, with the usual fused epilogues (ReLU,
// residual-add+ReLU) applied after requantization.
//
// Two engines compute the accumulators: a hand-written AVX-512 VNNI kernel
// (quant_amd64.s) that consumes precomputed 3-byte activation windows with
// VPDPBUSD, and a pure-Go int32 loop. Integer accumulation is order-free,
// so the two are bit-identical; quant_test.go pins that.

// QuantizedWeights holds per-output-channel symmetric int8 weights for a
// (Cout, Cin, 3, 3, 3) conv, in both raw-code and packed-window form.
type QuantizedWeights struct {
	Cout, Cin int
	W         []int8    // (Cout, Cin, 3, 3, 3) codes, row-major
	Packed    []uint32  // (Cout, Cin*9) tap-row windows: w0 | w1<<8 | w2<<16
	Scales    []float32 // per-oc dequant scale (maxabs/127; 0 for all-zero channels)
	SumQ      []int32   // per-oc code sum, for activation zero-point folding
}

// QuantizeWeights quantizes (Cout, Cin, 3, 3, 3) f32 conv weights to
// per-output-channel symmetric int8. Codes are computed against a float64
// scale so denormal-magnitude channels still round correctly; an all-zero
// channel gets scale 0 and all-zero codes.
func QuantizeWeights(w *Tensor) *QuantizedWeights {
	if len(w.Shape) != 5 || w.Shape[2] != 3 || w.Shape[3] != 3 || w.Shape[4] != 3 {
		panic(fmt.Sprintf("tensor: QuantizeWeights wants (Cout,Cin,3,3,3) weights, got %v", w.Shape))
	}
	cout, cin := w.Shape[0], w.Shape[1]
	per := cin * 27
	q := &QuantizedWeights{
		Cout:   cout,
		Cin:    cin,
		W:      make([]int8, cout*per),
		Packed: make([]uint32, cout*cin*9),
		Scales: make([]float32, cout),
		SumQ:   make([]int32, cout),
	}
	for oc := 0; oc < cout; oc++ {
		ch := w.Data[oc*per:][:per]
		var maxAbs float32
		for _, v := range ch {
			if a := v; a < 0 {
				if -a > maxAbs {
					maxAbs = -a
				}
			} else if a > maxAbs {
				maxAbs = a
			}
		}
		codes := q.W[oc*per:][:per]
		if maxAbs > 0 {
			scale := float64(maxAbs) / 127
			q.Scales[oc] = float32(scale)
			var sum int32
			for i, v := range ch {
				c := int32(math.Round(float64(v) / scale))
				if c > 127 {
					c = 127
				} else if c < -127 {
					c = -127
				}
				codes[i] = int8(c)
				sum += c
			}
			q.SumQ[oc] = sum
		}
		packed := q.Packed[oc*cin*9:][:cin*9]
		for r := 0; r < cin*9; r++ {
			w0, w1, w2 := codes[r*3], codes[r*3+1], codes[r*3+2]
			packed[r] = uint32(uint8(w0)) | uint32(uint8(w1))<<8 | uint32(uint8(w2))<<16
		}
	}
	return q
}

// Dequantize reconstructs the f32 weight tensor the codes represent.
func (q *QuantizedWeights) Dequantize() *Tensor {
	t := New(q.Cout, q.Cin, 3, 3, 3)
	per := q.Cin * 27
	for oc := 0; oc < q.Cout; oc++ {
		s := q.Scales[oc]
		for i, c := range q.W[oc*per:][:per] {
			t.Data[oc*per+i] = s * float32(c)
		}
	}
	return t
}

// quantAsmEnabled gates the VNNI kernel at runtime (the scalar int32 engine
// is bit-identical, so this is a pure performance switch).
var quantAsmEnabled = spanDefault

// SetQuantAsm enables or disables the VNNI int8 kernel, returning the
// previous setting. Not safe concurrently with quantized dispatches.
func SetQuantAsm(on bool) bool {
	prev := quantAsmEnabled
	quantAsmEnabled = on
	return prev
}

// QuantAsmActive reports whether quantized dispatches will use the VNNI
// kernel (enabled and supported by the CPU).
func QuantAsmActive() bool { return quantAsmEnabled && hasVNNI }

// qBuf is the pooled working set for one quantized dispatch: the padded
// uint8 activation image, its packed 3-byte windows, a contiguous quantize
// scratch, and per-slot quantization parameters.
type qBuf struct {
	u8  []uint8
	p32 []uint32
	tmp []uint8 // one slot's codes, quantized contiguously then scattered
	sa  []float32
	zu  []int32
}

var qBufPool = sync.Pool{New: func() any { return new(qBuf) }}

func (q *qBuf) ensure(padLen, batch, chSize int) {
	if cap(q.u8) < padLen {
		q.u8 = make([]uint8, padLen)
	}
	if cap(q.p32) < padLen {
		q.p32 = make([]uint32, padLen)
	}
	if cap(q.tmp) < chSize {
		q.tmp = make([]uint8, chSize)
	}
	if cap(q.sa) < batch {
		q.sa = make([]float32, batch)
		q.zu = make([]int32, batch)
	}
	q.u8 = q.u8[:padLen]
	q.p32 = q.p32[:padLen]
	q.tmp = q.tmp[:chSize]
	q.sa = q.sa[:batch]
	q.zu = q.zu[:batch]
}

// minMaxSpan returns min(0, min(v)) and max(0, max(v)): the slot range
// widened to include zero, so the padded border is exactly representable.
// The AVX2 main loop and the scalar tail fold to identical results (min and
// max are order-free without NaNs).
func minMaxSpan(v []float32) (lo, hi float32) {
	i := 0
	if hasAVX2 {
		if m := len(v) &^ 7; m > 0 {
			lo, hi = minMaxF32(&v[0], int64(m))
			i = m
		}
	}
	for ; i < len(v); i++ {
		if x := v[i]; x < lo {
			lo = x
		} else if x > hi {
			hi = x
		}
	}
	return
}

// quantCodes writes dst[i] = clamp(0, 255, roundNearestEven(src[i]*inv+zf)).
// The arithmetic is plain float32 multiply-then-add (no FMA, no float64
// widening) so the AVX2 kernel (VMULPS+VADDPS+VCVTPS2DQ with saturating
// packs) and this scalar tail produce bit-identical codes.
func quantCodes(dst []uint8, src []float32, inv, zf float32) {
	i := 0
	if hasAVX2 {
		if m := len(src) &^ 31; m > 0 {
			quantU8(&dst[0], &src[0], int64(m), inv, zf)
			i = m
		}
	}
	for ; i < len(src); i++ {
		u := int32(math.RoundToEven(float64(src[i]*inv + zf)))
		if u < 0 {
			u = 0
		} else if u > 255 {
			u = 255
		}
		dst[i] = uint8(u)
	}
}

// quantizeSlots computes each slot's (sa, zu) range and writes its quantized
// channels into the padded uint8 buffer, border and inter-channel padding
// filled with the slot's zero point.
func (q *qBuf) quantizeSlots(in []float32, batch, cin, d, h, w int) {
	chSize := cin * d * h * w
	hw := h * w
	pw, ph := w+2, h+2
	pplane := ph * pw
	pch := (d + 2) * pplane
	for b := 0; b < batch; b++ {
		slot := in[b*chSize:][:chSize]
		lo, hi := minMaxSpan(slot)
		sa := 1.0
		var zu int32
		if span := float64(hi) - float64(lo); span > 0 {
			sa = span / 255
			zu = int32(math.Round(-float64(lo) / sa))
			if zu < 0 {
				zu = 0
			} else if zu > 255 {
				zu = 255
			}
		}
		q.sa[b], q.zu[b] = float32(sa), zu
		block := q.u8[b*cin*pch:][:cin*pch]
		// Fill the block with the zero point at memmove speed (copy doubling).
		block[0] = uint8(zu)
		for n := 1; n < len(block); n *= 2 {
			copy(block[n:], block[:n])
		}
		// Quantize the slot contiguously (one wide pass over the source),
		// then scatter interior rows into the padded block with byte copies.
		quantCodes(q.tmp[:chSize], slot, float32(1/sa), float32(zu))
		for c := 0; c < cin; c++ {
			src := q.tmp[c*d*hw:]
			dst := block[c*pch+pplane+pw+1:]
			for z := 0; z < d; z++ {
				sp := src[z*hw:]
				dp := dst[z*pplane:]
				for y := 0; y < h; y++ {
					copy(dp[y*pw:][:w], sp[y*w:][:w])
				}
			}
		}
	}
	// Slack past the last slot: deterministic zeros (never accumulated into
	// stored lanes, but keeps overrunning loads reproducible).
	for i := batch * cin * pch; i < len(q.u8); i++ {
		q.u8[i] = 0
	}
}

// buildP32 packs each padded cell's 3-byte x-window (the three activations a
// tap-row consumes) into one dword so the VNNI kernel loads 8 windows per
// VMOVDQU. Byte 3 is zero and pairs with the packed weights' zero byte.
// The AVX2 main loop cuts 8 windows per shuffle (pack24); the Go tail cuts
// four from one 8-byte load (intrinsified Uint64).
func buildP32(p32 []uint32, u []uint8) {
	const m = 0xffffff
	n := len(p32)
	i := 0
	if hasAVX2 && n >= 16 {
		iters := (n-16)/8 + 1
		pack24(&p32[0], &u[0], int64(iters))
		i = iters * 8
	}
	for ; i+10 <= n; i += 4 {
		v := binary.LittleEndian.Uint64(u[i:])
		p32[i] = uint32(v) & m
		p32[i+1] = uint32(v>>8) & m
		p32[i+2] = uint32(v>>16) & m
		p32[i+3] = uint32(v>>24) & m
	}
	for ; i < n-2; i++ {
		p32[i] = uint32(u[i]) | uint32(u[i+1])<<8 | uint32(u[i+2])<<16
	}
	for ; i < n; i++ {
		p32[i] = 0
	}
}

// qconvBatch is the pooled quantized-forward Task: one Run processes a range
// of flattened (b, oc, z) output slices.
type qconvBatch struct {
	out, res      []float32
	bias          []float32
	qw            *QuantizedWeights
	u8            []uint8
	p32           []uint32
	sa            []float32
	zu            []int32
	asm           bool
	ep            convEpilogue
	cout          int
	cin, d, h, wd int
}

var qconvPool = sync.Pool{New: func() any { return new(qconvBatch) }}

// spanMasks[k] has the first k of 8 store lanes enabled: the column-tail
// store mask of the VNNI kernel's 4-row x 8-column blocks.
var spanMasks = func() (m [9][8]int32) {
	for k := 1; k <= 8; k++ {
		for l := 0; l < k; l++ {
			m[k][l] = -1
		}
	}
	return
}()

func (t *qconvBatch) Run(start, end int) {
	cin, d, h, w := t.cin, t.d, t.h, t.wd
	hw := h * w
	chSize := d * hw
	pw, ph := w+2, h+2
	pplane := ph * pw
	pch := (d + 2) * pplane
	for u := start; u < end; u++ {
		b, rem := u/(t.cout*d), u%(t.cout*d)
		oc, z := rem/d, rem%d
		sliceBase := (b*t.cout + oc) * chSize
		outPlane := t.out[sliceBase+z*hw:][:hw]
		// Requantization constants: out = scale*float32(acc) + offs, with the
		// activation zero point and bias folded into offs. Both engines use
		// this exact expression, so they stay bit-identical.
		scale := t.sa[b] * t.qw.Scales[oc]
		corr := t.zu[b] * t.qw.SumQ[oc]
		var bv float32
		if t.bias != nil {
			bv = t.bias[oc]
		}
		offs := bv - scale*float32(corr)
		if t.asm {
			p32Ch := t.p32[b*cin*pch:]
			wOC := &t.qw.Packed[oc*cin*9]
			for yb := 0; yb < h; yb += 4 {
				nrows := h - yb
				if nrows > 4 {
					nrows = 4
				}
				for xb := 0; xb < w; xb += 8 {
					k := w - xb
					if k > 8 {
						k = 8
					}
					qconv33Span4(
						&outPlane[yb*w+xb],
						&p32Ch[z*pplane+yb*pw+xb],
						wOC,
						int64(cin), int64(pch), int64(pplane), int64(pw), int64(w),
						int64(nrows), &spanMasks[k][0], scale, offs)
				}
			}
		} else {
			u8Ch := t.u8[b*cin*pch:]
			wq := t.qw.W[oc*cin*27:][:cin*27]
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					var acc int32
					wi := 0
					for ic := 0; ic < cin; ic++ {
						base := ic*pch + z*pplane + y*pw + x
						for dz := 0; dz < 3; dz++ {
							rb := base + dz*pplane
							for dy := 0; dy < 3; dy++ {
								row := u8Ch[rb+dy*pw:][:3]
								acc += int32(wq[wi]) * int32(row[0])
								acc += int32(wq[wi+1]) * int32(row[1])
								acc += int32(wq[wi+2]) * int32(row[2])
								wi += 3
							}
						}
					}
					outPlane[y*w+x] = scale*float32(acc) + offs
				}
			}
		}
		switch t.ep {
		case epReLU:
			for i, v := range outPlane {
				if v < 0 {
					outPlane[i] = 0
				}
			}
		case epResReLU:
			resPlane := t.res[sliceBase+z*hw:][:hw]
			for i := range outPlane {
				v := outPlane[i] + resPlane[i]
				if v < 0 {
					v = 0
				}
				outPlane[i] = v
			}
		}
	}
}

func convBatchQCheck(out, in *Tensor, qw *QuantizedWeights) (batch, cin, d, h, w int) {
	if len(in.Shape) != 5 || len(out.Shape) != 5 {
		panic(fmt.Sprintf("tensor: Conv3DBatchQInto wants 5-d (B,C,D,H,W) tensors, got in %v out %v", in.Shape, out.Shape))
	}
	batch = in.Shape[0]
	cin, d, h, w = in.Shape[1], in.Shape[2], in.Shape[3], in.Shape[4]
	if qw.Cin != cin {
		panic(fmt.Sprintf("tensor: Conv3DBatchQInto weights expect %d input channels, input has %d", qw.Cin, cin))
	}
	if out.Shape[0] != batch || out.Shape[1] != qw.Cout || out.Shape[2] != d || out.Shape[3] != h || out.Shape[4] != w {
		panic(fmt.Sprintf("tensor: Conv3DBatchQInto out shape %v, want (%d,%d,%d,%d,%d)", out.Shape, batch, qw.Cout, d, h, w))
	}
	return
}

func convBatchQDispatch(out, in *Tensor, qw *QuantizedWeights, bias []float32, res []float32, ep convEpilogue, maxBatch int) {
	batch, cin, d, h, w := convBatchQCheck(out, in, qw)
	if maxBatch > 0 && maxBatch < batch {
		batch = maxBatch
	}
	qb := qBufPool.Get().(*qBuf)
	qb.ensure(spanPadLen(batch*cin, d, h, w), batch, cin*d*h*w)
	qb.quantizeSlots(in.Data, batch, cin, d, h, w)
	asm := QuantAsmActive()
	if asm {
		buildP32(qb.p32, qb.u8)
	}
	t := qconvPool.Get().(*qconvBatch)
	t.out, t.res, t.bias = out.Data, res, bias
	t.qw = qw
	t.u8, t.p32, t.sa, t.zu = qb.u8, qb.p32, qb.sa, qb.zu
	t.asm = asm
	t.ep = ep
	t.cout = qw.Cout
	t.cin, t.d, t.h, t.wd = cin, d, h, w
	unitWork := h * w * cin * 27
	grain := 1
	if unitWork < convGrainFlops {
		grain = (convGrainFlops + unitWork - 1) / unitWork
	}
	parallel.InvokeGrain(batch*qw.Cout*d, grain, t)
	t.out, t.res, t.bias, t.qw = nil, nil, nil, nil
	t.u8, t.p32, t.sa, t.zu = nil, nil, nil, nil
	qconvPool.Put(t)
	qBufPool.Put(qb)
}

// Conv3DBatchQInto is the int8 counterpart of Conv3DBatchInto: B packed
// (Cin, D, H, W) inputs against shared quantized (Cout, Cin, 3, 3, 3)
// weights. Activations quantize per slot, so each item's result is
// bit-identical at every batch size and worker count, on both the VNNI and
// scalar engines; steady-state calls allocate nothing.
func Conv3DBatchQInto(out, in *Tensor, qw *QuantizedWeights, bias []float32, batch int) {
	convBatchQDispatch(out, in, qw, bias, nil, epNone, batch)
}

// Conv3DBatchQReLUInto fuses ReLU into the quantized conv's requantization.
func Conv3DBatchQReLUInto(out, in *Tensor, qw *QuantizedWeights, bias []float32, batch int) {
	convBatchQDispatch(out, in, qw, bias, nil, epReLU, batch)
}

// Conv3DBatchQResReLUInto fuses residual-add+ReLU into the quantized conv's
// requantization: out = max(0, requant(acc) + res).
func Conv3DBatchQResReLUInto(out, in *Tensor, qw *QuantizedWeights, bias []float32, res *Tensor, batch int) {
	if !SameShape(out, res) {
		panic("tensor: Conv3DBatchQResReLUInto residual shape mismatch")
	}
	convBatchQDispatch(out, in, qw, bias, res.Data, epResReLU, batch)
}
