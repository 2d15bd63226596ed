package tensor

import (
	"fmt"
	"math"
)

// Channel-lane forward engine for 3x3x3 conv + ReLU layers whose activations
// stay in one layout from layer to layer (the f32 flood's, in internal/ffn).
//
// Activations live in a Blocked buffer: (D+2, H+2, W+2, C) floats, C
// channels per position, with a one-position shell of zeros that nothing
// but ClearShell writes. A layer reads its input buffer and writes the
// interior of its output buffer, so the next layer reads it as is: no
// staging copy, no re-padding. Eight output channels share the lanes of one
// vector, so a position costs ceil(cout/8)*cin*27 vector multiply-adds and
// no lane lands on a pad column.
//
// The engine has two widths. At width 1 a buffer holds one batch slot (one
// FOV) and a vector is 8 lanes (convRow33, AVX2). At width 2 a buffer holds
// two slots interleaved, channel c of slot s at float 2c+s of a position,
// so C is twice the channels of one slot, and a vector is 16 lanes
// (convRow33x2, AVX-512F): each tap's two inputs arrive in one 64-bit
// broadcast and one multiply and one add serve both slots. The lanes of the
// two slots never mix, so a slot's bits do not depend on its partner.
//
// A layer is evaluated only at the positions a caller lists, one x interval
// per (z, y) row. Positions outside the list are neither read from the
// output buffer nor written; a caller that lists, for each layer, every
// position a later layer reads leaves the rest of every buffer unused.
//
// Bit-exactness: every output lane, at either width, is the bias, then all
// cin*27 taps (padding taps included, each adding a signed zero) in the
// scalar kernel's ic -> dz -> dy -> dx order with separate multiply and
// add, then the residual, then max(0, .) keeping NaN and -0 — the
// per-element sequence of Conv3DBatchReLUInto (or Conv3DBatchInto,
// AddInPlace, ReLUInto). ConvLanes33 is the same without the ReLU. The
// kernels convRow33 and convRow33x2 and their Go twins convRow33Go and
// convRow33x2Go compute the same bits; a twin runs wherever its kernel's
// span path is off (SetSpanKernels(false), the nosimd tag, non-amd64, a CPU
// without AVX2, or without AVX-512F for width 2).
//
// Training runs on the same engine at width 1 (internal/ffn's
// exampleGrad): the forward pass as the flood's, every input gradient as a
// ConvLanes33 with PackLaneWeights33Flipped weights, the ReLU backward as
// MaskReLUGrad on the post-activation, and the weight gradients as
// ConvLanesGradW33.

// laneWidth is how many output channels one vector holds; laneTile is the
// most positions one convRow33 or convRow33x2 call keeps in registers.
const (
	laneWidth = 8
	laneTile  = 12
)

// LaneChannels rounds a channel count up to whole vectors: the channels per
// position of a Blocked buffer a conv with c output channels writes.
func LaneChannels(c int) int { return (c + laneWidth - 1) / laneWidth * laneWidth }

// Blocked describes a zero-padded, channel-blocked activation buffer of
// interior (D, H, W): a (D+2, H+2, W+2, C) array of floats.
type Blocked struct{ D, H, W, C int }

// Len is the buffer's length in floats.
func (b Blocked) Len() int { return (b.D + 2) * (b.H + 2) * (b.W + 2) * b.C }

// Pos is the index of channel 0 of interior position (z, y, x).
func (b Blocked) Pos(z, y, x int) int {
	return (((z+1)*(b.H+2)+y+1)*(b.W+2) + x + 1) * b.C
}

// ClearShell zeroes the padding shell of buf and leaves the interior alone.
func (b Blocked) ClearShell(buf []float32) {
	c := b.C
	row := (b.W + 2) * c
	plane := (b.H + 2) * row
	buf = buf[:b.Len()]
	clear(buf[:plane])
	clear(buf[(b.D+1)*plane:])
	for z := 1; z <= b.D; z++ {
		p := buf[z*plane:][:plane]
		clear(p[:row])
		clear(p[(b.H+1)*row:])
		for y := 1; y <= b.H; y++ {
			r := p[y*row:][:row]
			clear(r[:c])
			clear(r[(b.W+1)*c:])
		}
	}
}

// LaneWeights33Len is the length of the lane form of (cout, cin, 3, 3, 3)
// weights and their bias (PackLaneWeights33).
func LaneWeights33Len(cout, cin int) int {
	return LaneChannels(cout) / laneWidth * (cin*27*laneWidth + laneWidth)
}

// PackLaneWeights33 writes (cout, cin, 3, 3, 3) weights and their bias (nil
// means zeros) into dst (len LaneWeights33Len) in lane form: for each group
// of eight output channels, w[ic][tap][lane] and then bias[lane], with the
// lanes past cout zero.
func PackLaneWeights33(dst []float32, weight *Tensor, bias []float32) {
	cout, cin := weight.Shape[0], weight.Shape[1]
	if weight.Shape[2] != 3 || weight.Shape[3] != 3 || weight.Shape[4] != 3 {
		panic(fmt.Sprintf("tensor: PackLaneWeights33 wants 3x3x3 weights, got %v", weight.Shape))
	}
	dst = dst[:LaneWeights33Len(cout, cin)]
	clear(dst)
	gLen := cin*27*laneWidth + laneWidth
	for oc := 0; oc < cout; oc++ {
		g := dst[oc/laneWidth*gLen:][:gLen]
		l := oc % laneWidth
		src := weight.Data[oc*cin*27:][:cin*27]
		for i, v := range src {
			g[i*laneWidth+l] = v
		}
		if bias != nil {
			g[cin*27*laneWidth+l] = bias[oc]
		}
	}
}

// PackLaneWeights33Flipped writes the lane form of the input gradient of a
// conv with (cout, cin, 3, 3, 3) weights into dst (len
// LaneWeights33Len(cin, cout)): the conv from cout channels to cin with the
// channels transposed and the taps flipped, w'[ic][oc][k] = w[oc][ic][26-k],
// and no bias. ConvLanes33 with it maps a gradient with respect to the
// conv's output to the gradient with respect to its input.
func PackLaneWeights33Flipped(dst []float32, weight *Tensor) {
	cout, cin := weight.Shape[0], weight.Shape[1]
	if weight.Shape[2] != 3 || weight.Shape[3] != 3 || weight.Shape[4] != 3 {
		panic(fmt.Sprintf("tensor: PackLaneWeights33Flipped wants 3x3x3 weights, got %v", weight.Shape))
	}
	dst = dst[:LaneWeights33Len(cin, cout)]
	clear(dst)
	gLen := cout*27*laneWidth + laneWidth
	for ic := 0; ic < cin; ic++ {
		g := dst[ic/laneWidth*gLen:][:gLen]
		l := ic % laneWidth
		for oc := 0; oc < cout; oc++ {
			src := weight.Data[(oc*cin+ic)*27:][:27]
			row := g[oc*27*laneWidth:]
			for k, v := range src {
				row[(26-k)*laneWidth+l] = v
			}
		}
	}
}

// PairLaneWeights turns lane weights into their paired form, in place: the
// first half of w holds PackLaneWeights33 (or PackLaneWeights33Flipped)
// output, and on return w holds each of those values twice, in order, so
// lane 2c+s of a 16-lane vector carries output channel c's weight for
// either batch slot s. ConvLanes33ReLUx2 reads that form.
func PairLaneWeights(w []float32) {
	if len(w)%2 != 0 {
		panic(fmt.Sprintf("tensor: PairLaneWeights wants an even length, got %d", len(w)))
	}
	// Backwards, so each value is read before anything lands on it.
	for i := len(w)/2 - 1; i >= 0; i-- {
		w[2*i], w[2*i+1] = w[i], w[i]
	}
}

// ConvLanes33ReLU computes one 3x3x3 same-padded conv layer with a fused
// ReLU, out = max(0, conv(in) + res), at the interior positions spans lists:
// for each of the D*H rows (z, y) in order, the half-open interval
// [spans[2r], spans[2r+1]) of x (an empty interval skips the row). in holds
// cin channels per position in layout li (li.C >= cin); out, and res unless
// it is nil, have layout lo with the interior of li; lw is the layer's
// PackLaneWeights33 form for lo.C/8 groups. Lanes past cout come out as
// max(0, 0 + 0*x + res). The call allocates nothing.
func ConvLanes33ReLU(out []float32, lo Blocked, in []float32, li Blocked, cin int, lw, res []float32, spans []int32) {
	convLanes33(out, lo, in, li, cin, lw, res, spans, 0, 1)
}

// ConvLanes33ReLUx2 is ConvLanes33ReLU on two batch slots at once: every
// buffer holds both slots interleaved, channel c of slot s at float 2c+s of
// a position (li.C >= 2*cin, lo.C a multiple of 16), and lw is the layer's
// lane weights in paired form (PairLaneWeights). Each slot's outputs are
// the bits ConvLanes33ReLU gives it alone.
func ConvLanes33ReLUx2(out []float32, lo Blocked, in []float32, li Blocked, cin int, lw, res []float32, spans []int32) {
	convLanes33(out, lo, in, li, cin, lw, res, spans, 0, 2)
}

// ConvLanes33 is ConvLanes33ReLU without the ReLU: out = conv(in) + res.
func ConvLanes33(out []float32, lo Blocked, in []float32, li Blocked, cin int, lw, res []float32, spans []int32) {
	convLanes33(out, lo, in, li, cin, lw, res, spans, float32(math.Inf(-1)), 1)
}

// convLanes33 is all three: the epilogue is max(floor, .), a ReLU at a +0
// floor and nothing at -Inf, and width is the batch slots per buffer, 1 or
// 2.
func convLanes33(out []float32, lo Blocked, in []float32, li Blocked, cin int, lw, res []float32, spans []int32, floor float32, width int) {
	vec := width * laneWidth // the floats of one output vector
	groups := lo.C / vec
	gLen := width * (cin*27*laneWidth + laneWidth)
	if (width != 1 && width != 2) || lo.C%vec != 0 || lo.D != li.D || lo.H != li.H || lo.W != li.W ||
		cin < 1 || width*cin > li.C || len(out) < lo.Len() || len(in) < li.Len() || (res != nil && len(res) < lo.Len()) ||
		len(lw) != groups*gLen || len(spans) != 2*lo.D*lo.H {
		panic(fmt.Sprintf("tensor: ConvLanes33 geometry: width %d, out %v (len %d), in %v (len %d), cin %d, weights %d, spans %d",
			width, lo, len(out), li, len(in), cin, len(lw), len(spans)))
	}
	asm := spanActive(3, 3, 3)
	if width == 2 {
		asm = PairedLanesActive()
	}
	istr, ostr := li.C, lo.C
	prow := (li.W + 2) * istr
	pplane := (li.H + 2) * prow
	for r := 0; r < lo.D*lo.H; r++ {
		z, y := r/lo.H, r%lo.H
		x0, x1 := int(spans[2*r]), int(spans[2*r+1])
		if x0 < 0 || x1 > lo.W {
			panic(fmt.Sprintf("tensor: ConvLanes33 row (%d, %d) span [%d, %d) outside width %d", z, y, x0, x1, lo.W))
		}
		// The row in equal tiles of at most laneTile positions.
		for tiles := (x1 - x0 + laneTile - 1) / laneTile; x0 < x1; tiles-- {
			n := (x1 - x0 + tiles - 1) / tiles
			ip := ((z*(li.H+2)+y)*(li.W+2) + x0) * istr // tap (0, 0, 0) of position x0
			op := lo.Pos(z, y, x0)
			for g := 0; g < groups; g++ {
				w := lw[g*gLen:][:gLen]
				o := op + g*vec
				if asm {
					var rp *float32
					if res != nil {
						rp = &res[o]
					}
					if width == 2 {
						convRow33x2(&out[o], &in[ip], &w[0], &w[gLen-vec], rp,
							int64(cin), int64(4*istr), int64(4*prow), int64(4*pplane), int64(4*ostr), int64(n), floor)
					} else {
						convRow33(&out[o], &in[ip], &w[0], &w[gLen-vec], rp,
							int64(cin), int64(4*istr), int64(4*prow), int64(4*pplane), int64(4*ostr), int64(n), floor)
					}
					continue
				}
				var rs []float32
				if res != nil {
					rs = res[o:]
				}
				if width == 2 {
					convRow33x2Go(out[o:], in[ip:], w, rs, cin, istr, prow, pplane, ostr, n, floor)
				} else {
					convRow33Go(out[o:], in[ip:], w, rs, cin, istr, prow, pplane, ostr, n, floor)
				}
			}
			x0 += n
		}
	}
}

// convRow33Go is convRow33 in Go, on slices and with strides in floats. The
// explicit float32 conversions keep every product rounded on its own: no
// fused multiply-add, as in the kernel.
func convRow33Go(out, in, w, res []float32, cin, istr, prow, pplane, ostr, n int, floor float32) {
	bias := w[cin*27*laneWidth:][:laneWidth]
	for p := 0; p < n; p++ {
		// One register accumulator per lane.
		a0, a1, a2, a3 := bias[0], bias[1], bias[2], bias[3]
		a4, a5, a6, a7 := bias[4], bias[5], bias[6], bias[7]
		pin := in[p*istr:]
		wt := w
		for ic := 0; ic < cin; ic++ {
			for dz := 0; dz < 3; dz++ {
				for dy := 0; dy < 3; dy++ {
					row := pin[dz*pplane+dy*prow+ic:]
					for dx := 0; dx < 3; dx++ {
						v := row[dx*istr]
						t := wt[:laneWidth:laneWidth]
						a0 += float32(v * t[0])
						a1 += float32(v * t[1])
						a2 += float32(v * t[2])
						a3 += float32(v * t[3])
						a4 += float32(v * t[4])
						a5 += float32(v * t[5])
						a6 += float32(v * t[6])
						a7 += float32(v * t[7])
						wt = wt[laneWidth:]
					}
				}
			}
		}
		acc := [laneWidth]float32{a0, a1, a2, a3, a4, a5, a6, a7}
		if res != nil {
			for l, r := range res[p*ostr:][:laneWidth] {
				acc[l] += r
			}
		}
		dst := out[p*ostr:][:laneWidth]
		for l, v := range acc {
			// The kernel's VMAXPS with the floor first: NaN and a zero of
			// either sign against a +0 floor pass, as relu keeps them.
			if floor > v {
				v = floor
			}
			dst[l] = v
		}
	}
}

// convRow33x2Go is convRow33x2 in Go: convRow33Go once per batch slot s,
// reading slot s's inputs (channel ic at float 2ic+s) and the doubled
// weights' lanes 2c+s, and writing output lanes 2c+s. A lane's sequence
// does not depend on the other slot's, so slot by slot gives the kernel's
// bits.
func convRow33x2Go(out, in, w, res []float32, cin, istr, prow, pplane, ostr, n int, floor float32) {
	const vec = 2 * laneWidth
	for s := 0; s < 2; s++ {
		bias := w[cin*27*vec+s:][:vec-1]
		for p := 0; p < n; p++ {
			a0, a1, a2, a3 := bias[0], bias[2], bias[4], bias[6]
			a4, a5, a6, a7 := bias[8], bias[10], bias[12], bias[14]
			pin := in[p*istr+s:]
			wt := w[s:]
			for ic := 0; ic < cin; ic++ {
				for dz := 0; dz < 3; dz++ {
					for dy := 0; dy < 3; dy++ {
						row := pin[dz*pplane+dy*prow+2*ic:]
						for dx := 0; dx < 3; dx++ {
							v := row[dx*istr]
							t := wt[: vec-1 : vec-1]
							a0 += float32(v * t[0])
							a1 += float32(v * t[2])
							a2 += float32(v * t[4])
							a3 += float32(v * t[6])
							a4 += float32(v * t[8])
							a5 += float32(v * t[10])
							a6 += float32(v * t[12])
							a7 += float32(v * t[14])
							wt = wt[vec:]
						}
					}
				}
			}
			acc := [laneWidth]float32{a0, a1, a2, a3, a4, a5, a6, a7}
			if res != nil {
				r := res[p*ostr+s:][:vec-1]
				for l := range acc {
					acc[l] += r[2*l]
				}
			}
			dst := out[p*ostr+s:][:vec-1]
			for l, v := range acc {
				if floor > v {
					v = floor
				}
				dst[2*l] = v
			}
		}
	}
}

// MaskReLUGrad is the ReLU backward on the post-activation, over the
// interior of two buffers of layout b: it zeroes g wherever act <= 0 and
// leaves it elsewhere, NaN included. Since act = relu(pre) is <= 0 exactly
// where pre is (-0 stays -0, NaN stays NaN), this is ReLUBackwardInto on
// the pre-activation, which training then need not keep. Written on the bit
// pattern, like relu, so that it compiles to a conditional move.
func MaskReLUGrad(g, act []float32, b Blocked) {
	n := b.W * b.C
	for z := 0; z < b.D; z++ {
		for y := 0; y < b.H; y++ {
			o := b.Pos(z, y, 0)
			gr := g[o:][:n]
			for i, v := range act[o:][:n] {
				bits := math.Float32bits(gr[i])
				if v <= 0 {
					bits = 0
				}
				gr[i] = math.Float32frombits(bits)
			}
		}
	}
}

// ConvLanesGradW33 computes the weight and bias gradients of a 3x3x3 conv
// whose input, cin channels in layout li, and output gradient, cout
// channels in layout lg (the interior of li, lg.C a whole number of
// vectors), are Blocked buffers with zero shells: gradW (cout, cin, 3, 3, 3)
// and gradB (len cout), both overwritten. Conv3DBackwardInto's
// weight-gradient kernel reads both buffers in place — eight output
// channels of a position are one vector of the gradient, and the input's
// shell is the padding — so each element is the same sum, in the same
// (z, y, x) order, as the planar backward's: convBwdW33, or its Go twin
// wherever the span path is off. The bias gradient sums each channel over
// the positions in the same order. It runs on the calling goroutine and
// allocates nothing.
func ConvLanesGradW33(gradW, gradB, in []float32, li Blocked, cin int, g []float32, lg Blocked, cout int) {
	d, h, w := li.D, li.H, li.W
	if lg.D != d || lg.H != h || lg.W != w || lg.C%laneWidth != 0 || cout < 1 || cout > lg.C || cin < 1 || cin > li.C ||
		len(in) < li.Len() || len(g) < lg.Len() || len(gradW) != cout*cin*27 || len(gradB) != cout {
		panic(fmt.Sprintf("tensor: ConvLanesGradW33 geometry: in %v (len %d), cin %d, grad %v (len %d), cout %d, gradW %d, gradB %d",
			li, len(in), cin, lg, len(g), cout, len(gradW), len(gradB)))
	}
	clear(gradB)
	for z := 0; z < d; z++ {
		for y := 0; y < h; y++ {
			row := g[lg.Pos(z, y, 0):][:w*lg.C]
			for x := 0; x < w; x++ {
				for oc, v := range row[x*lg.C:][:cout] {
					gradB[oc] += v
				}
			}
		}
	}
	geo := gradW33Geom{d: d, h: h, w: w,
		pplane: (h + 2) * (w + 2) * li.C, prow: (w + 2) * li.C, istr: li.C,
		gstr: lg.C, growSkip: 2 * lg.C, gplaneSkip: 2 * (w + 2) * lg.C}
	asm := spanActive(3, 3, 3)
	for oc0 := 0; oc0 < cout; oc0 += laneWidth {
		gT := g[lg.Pos(0, 0, 0)+oc0:]
		for ic := 0; ic < cin; ic++ {
			gradW33Unit(gradW, in[ic:], gT, &geo, oc0, min(oc0+laneWidth, cout), ic, cin, asm)
		}
	}
}
