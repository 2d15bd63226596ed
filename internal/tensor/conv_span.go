package tensor

import "math"

// SIMD-shaped span path for the dominant 3x3x3 conv geometry.
//
// There are two AVX2 forward kernels and one AVX-512F one, and
// SetSpanKernels, the nosimd tag and the CPU check gate all three:
//   - conv33Flat, below, computes planar (B, C, D, H, W) tensors one output
//     channel at a time, eight positions of a plane in the lanes of a
//     vector. It serves Conv3DInto, Conv3DBatch*Into and the input gradient
//     of Conv3DBackwardInto: callers with planar tensors, which outside the
//     tests are only the benchmark's conv probes.
//   - convRow33 (conv_lanes.go) computes channel-blocked Blocked buffers
//     eight output channels at a time, in the lanes of a vector, at the
//     positions the caller lists, with a ReLU epilogue or none. It serves
//     ConvLanes33ReLU and ConvLanes33: the f32 flood's forward pass, and
//     training's forward pass and input gradients, whose activations and
//     gradients never leave that layout.
//   - convRow33x2 is convRow33 on two batch slots interleaved in one
//     Blocked buffer, the same eight output channels of both in the 16
//     lanes of a ZMM vector. It serves ConvLanes33ReLUx2, the flood's
//     forward pass where the CPU has AVX-512F (PairedLanesActive).
//
// The scalar batched engine (conv_batch.go) is already at the scalar FP
// throughput floor: each output element needs cin*27 multiply-accumulates and
// the plane walk issues exactly one MULSS+ADDSS per tap. Going faster
// requires wider issue, so the span path restructures the kernel around
// contiguous runs that map onto 8-wide vector registers:
//
//   - The input is copied once per dispatch into a zero-padded
//     (B*Cin, D+2, H+2, W+2) scratch buffer. Padding removes every border
//     conditional: all cin*27 taps are applied to every output element, with
//     out-of-image taps reading exact zeros. IEEE-754 guarantees x + w*0 == x
//     for every finite x (the only representational wiggle is the sign of an
//     exact zero, and -0.0 == +0.0), so the padded accumulation is
//     value-exact with the skip-based scalar walk. The copy is O(input),
//     ~1/(cin*27) of the kernel's FLOPs.
//   - At the padded pitch pw = W+2 a whole (b, oc, z) output plane is one
//     contiguous run: output (y, x) sits at flat index y*pw+x, and tap
//     (dz, dy, dx) of every element of the run is the same run shifted by
//     the constant dz*pplane+dy*pw+dx. So the plane is computed as
//     spanPlaneVectors(h, w) = ceil(((h-1)*pw+w)/8) consecutive vectors — 13
//     for a 9x9 FOV plane, 8 for 7x7 — rather than tiled into row blocks
//     whose column tails idle most of their lanes (the 4-row x 8-column
//     tiling this replaces spent 24 vectors on 9x9). The two pad-column
//     lanes between rows, and the lanes past the run's end in its last
//     vector, are computed like any other and dropped.
//   - conv33Flat (conv_span_amd64.s) computes up to spanGroup = 8 of those
//     vectors at a time: the accumulators live in registers across the
//     entire ic -> dz -> dy tap loop, each tap-row hoisting its three
//     coefficients into broadcast registers and issuing three VMULPS+VADDPS
//     per vector. Every lane accumulates its taps in the scalar kernel's
//     ic -> dz -> dy -> dx order with separate multiply and add (no FMA
//     contraction), so each element's float operation sequence — and
//     therefore its rounding — is identical to the scalar engine's. A plane
//     is split into equal groups (13 = 7+6, 21 = 7+7+7) so no group is short
//     enough to leave the add latency exposed.
//   - The kernel stores whole vectors into a stack buffer at the padded
//     pitch; the pass that applies the fused epilogue reads the w real lanes
//     of each row from there and writes them to the dense output, so
//     de-padding costs no traversal of its own. Loads overrun into
//     neighboring padded rows, planes, batch items and the buffer's slack
//     tail; lanes fed from there are never copied out.
//
// The scalar engine remains the fallback: non-amd64 builds, CPUs without
// AVX2, the `nosimd` build tag, and SetSpanKernels(false) all route through
// it, and the equivalence sweeps in conv_span_test.go pin the two paths to
// exact equality.

// spanEnabled gates the span path at runtime; spanDefault comes from the
// span_on/span_off build-tag pair (`nosimd` selects the scalar engine).
var spanEnabled = spanDefault

// SetSpanKernels enables or disables the SIMD span conv path, returning the
// previous setting. It exists for fallback configuration and equivalence
// tests; it must not be called concurrently with conv dispatches.
func SetSpanKernels(on bool) bool {
	prev := spanEnabled
	spanEnabled = on
	return prev
}

// SpanKernelsActive reports whether conv dispatches with 3x3x3 weights will
// take the SIMD span path (enabled and supported by the CPU).
func SpanKernelsActive() bool { return spanEnabled && hasAVX2 }

// PairedLanesActive reports whether ConvLanes33ReLUx2 runs the 16-lane
// AVX-512F kernel (convRow33x2) rather than its Go twin: the span path is
// enabled and the CPU and OS support AVX-512F.
func PairedLanesActive() bool { return spanEnabled && hasAVX512 }

// QuantAsmActive reports false: there is no quantized conv dispatch. It is
// kept only because the benchmark report's header still prints the field.
func QuantAsmActive() bool { return false }

// spanActive reports whether one dispatch with the given kernel geometry
// takes the span path.
func spanActive(kd, kh, kw int) bool {
	return spanEnabled && hasAVX2 && kd == 3 && kh == 3 && kw == 3
}

// spanGroup is how many 8-lane accumulators one conv33Flat call keeps in
// registers; spanStage is how many vectors of a plane runSpan stages on its
// stack between the kernel and the epilogue pass (a 9x9 plane needs 13; a
// larger plane goes through in several stages).
const (
	spanGroup = 8
	spanStage = 64
)

// spanPlaneVectors is how many 8-lane vectors the span path computes for
// one (h, w) output plane: the run from its first element to its last at
// the padded pitch w+2, rounded up to whole vectors. h*w of those lanes
// reach the output.
func spanPlaneVectors(h, w int) int {
	return ((h-1)*(w+2) + w + 7) / 8
}

// spanPadLen sizes the padded scratch for nch = B*Cin channels, plus one
// vector of slack: the flat kernel's last vector of the last plane reads up
// to seven lanes past the last padded plane.
func spanPadLen(nch, d, h, w int) int {
	pw, ph := w+2, h+2
	return nch*(d+2)*ph*pw + 8
}

// fillPadded copies nch (d,h,w) channels into the interior of the zeroed
// padded buffer.
func fillPadded(pad, in []float32, nch, d, h, w int) {
	pw, ph := w+2, h+2
	pplane := ph * pw
	pch := (d + 2) * pplane
	hw := h * w
	for c := 0; c < nch; c++ {
		src := in[c*d*hw:]
		dst := pad[c*pch+pplane+pw+1:]
		for z := 0; z < d; z++ {
			sp := src[z*hw:]
			dp := dst[z*pplane:]
			for y := 0; y < h; y++ {
				copy(dp[y*pw:y*pw+w], sp[y*w:y*w+w])
			}
		}
	}
}

// runSpan processes flattened (b, oc, z) output slices through the asm span
// kernel. Slice decomposition, bias init, and the fused epilogues match
// convBatch.Run exactly; only the tap accumulation is restructured.
func (t *convBatch) runSpan(start, end int) {
	cin, d, h, w := t.cin, t.d, t.h, t.wd
	hw := h * w
	chSize := d * hw
	pw, ph := w+2, h+2
	pplane := ph * pw
	pch := (d + 2) * pplane
	run := (h-1)*pw + w // the plane's length at the padded pitch
	nvec := spanPlaneVectors(h, w)
	var stage [8 * spanStage]float32
	for u := start; u < end; u++ {
		b, rem := u/(t.cout*d), u%(t.cout*d)
		oc, z := rem/d, rem%d
		var bv float32
		if t.bias != nil {
			bv = t.bias[oc]
		}
		sliceBase := (b*t.cout + oc) * chSize
		outPlane := t.out[sliceBase+z*hw:][:hw]
		padPlane := t.pad[b*cin*pch+z*pplane:]
		wOC := &t.w[oc*cin*27]
		for v0 := 0; v0 < nvec; v0 += spanStage {
			// Vectors [v0, v1) in equal groups of at most spanGroup.
			v1 := min(v0+spanStage, nvec)
			groups := (v1 - v0 + spanGroup - 1) / spanGroup
			for g, v := 0, v0; g < groups; g++ {
				n := (v1 - v + groups - g - 1) / (groups - g)
				conv33Flat(&stage[8*(v-v0)], &padPlane[8*v], wOC,
					int64(cin), int64(pch), int64(pplane), int64(pw), int64(n), bv)
				v += n
			}
			// Epilogue over the staged lanes [lo, hi) of the run: the real
			// columns of every row they cover, written to the dense plane.
			lo, hi := 8*v0, min(8*v1, run)
			for y := lo / pw; y*pw < hi; y++ {
				x0, x1 := max(lo-y*pw, 0), min(hi-y*pw, w)
				if x0 >= x1 {
					continue
				}
				src := stage[y*pw+x0-lo:][:x1-x0]
				dst := outPlane[y*w+x0:][:x1-x0]
				if t.ep == epReLU {
					for i, v := range src {
						dst[i] = relu(v)
					}
				} else {
					copy(dst, src)
				}
			}
		}
	}
}

// relu is max(0, v) exactly as the scalar engine's `if v < 0 { v = 0 }`
// computes it (NaN and -0 pass through), written on the bit pattern so it
// compiles to a conditional move: activation signs are data, and a branch
// on them mispredicts about every other element.
func relu(v float32) float32 {
	bits := math.Float32bits(v)
	if v < 0 {
		bits = 0
	}
	return math.Float32frombits(bits)
}
