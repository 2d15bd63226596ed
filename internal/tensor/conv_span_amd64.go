//go:build amd64

package tensor

// conv33Flat computes nvec (1..spanGroup) consecutive 8-lane vectors of one
// (b, oc, z) output plane laid out at the padded pitch (conv_span_amd64.s):
// lane i of the run is bias plus the cin*27 taps whose (ic=0, dz=0, dy=0,
// dx=0) input is pin[i]. w points at the oc's cin*27 weights; strides are in
// elements. All 8*nvec lanes are stored to dst, and the loads run up to
// 2*pplane+2*pw+2 elements past the run's own end, so lanes at pad-column or
// past-the-plane positions hold whatever lies there: the caller never copies
// them out. Requires AVX2.
//
//go:noescape
func conv33Flat(dst, pin, w *float32, cin, pch, pplane, pw, nvec int64, bias float32)

// convBwdW33 computes the weight gradient of one (output-channel group, ic,
// dz) of a 3x3x3 conv (conv_span_amd64.s): for each in-plane tap
// k = dy*3+dx, the 8 lanes of dst[8k:8k+8] are the sums over the d*h*w output
// positions, in (z, y, x) order, of gt[p][l] *
// pin[z*pplane + (y+dy)*prow + (x+dx)*istride]. gt holds the group's gradOut
// with the eight output channels of a position contiguous (one per lane),
// gstride apart along x, with growSkip more after each row and gplaneSkip
// after each plane; pin points at the padded input plane dz of channel ic.
// Strides are in bytes. Every lane accumulates with separate multiply and
// add, so its sequence is the scalar gather's. Requires AVX2.
//
//go:noescape
func convBwdW33(dst, pin, gt *float32, d, h, w, pplane, prow, istride, gstride, growSkip, gplaneSkip int64)

// convRow33 computes n (1..laneTile) consecutive output positions of one row
// of a 3x3x3 conv in channel-blocked layout (conv_span_amd64.s), eight
// output channels per position in the lanes of one vector: each lane is
// bias plus the cin*27 taps in ic -> dz -> dy -> dx order, plus the residual
// at res when res is not nil, then max(floor, .) — ReLU at a +0 floor, the
// sum itself at -Inf — stored at dst + p*ostride. pin is tap (0, 0, 0) of
// position 0, channel 0; w is the group's [cin][27][8] weights. Strides are
// in bytes. Requires AVX2.
//
//go:noescape
func convRow33(dst, pin, w, bias, res *float32, cin, istride, prow, pplane, ostride, n int64, floor float32)

// convRow33x2 is convRow33 for two batch slots interleaved in one Blocked
// buffer, channel c of slot s at float 2c+s of a position
// (conv_span_amd64.s): each 16-lane vector holds eight output channels of
// both slots, lane 2c+s, and each lane runs convRow33's sequence. pin is
// tap (0, 0, 0) of position 0, channel 0 of slot 0; w is the group's
// [cin][27][16] doubled weights (PairLaneWeights) and bias their 16 lanes.
// Strides are in bytes. Requires AVX-512F.
//
//go:noescape
func convRow33x2(dst, pin, w, bias, res *float32, cin, istride, prow, pplane, ostride, n int64, floor float32)
