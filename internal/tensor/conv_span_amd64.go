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
