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
	convBatchDispatch(asBatch1(&hdr.o, out), asBatch1(&hdr.i, in), weight, bias, nil, epNone, 0)
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

// convBwd is the pooled backward Task: one Run processes a range of output-
// channel shards. Gradients w.r.t. weights and bias are owned per output
// channel and accumulate in scalar order (bit-exact at every worker count);
// the input gradient scatters across channels, so each shard accumulates
// into a private partial that is reduced in deterministic shard order
// afterwards. With more than one shard the reduction reassociates float
// additions, so gradIn matches the scalar kernel to roundoff (~1e-6
// relative), not bit-exactly; at one shard it is bit-exact.
type convBwd struct {
	in, w, gradOut []float32
	gradW          []float32
	gradB          []float32
	partials       [][]float32 // per-shard gradIn partials
	cin, d, h, wd  int
	cout           int // sharded by parallel.Chunk over len(partials)
	kd, kh, kw     int
	pd, ph, pw     int
}

var convBwdPool = sync.Pool{New: func() any { return new(convBwd) }}

func (t *convBwd) Run(start, end int) {
	for k := start; k < end; k++ {
		oc0, oc1 := parallel.Chunk(t.cout, len(t.partials), k)
		t.runShard(oc0, oc1, t.partials[k])
	}
}

// runShard accumulates gradients for output channels [oc0, oc1) with the
// original scalar loop structure and order.
func (t *convBwd) runShard(oc0, oc1 int, gradIn []float32) {
	cin, d, h, w := t.cin, t.d, t.h, t.wd
	kd, kh, kw := t.kd, t.kh, t.kw
	pd, ph, pw := t.pd, t.ph, t.pw
	for oc := oc0; oc < oc1; oc++ {
		for z := 0; z < d; z++ {
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					g := t.gradOut[((oc*d+z)*h+y)*w+x]
					if g == 0 {
						continue
					}
					t.gradB[oc] += g
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
									t.gradW[wBase+dx] += g * t.in[iBase+ix]
									gradIn[iBase+ix] += g * t.w[wBase+dx]
								}
							}
						}
					}
				}
			}
		}
	}
}

// Conv3DBackwardInto computes the gradients of a Conv3D call into
// caller-provided tensors: gradIn (Cin, D, H, W), gradW (same shape as
// weight), and gradB (len Cout). All three are overwritten.
func Conv3DBackwardInto(gradIn, gradW *Tensor, gradB []float32, in, weight, gradOut *Tensor) {
	cin, d, h, w, cout, kd, kh, kw := convCheck(in, weight)
	if !SameShape(gradIn, in) || !SameShape(gradW, weight) || len(gradB) != cout {
		panic("tensor: Conv3DBackwardInto gradient shape mismatch")
	}
	gradIn.Zero()
	gradW.Zero()
	for i := range gradB {
		gradB[i] = 0
	}
	t := convBwdPool.Get().(*convBwd)
	t.in, t.w, t.gradOut = in.Data, weight.Data, gradOut.Data
	t.gradW, t.gradB = gradW.Data, gradB
	t.cin, t.d, t.h, t.wd, t.cout = cin, d, h, w, cout
	t.kd, t.kh, t.kw = kd, kh, kw
	t.pd, t.ph, t.pw = kd/2, kh/2, kw/2

	// Tiny backward passes stay serial: sharding must be worth at least
	// convGrainFlops of scatter work per output channel.
	unitWork := d * h * w * cin * kd * kh * kw
	if unitWork < convGrainFlops || cout == 1 || parallel.Workers() == 1 {
		// Single shard: accumulate straight into gradIn, bit-exact with the
		// original serial kernel, and allocation-free.
		t.runShard(0, cout, gradIn.Data)
	} else {
		// One shard per dispatch chunk of the output channels (at least two
		// here: more than one worker, more than one channel).
		t.partials = t.partials[:0]
		for range parallel.Chunks(cout) {
			p := GetFloats(len(gradIn.Data))
			clear(p)
			t.partials = append(t.partials, p)
		}
		parallel.Invoke(len(t.partials), t)
		// Deterministic reduction in shard (ascending oc) order.
		for _, p := range t.partials {
			for i, v := range p {
				gradIn.Data[i] += v
			}
			PutFloats(p)
		}
	}
	t.in, t.w, t.gradOut, t.gradW, t.gradB = nil, nil, nil, nil, nil
	for i := range t.partials {
		t.partials[i] = nil
	}
	convBwdPool.Put(t)
}
