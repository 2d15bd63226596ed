package tensor

import (
	"fmt"
	"testing"

	"chaseci/internal/parallel"
	"chaseci/internal/sim"
)

// batchRef computes the unfused reference for a batch: per-item Conv3DInto
// (itself pinned bit-exact to the scalar kernel by TestConv3DIntoMatchesScalar),
// then the requested epilogue as separate full traversals.
func batchRef(in, weight *Tensor, bias []float32, res *Tensor, ep convEpilogue) *Tensor {
	batch, cin := in.Shape[0], in.Shape[1]
	d, h, w := in.Shape[2], in.Shape[3], in.Shape[4]
	cout := weight.Shape[0]
	out := New(batch, cout, d, h, w)
	inItem := New(cin, d, h, w)
	outItem := New(cout, d, h, w)
	for b := 0; b < batch; b++ {
		copy(inItem.Data, in.Data[b*cin*d*h*w:(b+1)*cin*d*h*w])
		Conv3DInto(outItem, inItem, weight, bias)
		if ep == epResReLU {
			resItem := FromData(res.Data[b*cout*d*h*w:(b+1)*cout*d*h*w], cout, d, h, w)
			outItem.AddInPlace(resItem)
		}
		if ep == epReLU || ep == epResReLU {
			ReLUInto(outItem, outItem)
		}
		copy(out.Data[b*cout*d*h*w:], outItem.Data)
	}
	return out
}

// TestConv3DBatchIntoMatchesPerItem sweeps shapes, batch sizes, and worker
// counts, requiring every batched/fused variant to be bit-exact with the
// per-item unfused pipeline.
func TestConv3DBatchIntoMatchesPerItem(t *testing.T) {
	rng := sim.NewRNG(19)
	for _, tc := range convCases {
		for _, batch := range []int{1, 2, 3, 8} {
			in := randTensor(rng, batch, tc.cin, tc.d, tc.h, tc.w)
			weight := randTensor(rng, tc.cout, tc.cin, tc.kd, tc.kh, tc.kw)
			bias := make([]float32, tc.cout)
			for i := range bias {
				bias[i] = float32(rng.NormFloat64())
			}
			wantPlain := batchRef(in, weight, bias, nil, epNone)
			wantReLU := batchRef(in, weight, bias, nil, epReLU)
			for _, workers := range []int{1, 2, 8} {
				t.Run(fmt.Sprintf("%+v/batch=%d/workers=%d", tc, batch, workers), func(t *testing.T) {
					prev := parallel.SetWorkers(workers)
					defer parallel.SetWorkers(prev)
					out := New(batch, tc.cout, tc.d, tc.h, tc.w)
					for name, pair := range map[string]struct {
						run  func()
						want *Tensor
					}{
						"plain": {func() { Conv3DBatchInto(out, in, weight, bias, 0) }, wantPlain},
						"relu":  {func() { Conv3DBatchReLUInto(out, in, weight, bias, 0) }, wantReLU},
					} {
						out.Fill(999) // stale garbage must be overwritten
						pair.run()
						for i := range pair.want.Data {
							if out.Data[i] != pair.want.Data[i] {
								t.Fatalf("%s element %d: got %v, want %v (not bit-exact)", name, i, out.Data[i], pair.want.Data[i])
							}
						}
					}
					// Nil-bias path.
					out.Fill(999)
					Conv3DBatchInto(out, in, weight, nil, 0)
					wantNB := batchRef(in, weight, nil, nil, epNone)
					for i := range wantNB.Data {
						if out.Data[i] != wantNB.Data[i] {
							t.Fatalf("nil-bias element %d: got %v, want %v", i, out.Data[i], wantNB.Data[i])
						}
					}
				})
			}
		}
	}
}

// TestConv3DBatchIntoPartialBatch checks the batch limit: only the first
// `live` items are computed, the tail of the scratch tensor is untouched.
func TestConv3DBatchIntoPartialBatch(t *testing.T) {
	rng := sim.NewRNG(23)
	in := randTensor(rng, 4, 2, 3, 5, 5)
	weight := randTensor(rng, 3, 2, 3, 3, 3)
	bias := []float32{0.1, -0.2, 0.3}
	want := batchRef(in, weight, bias, nil, epNone)
	out := New(4, 3, 3, 5, 5)
	out.Fill(-7)
	Conv3DBatchInto(out, in, weight, bias, 2)
	itemN := 3 * 3 * 5 * 5
	for i := 0; i < 2*itemN; i++ {
		if out.Data[i] != want.Data[i] {
			t.Fatalf("live element %d: got %v, want %v", i, out.Data[i], want.Data[i])
		}
	}
	for i := 2 * itemN; i < len(out.Data); i++ {
		if out.Data[i] != -7 {
			t.Fatalf("dead element %d was touched: %v", i, out.Data[i])
		}
	}
}

// TestConv3DReLUIntoMatchesUnfused pins the fused ReLU, one item at a time,
// against the unfused public sequence Conv3DInto, ReLUInto.
func TestConv3DReLUIntoMatchesUnfused(t *testing.T) {
	rng := sim.NewRNG(29)
	in := randTensor(rng, 1, 3, 4, 8, 9)
	weight := randTensor(rng, 5, 3, 3, 3, 3)
	bias := make([]float32, 5)
	for i := range bias {
		bias[i] = float32(rng.NormFloat64())
	}
	in4 := &Tensor{Shape: in.Shape[1:], Data: in.Data}
	want := New(5, 4, 8, 9)
	Conv3DInto(want, in4, weight, bias)
	ReLUInto(want, want)
	got := New(1, 5, 4, 8, 9)
	Conv3DBatchReLUInto(got, in, weight, bias, 1)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("fused relu element %d: got %v, want %v", i, got.Data[i], want.Data[i])
		}
	}
}

// TestConv3DBatchIntoAllocFree guards the allocation contract of the
// batched family: steady-state dispatches must not allocate.
func TestConv3DBatchIntoAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; alloc pins run in the non-race job")
	}
	rng := sim.NewRNG(31)
	in := randTensor(rng, 4, 2, 3, 7, 7)
	weight := randTensor(rng, 4, 2, 3, 3, 3)
	bias := make([]float32, 4)
	out := New(4, 4, 3, 7, 7)
	Conv3DBatchReLUInto(out, in, weight, bias, 0) // warm pools
	allocs := testing.AllocsPerRun(50, func() {
		Conv3DBatchInto(out, in, weight, bias, 0)
		Conv3DBatchReLUInto(out, in, weight, bias, 0)
	})
	if allocs != 0 {
		t.Fatalf("batched conv steady-state allocs/op = %v, want 0", allocs)
	}
}

// BenchmarkConv3DBatchInto measures the batched kernel amortizing weight
// traffic over 8 FFN-sized FOVs (compare against 8x BenchmarkConv3DInto).
func BenchmarkConv3DBatchInto(b *testing.B) {
	rng := sim.NewRNG(1)
	const batch = 8
	in := randTensor(rng, batch, 6, 3, 7, 7)
	w := randTensor(rng, 6, 6, 3, 3, 3)
	bias := make([]float32, 6)
	out := New(batch, 6, 3, 7, 7)
	Conv3DBatchInto(out, in, w, bias, 0) // warm pools
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Conv3DBatchInto(out, in, w, bias, 0)
	}
}

// BenchmarkConv3DBatchReLUInto measures the fused conv+ReLU epilogue on a
// flood batch of eight FOVs, at the test geometry (6 features, 3x7x7) and at
// the default network's module geometry (8 features, 5x9x9) — the conv a
// default-config segment job spends its time in.
func BenchmarkConv3DBatchReLUInto(b *testing.B) {
	for _, sh := range []spanShape{{8, 6, 6, 3, 7, 7}, {8, 8, 8, 5, 9, 9}} {
		b.Run(fmt.Sprintf("f%d_%dx%dx%d", sh.cin, sh.d, sh.h, sh.w), func(b *testing.B) {
			rng := sim.NewRNG(1)
			in := randTensor(rng, sh.b, sh.cin, sh.d, sh.h, sh.w)
			w := randTensor(rng, sh.cout, sh.cin, 3, 3, 3)
			bias := make([]float32, sh.cout)
			out := New(sh.b, sh.cout, sh.d, sh.h, sh.w)
			Conv3DBatchReLUInto(out, in, w, bias, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Conv3DBatchReLUInto(out, in, w, bias, 0)
			}
		})
	}
}
