package tensor

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"chaseci/internal/sim"
)

func TestNewShapeAndSize(t *testing.T) {
	a := New(2, 3, 4)
	if a.Size() != 24 || len(a.Data) != 24 {
		t.Fatalf("size = %d/%d, want 24", a.Size(), len(a.Data))
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(2, 0)
}

func TestFromDataMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromData mismatch did not panic")
		}
	}()
	FromData(make([]float32, 5), 2, 3)
}

func TestCloneIndependent(t *testing.T) {
	a := New(4)
	a.Fill(1)
	b := a.Clone()
	b.Data[0] = 9
	if a.Data[0] != 1 {
		t.Fatal("clone shares storage")
	}
}

func TestConv3DIdentityKernel(t *testing.T) {
	// A delta kernel must reproduce the input exactly.
	rng := sim.NewRNG(1)
	in := New(1, 4, 5, 6)
	for i := range in.Data {
		in.Data[i] = float32(rng.NormFloat64())
	}
	w := New(1, 1, 3, 3, 3)
	w.Data[vIdx5(w.Shape, 0, 0, 1, 1, 1)] = 1
	out := Conv3D(in, w, nil)
	for i := range in.Data {
		if math.Abs(float64(out.Data[i]-in.Data[i])) > 1e-6 {
			t.Fatalf("identity conv differs at %d: %v vs %v", i, out.Data[i], in.Data[i])
		}
	}
}

// vIdx computes the flat index of (c, z, y, x) in a (C,D,H,W) tensor.
func vIdx(shape []int, c, z, y, x int) int {
	return ((c*shape[1]+z)*shape[2]+y)*shape[3] + x
}

func vIdx5(shape []int, a, b, c, d, e int) int {
	return (((a*shape[1]+b)*shape[2]+c)*shape[3]+d)*shape[4] + e
}

func TestConv3DShiftKernel(t *testing.T) {
	// A kernel with its 1 at (dz=0, dy=1, dx=1) shifts the volume by -1 in z.
	in := New(1, 3, 3, 3)
	in.Data[vIdx(in.Shape, 0, 1, 1, 1)] = 5
	w := New(1, 1, 3, 3, 3)
	w.Data[vIdx5(w.Shape, 0, 0, 0, 1, 1)] = 1 // reads from z+(-1)... verifies offset logic
	out := Conv3D(in, w, nil)
	// out(z) = in(z-1): value appears at z=2.
	if out.Data[vIdx(out.Shape, 0, 2, 1, 1)] != 5 {
		t.Fatalf("shift conv: expected value at z=2, got field %v", out.Data)
	}
}

func TestConv3DBias(t *testing.T) {
	in := New(1, 2, 2, 2)
	w := New(2, 1, 1, 1, 1)
	out := Conv3D(in, w, []float32{1.5, -2})
	for i := 0; i < 8; i++ {
		if out.Data[i] != 1.5 {
			t.Fatalf("channel 0 = %v, want 1.5", out.Data[i])
		}
		if out.Data[8+i] != -2 {
			t.Fatalf("channel 1 = %v, want -2", out.Data[8+i])
		}
	}
}

func TestConv3DLinearity(t *testing.T) {
	// conv(a*x + b*y) == a*conv(x) + b*conv(y)
	rng := sim.NewRNG(3)
	mk := func() *Tensor {
		v := New(2, 3, 4, 3)
		for i := range v.Data {
			v.Data[i] = float32(rng.NormFloat64())
		}
		return v
	}
	x, y := mk(), mk()
	w := New(3, 2, 3, 3, 3)
	w.Randomize(rng, 2*27)
	mix := New(2, 3, 4, 3)
	for i := range mix.Data {
		mix.Data[i] = 2*x.Data[i] - 3*y.Data[i]
	}
	left := Conv3D(mix, w, nil)
	cx, cy := Conv3D(x, w, nil), Conv3D(y, w, nil)
	for i := range left.Data {
		want := 2*cx.Data[i] - 3*cy.Data[i]
		if math.Abs(float64(left.Data[i]-want)) > 1e-3 {
			t.Fatalf("linearity violated at %d: %v vs %v", i, left.Data[i], want)
		}
	}
}

func TestConv3DChannelMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("channel mismatch did not panic")
		}
	}()
	Conv3D(New(2, 2, 2, 2), New(1, 3, 1, 1, 1), nil)
}

// numericalGrad estimates dLoss/dparam[i] by central differences where
// loss = sum(conv output * seedGrad).
func numericalGrad(in, w *Tensor, bias []float32, seed *Tensor, param []float32, i int) float64 {
	const eps = 1e-2
	orig := param[i]
	param[i] = orig + eps
	outP := Conv3D(in, w, bias)
	param[i] = orig - eps
	outM := Conv3D(in, w, bias)
	param[i] = orig
	var lp, lm float64
	for j := range outP.Data {
		lp += float64(outP.Data[j] * seed.Data[j])
		lm += float64(outM.Data[j] * seed.Data[j])
	}
	return (lp - lm) / (2 * eps)
}

func TestConv3DBackwardMatchesNumericalGradient(t *testing.T) {
	rng := sim.NewRNG(7)
	in := New(2, 3, 3, 3)
	for i := range in.Data {
		in.Data[i] = float32(rng.NormFloat64())
	}
	w := New(2, 2, 3, 3, 3)
	w.Randomize(rng, 54)
	bias := []float32{0.1, -0.2}
	seed := New(2, 3, 3, 3) // dLoss/dOut
	for i := range seed.Data {
		seed.Data[i] = float32(rng.NormFloat64())
	}
	gradIn, gradW, gradB := New(in.Shape...), New(w.Shape...), make([]float32, 2)
	Conv3DBackwardInto(gradIn, gradW, gradB, in, w, seed)

	check := func(name string, analytic float32, numeric float64) {
		if math.Abs(float64(analytic)-numeric) > 1e-2*(1+math.Abs(numeric)) {
			t.Fatalf("%s gradient mismatch: analytic %v vs numeric %v", name, analytic, numeric)
		}
	}
	for _, i := range []int{0, 5, 17, len(w.Data) - 1} {
		check("weight", gradW.Data[i], numericalGrad(in, w, bias, seed, w.Data, i))
	}
	for _, i := range []int{0, 3, len(in.Data) - 1} {
		check("input", gradIn.Data[i], numericalGrad(in, w, bias, seed, in.Data, i))
	}
	// Bias gradient: dLoss/db[oc] = sum of seed over channel oc.
	var want float64
	for j := 0; j < 27; j++ {
		want += float64(seed.Data[j])
	}
	check("bias", gradB[0], want)
}

func TestReLUForwardBackward(t *testing.T) {
	in := FromData([]float32{-1, 0, 2, -3}, 1, 1, 1, 4)
	out := New(in.Shape...)
	ReLUInto(out, in)
	want := []float32{0, 0, 2, 0}
	for i := range want {
		if out.Data[i] != want[i] {
			t.Fatalf("ReLU = %v, want %v", out.Data, want)
		}
	}
	g := FromData([]float32{1, 1, 1, 1}, 1, 1, 1, 4)
	gb := New(g.Shape...)
	ReLUBackwardInto(gb, in, g)
	wantG := []float32{0, 0, 1, 0}
	for i := range wantG {
		if gb.Data[i] != wantG[i] {
			t.Fatalf("ReLU grad = %v, want %v", gb.Data, wantG)
		}
	}
}

func TestSigmoidRange(t *testing.T) {
	lo, mid, hi := SigmoidValue(-100), SigmoidValue(0), SigmoidValue(100)
	if lo > 1e-6 || math.Abs(float64(mid-0.5)) > 1e-6 || hi < 1-1e-6 {
		t.Fatalf("sigmoid = %v %v %v", lo, mid, hi)
	}
}

func TestLogitBCEPerfectPrediction(t *testing.T) {
	logits := FromData([]float32{20, -20}, 2)
	labels := FromData([]float32{1, 0}, 2)
	grad := New(2)
	loss := LogitBCEInto(grad, logits, labels, nil)
	if loss > 1e-6 {
		t.Fatalf("loss = %v, want ~0", loss)
	}
	for _, g := range grad.Data {
		if math.Abs(float64(g)) > 1e-6 {
			t.Fatalf("grad = %v, want ~0", grad.Data)
		}
	}
}

func TestLogitBCEGradientDirection(t *testing.T) {
	logits := FromData([]float32{0, 0}, 2)
	labels := FromData([]float32{1, 0}, 2)
	grad := New(2)
	loss := LogitBCEInto(grad, logits, labels, nil)
	if math.Abs(loss-math.Log(2)) > 1e-6 {
		t.Fatalf("loss at 0 logits = %v, want ln2", loss)
	}
	if grad.Data[0] >= 0 || grad.Data[1] <= 0 {
		t.Fatalf("gradient signs wrong: %v", grad.Data)
	}
}

func TestLogitBCEMaskExcludes(t *testing.T) {
	logits := FromData([]float32{5, -5}, 2)
	labels := FromData([]float32{0, 0}, 2) // first is badly wrong
	mask := FromData([]float32{0, 1}, 2)   // but excluded
	grad := New(2)
	loss := LogitBCEInto(grad, logits, labels, mask)
	if loss > 0.01 {
		t.Fatalf("masked loss = %v, want tiny", loss)
	}
	if grad.Data[0] != 0 {
		t.Fatal("masked element got gradient")
	}
}

// logitBCEOracle is LogitBCEInto as it was before it shared the loss's
// exponential with the sigmoid: the ground truth for the fused one.
func logitBCEOracle(grad, logits, labels, mask *Tensor) (loss float64) {
	grad.Zero()
	count := 0.0
	for i, z := range logits.Data {
		wgt := float32(1)
		if mask != nil {
			wgt = mask.Data[i]
			if wgt == 0 {
				continue
			}
		}
		y := float64(labels.Data[i])
		zf := float64(z)
		loss += float64(wgt) * (math.Log(1+math.Exp(-math.Abs(zf))) + math.Max(zf, 0) - zf*y)
		grad.Data[i] = wgt * (SigmoidValue(z) - float32(y))
		count += float64(wgt)
	}
	if count > 0 {
		loss /= count
		grad.Scale(float32(1 / count))
	}
	return loss
}

// TestLogitBCEMatchesOracle: the fused loss gives the oracle's loss and
// gradient bit for bit, one logit at a time over the edge cases (signed
// zeros, infinities, NaN, subnormals, the ±88 where exp(-|z|) nears
// float32's smallest normal) against both labels, and over random logits
// with and without a mask.
func TestLogitBCEMatchesOracle(t *testing.T) {
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	sub := math.Float32frombits(1) // the smallest subnormal
	edges := []float32{0, float32(math.Copysign(0, -1)), inf, -inf, nan,
		sub, -sub, math.Float32frombits(0x007fffff), -math.Float32frombits(0x007fffff),
		88, -88, 88.7, -88.7, 1e-30, -1e-30, 0.5, -0.5, 20, -20, 1e30, -1e30}
	same := func(name string, got, want *Tensor, gotLoss, wantLoss float64) {
		t.Helper()
		if math.Float64bits(gotLoss) != math.Float64bits(wantLoss) {
			t.Fatalf("%s: loss %v (%#x), oracle %v (%#x)", name, gotLoss, math.Float64bits(gotLoss), wantLoss, math.Float64bits(wantLoss))
		}
		for i := range got.Data {
			if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
				t.Fatalf("%s: grad[%d] = %v, oracle %v", name, i, got.Data[i], want.Data[i])
			}
		}
	}
	for _, z := range edges {
		for _, y := range []float32{0, 1} {
			logits, labels := FromData([]float32{z}, 1), FromData([]float32{y}, 1)
			got, want := New(1), New(1)
			same(fmt.Sprintf("z=%v y=%v", z, y), got, want,
				LogitBCEInto(got, logits, labels, nil), logitBCEOracle(want, logits, labels, nil))
		}
	}
	rng := sim.NewRNG(58)
	const n = 4096
	logits, labels, mask := New(n), New(n), New(n)
	for i := range logits.Data {
		logits.Data[i] = float32(rng.NormFloat64() * 8)
		labels.Data[i] = float32(rng.Intn(2))
		mask.Data[i] = float32(rng.Intn(3)) / 2 // 0, 0.5 or 1
	}
	for _, m := range []*Tensor{nil, mask} {
		got, want := New(n), New(n)
		same(fmt.Sprintf("random, mask %v", m != nil), got, want,
			LogitBCEInto(got, logits, labels, m), logitBCEOracle(want, logits, labels, m))
	}
}

func TestSGDConvergesOnQuadratic(t *testing.T) {
	// Minimize f(p) = 0.5*sum(p^2); gradient = p. SGD must drive p to 0.
	p := FromData([]float32{5, -3, 2}, 3)
	opt := NewSGD(0.1, 0.9)
	for i := 0; i < 200; i++ {
		opt.Step(p.Data, p.Clone().Data)
	}
	for _, v := range p.Data {
		if math.Abs(float64(v)) > 1e-3 {
			t.Fatalf("SGD did not converge: %v", p.Data)
		}
	}
}

func TestPropertyConvOutputShape(t *testing.T) {
	f := func(dRaw, hRaw, wRaw, coutRaw uint8) bool {
		d := int(dRaw%5) + 1
		h := int(hRaw%5) + 1
		w := int(wRaw%5) + 1
		cout := int(coutRaw%3) + 1
		in := New(2, d, h, w)
		k := New(cout, 2, 3, 3, 3)
		out := Conv3D(in, k, nil)
		return out.Shape[0] == cout && out.Shape[1] == d && out.Shape[2] == h && out.Shape[3] == w
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyReLUIdempotent(t *testing.T) {
	f := func(raw []int8) bool {
		if len(raw) == 0 {
			return true
		}
		data := make([]float32, len(raw))
		for i, v := range raw {
			data[i] = float32(v)
		}
		in := FromData(data, len(data))
		once, twice := New(len(data)), New(len(data))
		ReLUInto(once, in)
		ReLUInto(twice, once)
		for i := range once.Data {
			if once.Data[i] != twice.Data[i] || once.Data[i] < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	out := &Tensor{Shape: append([]int(nil), t.Shape...), Data: make([]float32, len(t.Data))}
	copy(out.Data, t.Data)
	return out
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// AddInPlace accumulates o into t elementwise.
func (t *Tensor) AddInPlace(o *Tensor) {
	if !SameShape(t, o) {
		panic("tensor: AddInPlace shape mismatch")
	}
	for i := range t.Data {
		t.Data[i] += o.Data[i]
	}
}
