// Package tensor provides the small dense-tensor kernel the Flood-Filling
// Network is built on: row-major float32 tensors, 3-D convolution with
// forward and backward passes, pointwise nonlinearities, and SGD with
// momentum. It is a from-scratch stand-in for the TensorFlow ops the paper's
// FFN uses, sized for laptop-scale volumes; wall-clock at cluster scale is
// projected by internal/gpusim.
package tensor

import (
	"fmt"
	"math"

	"chaseci/internal/sim"
)

// Tensor is a dense row-major float32 array with an explicit shape.
type Tensor struct {
	Shape []int
	Data  []float32
}

// New allocates a zero tensor with the given shape.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension in shape %v", shape))
		}
		n *= d
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float32, n)}
}

// FromData wraps data with a shape; it panics on length mismatch.
func FromData(data []float32, shape ...int) *Tensor {
	t := &Tensor{Shape: append([]int(nil), shape...), Data: data}
	if t.Size() != len(data) {
		panic(fmt.Sprintf("tensor: shape %v needs %d elements, got %d", shape, t.Size(), len(data)))
	}
	return t
}

// Size returns the element count.
func (t *Tensor) Size() int {
	n := 1
	for _, d := range t.Shape {
		n *= d
	}
	return n
}

// Zero clears all elements in place.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Randomize fills with He-style initialization: normal(0, sqrt(2/fanIn)).
func (t *Tensor) Randomize(rng *sim.RNG, fanIn int) {
	std := float32(math.Sqrt(2.0 / float64(fanIn)))
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64()) * std
	}
}

// SameShape reports whether two tensors have identical shapes.
func SameShape(a, b *Tensor) bool {
	if len(a.Shape) != len(b.Shape) {
		return false
	}
	for i := range a.Shape {
		if a.Shape[i] != b.Shape[i] {
			return false
		}
	}
	return true
}

// Scale multiplies every element by s in place.
func (t *Tensor) Scale(s float32) {
	for i := range t.Data {
		t.Data[i] *= s
	}
}

// Sums returns the float64 sum and sum of squares of data, accumulated in
// index order: the one loop behind a volume's normalisation moments, whether
// a flood computes them (ffn.MomentsOf) or a stored volume memoises them
// (dataset.Blob.Sums).
func Sums(data []float32) (sum, sumsq float64) {
	for _, x := range data {
		sum += float64(x)
		sumsq += float64(x) * float64(x)
	}
	return sum, sumsq
}

// ReLUInto writes max(0, x) of in into dst (dst may alias in).
func ReLUInto(dst, in *Tensor) {
	for i, v := range in.Data {
		if v < 0 {
			v = 0
		}
		dst.Data[i] = v
	}
}

// ReLUBackwardInto writes gradOut masked by the forward input's sign into
// dst (dst may alias gradOut).
func ReLUBackwardInto(dst, in, gradOut *Tensor) {
	for i, v := range gradOut.Data {
		if in.Data[i] <= 0 {
			v = 0
		}
		dst.Data[i] = v
	}
}

// SigmoidValue is the scalar logistic function.
func SigmoidValue(x float32) float32 {
	return float32(1 / (1 + math.Exp(-float64(x))))
}

// LogitBCEInto computes mean binary cross-entropy between logits and {0,1}
// labels, returning the loss and overwriting grad with the gradient w.r.t.
// the logits (the numerically stable sigmoid+BCE fusion). mask, if non-nil,
// weights each element (0 excludes).
func LogitBCEInto(grad, logits, labels, mask *Tensor) (loss float64) {
	if !SameShape(logits, labels) {
		panic("tensor: LogitBCE shape mismatch")
	}
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
		// log(1+exp(-|z|)) + max(z,0) - z*y
		e := math.Exp(-math.Abs(zf))
		loss += float64(wgt) * (math.Log(1+e) + math.Max(zf, 0) - zf*y)
		// For z >= 0 (-0 included) e is SigmoidValue's exp(-z), bit for bit.
		var sig float32
		if zf >= 0 {
			sig = float32(1 / (1 + e))
		} else {
			sig = SigmoidValue(z)
		}
		grad.Data[i] = wgt * (sig - float32(y))
		count += float64(wgt)
	}
	if count > 0 {
		loss /= count
		grad.Scale(float32(1 / count))
	}
	return loss
}

// SGD is stochastic gradient descent with classical momentum over one flat
// parameter vector: the momentum buffer is a single slice the same length,
// in the same order, borrowed from the float free list.
type SGD struct {
	LR       float32
	Momentum float32

	velocity []float32
}

// NewSGD creates an optimizer.
func NewSGD(lr, momentum float32) *SGD {
	return &SGD{LR: lr, Momentum: momentum}
}

// Step applies one update to params given their gradients.
func (o *SGD) Step(params, grads []float32) {
	v := o.Velocity(len(params))
	for i := range params {
		v[i] = o.Momentum*v[i] - o.LR*grads[i]
		params[i] += v[i]
	}
}

// Velocity returns the momentum buffer for an n-parameter model — what a
// checkpoint saves and restores — borrowing it from the free list and
// clearing it on first use.
func (o *SGD) Velocity(n int) []float32 {
	if o.velocity == nil {
		o.velocity = GetFloats(n)
		clear(o.velocity)
	}
	if len(o.velocity) != n {
		panic(fmt.Sprintf("tensor: SGD holds momentum for %d parameters, asked for %d", len(o.velocity), n))
	}
	return o.velocity
}

// Release returns the momentum buffer to the free list; a later Step starts
// again from zero momentum. It is optional: an optimizer never released is
// ordinary garbage.
func (o *SGD) Release() {
	PutFloats(o.velocity)
	o.velocity = nil
}
