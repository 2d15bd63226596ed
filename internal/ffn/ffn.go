// Package ffn implements a Flood-Filling Network (Januszewski et al., Nature
// Methods 2018), the model the CHASE-CI case study uses for rapid object
// segmentation of NASA IVT volumes. The network is a stack of residual 3-D
// convolution modules that reads a field-of-view (FOV) of the image together
// with its own current probability-of-object map (POM) and emits a logit
// update; inference repeatedly applies the network while moving the FOV
// toward places where the object probability crosses a movement threshold,
// flooding outward from a seed until the object is covered. Training and
// inference are real (pure Go, laptop-scale volumes); cluster-scale timing is
// projected via internal/gpusim.
//
// A network's parameters are one flat []float32 in a canonical order
// (paramViews), with the conv weights and biases as views into it; a
// gradient, the optimizer's momentum and the serialized model are the same
// vector shape, so saving, checkpointing, the all-reduce and the optimizer
// step are each one pass over a slice. There is one trainer, DistTrainer: a
// round runs exampleGrad (forwardInto then backwardInto over a reusable
// trainScratch, writing one gradient row) per sample, averages the rows and
// applies step.
//
// A network not owned by a trainer is immutable. Only a trainer's step
// writes weights, and only on the network it was given; everything else —
// Segment and SegmentCtx, the forward passes, serialization — reads. The
// one other write follows a step: the first flood after it re-quantizes an
// int8 network, which the trainer's owner still holds alone. So one network
// may serve any number of concurrent floods, which is how the service
// shares one inference network per set of weights across jobs.
package ffn

import (
	"fmt"
	"math"

	"chaseci/internal/sim"
	"chaseci/internal/tensor"
)

// Config declares the network geometry and flood-fill policy.
type Config struct {
	// FOV is the field-of-view (depth, height, width); all odd. The paper's
	// FFN uses 33x33x17-class FOVs; experiment-scale defaults are smaller.
	FOV [3]int
	// Features is the channel count of hidden conv layers.
	Features int
	// Modules is the number of residual conv modules.
	Modules int
	// MoveStep is the FOV displacement (dz, dy, dx) when flooding.
	MoveStep [3]int
	// MoveProb: flood to a neighbor when the POM at the corresponding FOV
	// face center exceeds this probability (paper uses 0.9).
	MoveProb float32
	// SegmentProb: final mask threshold (paper uses 0.6).
	SegmentProb float32
	// PadProb / SeedProb initialize the POM: everything starts at PadProb;
	// the seed voxel is clamped to SeedProb (paper: 0.05 / 0.95).
	PadProb  float32
	SeedProb float32
	// Precision selects the Segment inference arithmetic: "" or "f32" is
	// the reference float32 path; "int8" runs quantized inference (see
	// quant.go). Training always stays f32.
	Precision Precision
}

// DefaultConfig returns an experiment-scale configuration.
func DefaultConfig() Config {
	return Config{
		FOV:         [3]int{5, 9, 9},
		Features:    8,
		Modules:     2,
		MoveStep:    [3]int{1, 3, 3},
		MoveProb:    0.80,
		SegmentProb: 0.60,
		PadProb:     0.05,
		SeedProb:    0.95,
	}
}

func (c *Config) validate() error {
	for _, d := range c.FOV {
		if d <= 0 || d%2 == 0 {
			return fmt.Errorf("ffn: FOV dims must be positive odd, got %v", c.FOV)
		}
	}
	if c.Features <= 0 || c.Modules <= 0 {
		return fmt.Errorf("ffn: Features/Modules must be positive")
	}
	if c.MoveProb <= 0 || c.MoveProb >= 1 || c.SegmentProb <= 0 || c.SegmentProb >= 1 {
		return fmt.Errorf("ffn: probabilities must be in (0,1)")
	}
	// A move reads the logit FOV at center +/- step: a step over half the
	// FOV indexes outside it.
	for i, s := range c.MoveStep {
		if s < 0 || s > c.FOV[i]/2 {
			return fmt.Errorf("ffn: MoveStep %v must be within [0, FOV/2] of FOV %v", c.MoveStep, c.FOV)
		}
	}
	switch c.Precision {
	case "", PrecisionF32, PrecisionInt8:
	default:
		return fmt.Errorf("ffn: Precision must be %q or %q, got %q", PrecisionF32, PrecisionInt8, c.Precision)
	}
	return nil
}

// logit converts a probability to a logit.
func logit(p float32) float32 {
	return float32(math.Log(float64(p) / (1 - float64(p))))
}

// module is one residual block: conv-ReLU-conv, output added to input.
type module struct {
	w1, w2 *tensor.Tensor
	b1, b2 []float32
}

// paramViews are the conv weights and biases of one architecture as views
// into a flat vector. The canonical order — wIn, bIn, then w1, b1, w2, b2
// per module, then wOut, bOut — is the order of the serialized model, of the
// optimizer's momentum buffer and of every gradient row; bind is the only
// place it is written down.
type paramViews struct {
	wIn  *tensor.Tensor // (F, 2, 3, 3, 3): image + POM channels in
	bIn  []float32
	mods []*module
	wOut *tensor.Tensor // (1, F, 1, 1, 1)
	bOut []float32
}

// paramCount returns the length of the flat parameter vector.
func (c *Config) paramCount() int {
	f := c.Features
	return 2*27*f + f + c.Modules*2*(27*f*f+f) + f + 1
}

// newParamViews builds the views for cfg, bound to nothing yet.
func newParamViews(cfg Config) paramViews {
	f := cfg.Features
	view := func(shape ...int) *tensor.Tensor { return &tensor.Tensor{Shape: shape} }
	v := paramViews{wIn: view(f, 2, 3, 3, 3), wOut: view(1, f, 1, 1, 1)}
	for m := 0; m < cfg.Modules; m++ {
		v.mods = append(v.mods, &module{w1: view(f, f, 3, 3, 3), w2: view(f, f, 3, 3, 3)})
	}
	return v
}

// bind points every view at its span of flat (len paramCount), without
// allocating.
func (v *paramViews) bind(flat []float32) {
	f := v.wIn.Shape[0]
	next := func(n int) []float32 {
		span := flat[:n:n]
		flat = flat[n:]
		return span
	}
	v.wIn.Data, v.bIn = next(v.wIn.Size()), next(f)
	for _, m := range v.mods {
		m.w1.Data, m.b1 = next(m.w1.Size()), next(f)
		m.w2.Data, m.b2 = next(m.w2.Size()), next(f)
	}
	v.wOut.Data, v.bOut = next(v.wOut.Size()), next(1)
	if len(flat) != 0 {
		panic(fmt.Sprintf("ffn: %d scalars left over binding a parameter vector", len(flat)))
	}
}

// Network is the FFN model. Its parameters are one flat vector in canonical
// order; the embedded views are what the conv kernels read.
type Network struct {
	cfg    Config
	params []float32
	paramViews

	qn *quantNet // an int8 network's quantized weights (nil after a training step)
}

// newNetwork allocates a zero-weight model for a validated cfg.
func newNetwork(cfg Config) *Network {
	n := &Network{cfg: cfg, params: make([]float32, cfg.paramCount()), paramViews: newParamViews(cfg)}
	n.bind(n.params)
	return n
}

// NewNetwork initializes a model with He-initialized weights from seed. An
// int8 network comes with its quantized weights, so it may be shared as
// made.
func NewNetwork(cfg Config, seed uint64) (*Network, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := sim.NewRNG(seed)
	f := cfg.Features
	n := newNetwork(cfg)
	n.wIn.Randomize(rng, 2*27)
	n.wOut.Randomize(rng, f)
	for _, m := range n.mods {
		m.w1.Randomize(rng, f*27)
		m.w2.Randomize(rng, f*27)
	}
	if n.int8Inference() {
		n.qn = n.quantize()
	}
	return n, nil
}

// Config returns the network configuration.
func (n *Network) Config() Config { return n.cfg }

// ParamCount returns the total number of trainable scalars.
func (n *Network) ParamCount() int { return len(n.params) }

// WeightBytes returns the memory the network's weights occupy: the float32
// parameter vector, plus the quantized form an int8 network carries.
func (n *Network) WeightBytes() int {
	b := 4 * len(n.params)
	if n.qn != nil {
		b += n.qn.bytes()
	}
	return b
}

// GradBytes returns the wire size of one gradient exchange (float32 per
// parameter), the quantity each all-reduce moves per worker pair.
func (n *Network) GradBytes() float64 { return float64(len(n.params)) * 4 }

// fwdCache stores activations needed for backprop. Caches are reusable:
// every tensor except input is carved out of a trainScratch's slab and
// overwritten by each forwardInto call, so steady-state training allocates
// nothing on the forward path.
type fwdCache struct {
	input   *tensor.Tensor // (2, D, H, W); set by forwardInto, caller-owned
	preIn   *tensor.Tensor // pre-ReLU of input conv
	actIn   *tensor.Tensor
	modPre1 []*tensor.Tensor
	modAct1 []*tensor.Tensor
	modPre2 []*tensor.Tensor // pre-residual-add sums fed to next ReLU
	modOut  []*tensor.Tensor // post residual + ReLU
}

// forwardInto runs the network on a 2-channel FOV (image, POM logits),
// writing activations into cache and the logit update into delta.
func (n *Network) forwardInto(cache *fwdCache, in, delta *tensor.Tensor) {
	cache.input = in
	tensor.Conv3DInto(cache.preIn, in, n.wIn, n.bIn)
	tensor.ReLUInto(cache.actIn, cache.preIn)
	cur := cache.actIn
	for i, m := range n.mods {
		tensor.Conv3DInto(cache.modPre1[i], cur, m.w1, m.b1)
		tensor.ReLUInto(cache.modAct1[i], cache.modPre1[i])
		tensor.Conv3DInto(cache.modPre2[i], cache.modAct1[i], m.w2, m.b2)
		cache.modPre2[i].AddInPlace(cur) // residual connection
		tensor.ReLUInto(cache.modOut[i], cache.modPre2[i])
		cur = cache.modOut[i]
	}
	tensor.Conv3DInto(delta, cur, n.wOut, n.bOut)
}

// packInputInto stacks image and POM into the caller's (2,D,H,W) tensor.
func packInputInto(in, image, pom *tensor.Tensor) {
	copy(in.Data[:image.Size()], image.Data)
	copy(in.Data[image.Size():], pom.Data)
}

// trainScratch holds every buffer one forward+backward pass needs besides
// the weights, so steady-state training allocates nothing. One scratch
// serves one goroutine, and the network is only read through it.
//
// Every tensor is a view into one slab borrowed from the tensor free list —
// a training job trains a Network of its own, so memory hanging off the
// Network would always be cold, while the slab of the previous job of this
// geometry is not. The slab comes back dirty and nothing clears it: each
// tensor is written in full (forwardInto, LogitBCEInto, the backward
// kernels' own zeroing) before the pass reads it. release hands the slab
// back; a scratch that is never released is ordinary garbage.
type trainScratch struct {
	slab    []float32
	tensors []tensor.Tensor // backing array of every view below

	cache      fwdCache
	pom        *tensor.Tensor // constant seed POM
	img, lab   *tensor.Tensor // (1,D,H,W) FOV extracts, for callers sampling a volume
	in         *tensor.Tensor // packed (2,D,H,W) input
	delta      *tensor.Tensor // (1,D,H,W) output logits
	gradLogits *tensor.Tensor
	g          paramViews // gradient views, bound to the row being written
	// Backward temporaries, all (F,D,H,W). Nothing reads the gradient with
	// respect to the packed input, so no buffer holds it.
	gradCur, gradPrev, gradSum, gradAct1 *tensor.Tensor
}

// newTrainScratch is the one scratch constructor: every trainer's forward
// and backward buffers come from here.
func (n *Network) newTrainScratch() *trainScratch {
	f, mods := n.cfg.Features, len(n.mods)
	d, h, w := n.cfg.FOV[0], n.cfg.FOV[1], n.cfg.FOV[2]
	v := d * h * w
	// F-channel tensors: preIn, actIn, four per module, four backward
	// temporaries; 1-channel: pom, img, lab, delta, gradLogits; 2-channel:
	// in.
	wide, one := 6+4*mods, 5
	ts := &trainScratch{
		slab:    tensor.GetFloats((wide*f + one + 2) * v),
		tensors: make([]tensor.Tensor, wide+one+1),
		g:       newParamViews(n.cfg),
	}
	free, next := ts.slab, 0
	carve := func(shape []int) *tensor.Tensor {
		size := shape[0] * v
		t := &ts.tensors[next]
		t.Shape, t.Data = shape, free[:size:size]
		free, next = free[size:], next+1
		return t
	}
	// Tensors of one channel count share one shape slice; nothing writes it.
	shapeF, shape1, shape2 := []int{f, d, h, w}, []int{1, d, h, w}, []int{2, d, h, w}

	c := &ts.cache
	c.preIn, c.actIn = carve(shapeF), carve(shapeF)
	for range n.mods {
		c.modPre1 = append(c.modPre1, carve(shapeF))
		c.modAct1 = append(c.modAct1, carve(shapeF))
		c.modPre2 = append(c.modPre2, carve(shapeF))
		c.modOut = append(c.modOut, carve(shapeF))
	}
	ts.gradCur, ts.gradPrev = carve(shapeF), carve(shapeF)
	ts.gradSum, ts.gradAct1 = carve(shapeF), carve(shapeF)
	ts.pom, ts.img, ts.lab = carve(shape1), carve(shape1), carve(shape1)
	ts.delta, ts.gradLogits = carve(shape1), carve(shape1)
	ts.in = carve(shape2)
	n.fillSeedPOM(ts.pom.Data)
	return ts
}

// release returns the slab to the free list and detaches every view, so a
// use after release fails loudly. Idempotent.
func (ts *trainScratch) release() {
	tensor.PutFloats(ts.slab)
	ts.slab = nil
	for i := range ts.tensors {
		ts.tensors[i].Data = nil
	}
}

// extract copies the example centered at c out of a labelled volume into
// the scratch's FOV tensors.
func (ts *trainScratch) extract(image, labels *Volume, fov [3]int, c [3]int) {
	extractFOVInto(ts.img, image, fov, c[0], c[1], c[2])
	extractFOVInto(ts.lab, labels, fov, c[0], c[1], c[2])
}

// backwardInto computes the parameter gradients of the pass cached in ts
// into row (len ParamCount, canonical order, overwritten), using only the
// scratch temporaries.
func (n *Network) backwardInto(ts *trainScratch, gradDelta *tensor.Tensor, row []float32) {
	ts.g.bind(row)
	cache, g := &ts.cache, &ts.g
	last := cache.actIn
	if len(cache.modOut) > 0 {
		last = cache.modOut[len(cache.modOut)-1]
	}
	tensor.Conv3DBackwardInto(ts.gradCur, g.wOut, g.bOut, last, n.wOut, gradDelta)

	for i := len(n.mods) - 1; i >= 0; i-- {
		m := n.mods[i]
		prev := cache.actIn
		if i > 0 {
			prev = cache.modOut[i-1]
		}
		// Through the output ReLU of the module.
		tensor.ReLUBackwardInto(ts.gradSum, cache.modPre2[i], ts.gradCur)
		// Residual: gradient flows both into conv2 branch and skip path.
		tensor.Conv3DBackwardInto(ts.gradAct1, g.mods[i].w2, g.mods[i].b2, cache.modAct1[i], m.w2, ts.gradSum)
		tensor.ReLUBackwardInto(ts.gradAct1, cache.modPre1[i], ts.gradAct1)
		tensor.Conv3DBackwardInto(ts.gradPrev, g.mods[i].w1, g.mods[i].b1, prev, m.w1, ts.gradAct1)
		ts.gradPrev.AddInPlace(ts.gradSum) // skip connection
		ts.gradCur, ts.gradPrev = ts.gradPrev, ts.gradCur
	}
	tensor.ReLUBackwardInto(ts.gradCur, cache.preIn, ts.gradCur)
	tensor.Conv3DBackwardInto(nil, g.wIn, g.bIn, cache.input, n.wIn, ts.gradCur)
}

// exampleGrad runs forward+backward on one FOV example — image and label
// are (1,D,H,W) FOV tensors, the POM starts from the seed state — writing
// the parameter gradient into row and returning the BCE loss. It only reads
// the weights, so workers with their own scratch may call it concurrently.
func (n *Network) exampleGrad(ts *trainScratch, image, label *tensor.Tensor, row []float32) float64 {
	packInputInto(ts.in, image, ts.pom)
	n.forwardInto(&ts.cache, ts.in, ts.delta)
	loss := tensor.LogitBCEInto(ts.gradLogits, ts.delta, label, nil)
	n.backwardInto(ts, ts.gradLogits, row)
	return loss
}

// step applies one optimizer update to the whole parameter vector. It is the
// one place a network's weights change, and only a trainer, on the network
// it owns, calls it.
func (n *Network) step(opt *tensor.SGD, grad []float32) {
	opt.Step(n.params, grad)
	n.qn = nil // weights changed; the quantized form is stale
}

// SeedPOM builds the initial POM for a FOV: PadProb everywhere, SeedProb at
// the center — the input state both training and each flood-fill
// application condition on.
func (n *Network) SeedPOM() *tensor.Tensor {
	d, h, w := n.cfg.FOV[0], n.cfg.FOV[1], n.cfg.FOV[2]
	pom := tensor.New(1, d, h, w)
	n.fillSeedPOM(pom.Data)
	return pom
}

// fillSeedPOM overwrites one FOV-sized slice with the seed POM.
func (n *Network) fillSeedPOM(pom []float32) {
	d, h, w := n.cfg.FOV[0], n.cfg.FOV[1], n.cfg.FOV[2]
	fill(pom, logit(n.cfg.PadProb))
	pom[(d/2*h+h/2)*w+w/2] = logit(n.cfg.SeedProb)
}
