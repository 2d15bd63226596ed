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
	// FloodBatch is how many ready FOV positions a flood worker pushes
	// through the batched forward path per dispatch (0 = default 8; 1 =
	// per-FOV applications). Masks and statistics are bit-exact at every
	// batch size.
	FloodBatch int
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
	if c.FloodBatch < 0 {
		return fmt.Errorf("ffn: FloodBatch must be non-negative, got %d", c.FloodBatch)
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

// Network is the FFN model.
type Network struct {
	cfg Config

	wIn  *tensor.Tensor // (F, 2, 3, 3, 3): image + POM channels in
	bIn  []float32
	mods []*module
	wOut *tensor.Tensor // (1, F, 1, 1, 1)
	bOut []float32

	ts *trainScratch // lazily built per-network training buffers
	qn *quantNet     // lazily built quantized weights (nil after training)
}

// NewNetwork initializes a model with He-initialized weights from seed.
func NewNetwork(cfg Config, seed uint64) (*Network, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := sim.NewRNG(seed)
	f := cfg.Features
	n := &Network{
		cfg:  cfg,
		wIn:  tensor.New(f, 2, 3, 3, 3),
		bIn:  make([]float32, f),
		wOut: tensor.New(1, f, 1, 1, 1),
		bOut: make([]float32, 1),
	}
	n.wIn.Randomize(rng, 2*27)
	n.wOut.Randomize(rng, f)
	for m := 0; m < cfg.Modules; m++ {
		mod := &module{
			w1: tensor.New(f, f, 3, 3, 3), b1: make([]float32, f),
			w2: tensor.New(f, f, 3, 3, 3), b2: make([]float32, f),
		}
		mod.w1.Randomize(rng, f*27)
		mod.w2.Randomize(rng, f*27)
		n.mods = append(n.mods, mod)
	}
	return n, nil
}

// Config returns the network configuration.
func (n *Network) Config() Config { return n.cfg }

// ParamCount returns the total number of trainable scalars.
func (n *Network) ParamCount() int {
	total := n.wIn.Size() + len(n.bIn) + n.wOut.Size() + len(n.bOut)
	for _, m := range n.mods {
		total += m.w1.Size() + len(m.b1) + m.w2.Size() + len(m.b2)
	}
	return total
}

// fwdCache stores activations needed for backprop. Caches are reusable:
// every tensor except input is preallocated by newCache and overwritten by
// each forwardInto call, so steady-state training and inference allocate
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

// newCache preallocates every activation tensor for this architecture.
func (n *Network) newCache() *fwdCache { return n.newCacheFrom(tensor.New) }

// newCacheFrom builds the cache with alloc, which need not zero: forwardInto
// overwrites every element of every tensor.
func (n *Network) newCacheFrom(alloc func(shape ...int) *tensor.Tensor) *fwdCache {
	f := n.cfg.Features
	d, h, w := n.cfg.FOV[0], n.cfg.FOV[1], n.cfg.FOV[2]
	c := &fwdCache{
		preIn: alloc(f, d, h, w),
		actIn: alloc(f, d, h, w),
	}
	for range n.mods {
		c.modPre1 = append(c.modPre1, alloc(f, d, h, w))
		c.modAct1 = append(c.modAct1, alloc(f, d, h, w))
		c.modPre2 = append(c.modPre2, alloc(f, d, h, w))
		c.modOut = append(c.modOut, alloc(f, d, h, w))
	}
	return c
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

// forward is the allocating wrapper around forwardInto for callers that
// keep the cache (ComputeGrads) or need a fresh output tensor (Apply).
func (n *Network) forward(in *tensor.Tensor) (*tensor.Tensor, *fwdCache) {
	cache := n.newCache()
	d, h, w := n.cfg.FOV[0], n.cfg.FOV[1], n.cfg.FOV[2]
	delta := tensor.New(1, d, h, w)
	n.forwardInto(cache, in, delta)
	return delta, cache
}

// Apply runs one inference step: given image and POM logits over a FOV, it
// returns the network's predicted object logits for the FOV. The POM channel
// conditions the prediction (telling the network where the seed/current
// object is); the output is absolute logits rather than an additive update,
// which keeps repeated applications over overlapping FOVs from saturating.
func (n *Network) Apply(image, pom *tensor.Tensor) *tensor.Tensor {
	in := packInput(image, pom)
	out, _ := n.forward(in)
	return out
}

// packInput stacks (1,D,H,W) image and POM into a (2,D,H,W) tensor.
func packInput(image, pom *tensor.Tensor) *tensor.Tensor {
	d, h, w := image.Shape[1], image.Shape[2], image.Shape[3]
	in := tensor.New(2, d, h, w)
	packInputInto(in, image, pom)
	return in
}

// packInputInto stacks image and POM into the caller's (2,D,H,W) tensor.
func packInputInto(in, image, pom *tensor.Tensor) {
	copy(in.Data[:image.Size()], image.Data)
	copy(in.Data[image.Size():], pom.Data)
}

// grads mirrors the parameter structure.
type grads struct {
	wIn  *tensor.Tensor
	bIn  []float32
	mods []*module
	wOut *tensor.Tensor
	bOut []float32
}

// backward computes parameter gradients given the cache and dLoss/dDelta.
func (n *Network) backward(cache *fwdCache, gradDelta *tensor.Tensor) *grads {
	g := &grads{}
	last := cache.actIn
	if len(cache.modOut) > 0 {
		last = cache.modOut[len(cache.modOut)-1]
	}
	gradCur, gWOut, gBOut := tensor.Conv3DBackward(last, n.wOut, gradDelta)
	g.wOut, g.bOut = gWOut, gBOut

	for i := len(n.mods) - 1; i >= 0; i-- {
		m := n.mods[i]
		prev := cache.actIn
		if i > 0 {
			prev = cache.modOut[i-1]
		}
		// Through the output ReLU of the module.
		gradSum := tensor.ReLUBackward(cache.modPre2[i], gradCur)
		// Residual: gradient flows both into conv2 branch and skip path.
		gradAct1, gW2, gB2 := tensor.Conv3DBackward(cache.modAct1[i], m.w2, gradSum)
		gradPre1 := tensor.ReLUBackward(cache.modPre1[i], gradAct1)
		gradPrev, gW1, gB1 := tensor.Conv3DBackward(prev, m.w1, gradPre1)
		gradPrev.AddInPlace(gradSum) // skip connection
		g.mods = append([]*module{{w1: gW1, b1: gB1, w2: gW2, b2: gB2}}, g.mods...)
		gradCur = gradPrev
	}
	gradPreIn := tensor.ReLUBackward(cache.preIn, gradCur)
	_, gWIn, gBIn := tensor.Conv3DBackward(cache.input, n.wIn, gradPreIn)
	g.wIn, g.bIn = gWIn, gBIn
	return g
}

// applySGD steps every parameter with the optimizer.
func (n *Network) applySGD(opt *tensor.SGD, g *grads) {
	opt.Step(n.wIn, g.wIn)
	opt.StepBias(&n.bIn, g.bIn)
	for i, m := range n.mods {
		opt.Step(m.w1, g.mods[i].w1)
		opt.StepBias(&m.b1, g.mods[i].b1)
		opt.Step(m.w2, g.mods[i].w2)
		opt.StepBias(&m.b2, g.mods[i].b2)
	}
	opt.Step(n.wOut, g.wOut)
	opt.StepBias(&n.bOut, g.bOut)
}

// trainScratch holds every buffer one SGD step needs, so steady-state
// training allocates nothing. It lives on the Network (training already
// mutates the weights, so a Network must not be trained concurrently).
type trainScratch struct {
	cache      *fwdCache
	pom        *tensor.Tensor // constant seed POM
	in         *tensor.Tensor // packed (2,D,H,W) input
	delta      *tensor.Tensor // (1,D,H,W) output logits
	gradLogits *tensor.Tensor
	g          *grads // parameter gradients, reused each step
	// Backward temporaries, all (F,D,H,W) except gradInput (2,D,H,W).
	gradCur, gradPrev, gradSum, gradAct1 *tensor.Tensor
	gradInput                            *tensor.Tensor
}

func (n *Network) trainScratchBufs() *trainScratch {
	if n.ts != nil {
		return n.ts
	}
	f := n.cfg.Features
	d, h, w := n.cfg.FOV[0], n.cfg.FOV[1], n.cfg.FOV[2]
	ts := &trainScratch{
		cache:      n.newCache(),
		pom:        n.SeedPOM(),
		in:         tensor.New(2, d, h, w),
		delta:      tensor.New(1, d, h, w),
		gradLogits: tensor.New(1, d, h, w),
		gradCur:    tensor.New(f, d, h, w),
		gradPrev:   tensor.New(f, d, h, w),
		gradSum:    tensor.New(f, d, h, w),
		gradAct1:   tensor.New(f, d, h, w),
		gradInput:  tensor.New(2, d, h, w),
	}
	g := &grads{
		wIn:  tensor.New(f, 2, 3, 3, 3),
		bIn:  make([]float32, f),
		wOut: tensor.New(1, f, 1, 1, 1),
		bOut: make([]float32, 1),
	}
	for range n.mods {
		g.mods = append(g.mods, &module{
			w1: tensor.New(f, f, 3, 3, 3), b1: make([]float32, f),
			w2: tensor.New(f, f, 3, 3, 3), b2: make([]float32, f),
		})
	}
	ts.g = g
	n.ts = ts
	return ts
}

// backwardInto computes parameter gradients into ts.g using only the
// scratch temporaries (no allocation).
func (n *Network) backwardInto(ts *trainScratch, gradDelta *tensor.Tensor) {
	cache, g := ts.cache, ts.g
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
	tensor.Conv3DBackwardInto(ts.gradInput, g.wIn, g.bIn, cache.input, n.wIn, ts.gradCur)
}

// TrainStep runs one optimization step on a single FOV example: image and
// label are (1,D,H,W) FOV tensors; the POM starts from the seed state. It
// returns the BCE loss before the update. All intermediate buffers are
// reused across calls, so steady-state steps allocate nothing.
func (n *Network) TrainStep(opt *tensor.SGD, image, label *tensor.Tensor) float64 {
	ts := n.trainScratchBufs()
	packInputInto(ts.in, image, ts.pom)
	n.forwardInto(ts.cache, ts.in, ts.delta)
	loss := tensor.LogitBCEInto(ts.gradLogits, ts.delta, label, nil)
	n.backwardInto(ts, ts.gradLogits)
	n.applySGD(opt, ts.g)
	n.qn = nil // weights changed; quantized cache is stale
	return loss
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
