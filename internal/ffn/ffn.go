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
// round runs exampleGrad (forward and backward on the flood's channel-lane
// engine over a reusable trainScratch, writing one gradient row) per
// sample, averages the rows and applies step.
//
// A network not owned by a trainer is immutable. Only a trainer's step
// writes weights, and only on the network it was given; everything else —
// Flood, Segment and SegmentCtx, the forward passes, serialization — reads. So one
// network may serve any number of concurrent floods, which is how the
// service shares one inference network per set of weights across jobs.
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
	// Written so that NaN fails: a model header is untrusted bytes.
	for _, p := range [4]float32{c.MoveProb, c.SegmentProb, c.PadProb, c.SeedProb} {
		if !(p > 0 && p < 1) {
			return fmt.Errorf("ffn: probabilities must be in (0,1), got move %v segment %v pad %v seed %v",
				c.MoveProb, c.SegmentProb, c.PadProb, c.SeedProb)
		}
	}
	// A move reads the logit FOV at center +/- step: a step over half the
	// FOV indexes outside it.
	for i, s := range c.MoveStep {
		if s < 0 || s > c.FOV[i]/2 {
			return fmt.Errorf("ffn: MoveStep %v must be within [0, FOV/2] of FOV %v", c.MoveStep, c.FOV)
		}
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
}

// newNetwork allocates a zero-weight model for a validated cfg.
func newNetwork(cfg Config) *Network {
	n := &Network{cfg: cfg, params: make([]float32, cfg.paramCount()), paramViews: newParamViews(cfg)}
	n.bind(n.params)
	return n
}

// NewNetwork initializes a model with He-initialized weights from seed.
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
	return n, nil
}

// Config returns the network configuration.
func (n *Network) Config() Config { return n.cfg }

// ParamCount returns the total number of trainable scalars.
func (n *Network) ParamCount() int { return len(n.params) }

// WeightBytes returns the memory the network's weights occupy: the float32
// parameter vector.
func (n *Network) WeightBytes() int { return 4 * len(n.params) }

// GradBytes returns the wire size of one gradient exchange (float32 per
// parameter), the quantity each all-reduce moves per worker pair.
func (n *Network) GradBytes() float64 { return float64(len(n.params)) * 4 }

// packLaneWeights writes the 3x3x3 layers' weights and biases into dst in
// lane form (tensor.PackLaneWeights33): the input layer's, then each
// module's two, wIn + 2*Modules*wMod floats (laneWeightLens). The flood and
// training read the same form.
func (n *Network) packLaneWeights(dst []float32) {
	wIn, wMod := n.cfg.laneWeightLens()
	tensor.PackLaneWeights33(dst, n.wIn, n.bIn)
	rest := dst[wIn:]
	for _, m := range n.mods {
		tensor.PackLaneWeights33(rest, m.w1, m.b1)
		tensor.PackLaneWeights33(rest[wMod:], m.w2, m.b2)
		rest = rest[2*wMod:]
	}
}

// laneWeightLens are the lengths of the input layer's and of one module
// layer's lane weights.
func (cfg *Config) laneWeightLens() (wIn, wMod int) {
	f := cfg.Features
	return tensor.LaneWeights33Len(f, 2), tensor.LaneWeights33Len(f, f)
}

// trainPlan is what every shard of a training round reads besides its
// scratch: w holds the 3x3x3 layers' lane weights (packLaneWeights), then
// each module's two input-gradient forms (tensor.PackLaneWeights33Flipped:
// w1's, then w2's), and spans lists every FOV row in full. A trainer
// borrows w once and packs it once per round, before the fan-out — weights
// change only in step — and every shard reads it, as a flood's lanes read
// its floodPlan.
type trainPlan struct {
	w     []float32
	spans []int32
}

// newTrainPlan borrows an unpacked plan for n's geometry.
func (n *Network) newTrainPlan() *trainPlan {
	d, h, w := n.cfg.FOV[0], n.cfg.FOV[1], n.cfg.FOV[2]
	wIn, wMod := n.cfg.laneWeightLens()
	p := &trainPlan{
		w:     tensor.GetFloats(wIn + 4*len(n.mods)*wMod),
		spans: make([]int32, 2*d*h),
	}
	for r := 0; r < d*h; r++ {
		p.spans[2*r+1] = int32(w)
	}
	return p
}

// pack writes n's current weights into the plan.
func (p *trainPlan) pack(n *Network) {
	wIn, wMod := n.cfg.laneWeightLens()
	n.packLaneWeights(p.w)
	flipped := p.w[wIn+2*len(n.mods)*wMod:]
	for _, m := range n.mods {
		tensor.PackLaneWeights33Flipped(flipped, m.w1)
		tensor.PackLaneWeights33Flipped(flipped[wMod:], m.w2)
		flipped = flipped[2*wMod:]
	}
}

// module returns module i's two forward lane weights and their
// input-gradient forms.
func (p *trainPlan) module(cfg *Config, i int) (w1, w2, t1, t2 []float32) {
	wIn, wMod := cfg.laneWeightLens()
	fwd := p.w[wIn+2*i*wMod:]
	bwd := p.w[wIn+2*(cfg.Modules+i)*wMod:]
	return fwd[:wMod], fwd[wMod : 2*wMod], bwd[:wMod], bwd[wMod : 2*wMod]
}

// release returns w to the free list and detaches it. Idempotent.
func (p *trainPlan) release() {
	tensor.PutFloats(p.w)
	p.w = nil
}

// trainScratch holds every buffer one training example needs besides the
// weights, so steady-state training allocates nothing. One scratch serves
// one goroutine, and the network is only read through it.
//
// The example stays in the flood's zero-padded, channel-blocked layout
// (floodLayouts) from its input to its weight gradients: the input, whose
// seed POM lane is written once, every layer's post-activation, and the
// gradients flowing back. Every buffer is a view into one slab borrowed
// from the tensor free list — a training job trains a Network of its own,
// so memory hanging off the Network would always be cold, while the slab
// of the previous job of this geometry is not. The slab comes back dirty:
// newTrainScratch writes the padding shells and the POM lane, and each
// example writes every interior it reads. release hands the slab back; a
// scratch that is never released is ordinary garbage.
type trainScratch struct {
	slab []float32
	plan *trainPlan // the trainer's, packed for the current round

	in   []float32   // Blocked input: image lane per example, seed POM lane
	acts [][]float32 // Blocked post-activations: the input layer's, then each module's hidden and output
	// Blocked gradients: the running one, the next, and a module's hidden.
	gradCur, gradPrev, gradHid []float32

	tensors                     [4]tensor.Tensor // backing array of the four views below
	img, lab, delta, gradLogits *tensor.Tensor   // (1,D,H,W) FOV extracts, logits and their gradient
	g                           paramViews       // gradient views, bound to the row being written
}

// TrainScratchLen is the length of the slab one training scratch of cfg's
// geometry borrows, per lane of a trainer: with P padded and V interior FOV
// positions and L = Features rounded up to whole vectors, the 2-channel
// input (2P), 2*Modules+1 activations and three gradients (L*P each) and
// four FOV tensors (V each).
func (cfg *Config) TrainScratchLen() int {
	li, lx := cfg.floodLayouts(1)
	return li.Len() + (2*cfg.Modules+4)*lx.Len() + 4*li.D*li.H*li.W
}

// newTrainScratch is the one scratch constructor: every trainer's forward
// and backward buffers come from here. plan is the trainer's.
func (n *Network) newTrainScratch(plan *trainPlan) *trainScratch {
	cfg := &n.cfg
	li, lx := cfg.floodLayouts(1)
	ts := &trainScratch{slab: tensor.GetFloats(cfg.TrainScratchLen()), plan: plan, g: newParamViews(*cfg)}
	free := ts.slab
	next := func(size int) []float32 {
		s := free[:size:size]
		free = free[size:]
		return s
	}
	ts.in = next(li.Len())
	li.ClearShell(ts.in)
	cfg.fillSeedPOMLane(ts.in, li, 1)
	blocked := func() []float32 {
		b := next(lx.Len())
		lx.ClearShell(b)
		return b
	}
	for i := 0; i < 2*len(n.mods)+1; i++ {
		ts.acts = append(ts.acts, blocked())
	}
	ts.gradCur, ts.gradPrev, ts.gradHid = blocked(), blocked(), blocked()
	shape := []int{1, li.D, li.H, li.W} // shared by the four views; nothing writes it
	for i, t := range [4]**tensor.Tensor{&ts.img, &ts.lab, &ts.delta, &ts.gradLogits} {
		ts.tensors[i] = tensor.Tensor{Shape: shape, Data: next(li.D * li.H * li.W)}
		*t = &ts.tensors[i]
	}
	if len(free) != 0 {
		panic(fmt.Sprintf("ffn: %d floats of a training slab left over", len(free)))
	}
	return ts
}

// release returns the slab to the free list and detaches every view, so a
// use after release fails loudly. Idempotent.
func (ts *trainScratch) release() {
	tensor.PutFloats(ts.slab)
	ts.slab, ts.in, ts.acts = nil, nil, nil
	ts.gradCur, ts.gradPrev, ts.gradHid = nil, nil, nil
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

// exampleGrad runs forward+backward on one FOV example — image and label
// are (1,D,H,W) FOV tensors, the POM starts from the seed state — writing
// the parameter gradient into row (len ParamCount, canonical order,
// overwritten) and returning the BCE loss. It only reads the weights (in
// ts.plan's lane form, and wOut), so workers with their own scratch may
// call it concurrently; it runs on the calling goroutine.
//
// Every step is the channel-lane engine's, and each value is the one the
// planar scalar-order chain computes (planar_test.go holds it to that bit
// for bit): the forward pass is the flood's at full-FOV spans; a ReLU's
// backward masks by its post-activation (tensor.MaskReLUGrad); each input
// gradient is a ConvLanes33 with the flipped weights, the skip gradient as
// its residual; and tensor.ConvLanesGradW33 sums the weight and bias
// gradients.
func (n *Network) exampleGrad(ts *trainScratch, image, label *tensor.Tensor, row []float32) float64 {
	cfg := &n.cfg
	f := cfg.Features
	li, lx := cfg.floodLayouts(1)
	plan, full, acts := ts.plan, ts.plan.spans, ts.acts
	wIn, _ := cfg.laneWeightLens()

	for z := 0; z < li.D; z++ {
		for y := 0; y < li.H; y++ {
			src := image.Data[(z*li.H+y)*li.W:][:li.W]
			dst := ts.in[li.Pos(z, y, 0):]
			for x, v := range src {
				dst[x*li.C] = v
			}
		}
	}
	tensor.ConvLanes33ReLU(acts[0], lx, ts.in, li, 2, plan.w[:wIn], nil, full)
	for i := range n.mods {
		w1, w2, _, _ := plan.module(cfg, i)
		in, hid, out := acts[2*i], acts[2*i+1], acts[2*i+2]
		tensor.ConvLanes33ReLU(hid, lx, in, lx, f, w1, nil, full)
		tensor.ConvLanes33ReLU(out, lx, hid, lx, f, w2, in, full) // residual connection
	}
	last := acts[len(acts)-1]
	n.logitsAt(ts.delta.Data, last, lx, 1, full)
	loss := tensor.LogitBCEInto(ts.gradLogits, ts.delta, label, nil)

	ts.g.bind(row)
	g := &ts.g
	n.logitsBackward(ts.gradCur, lx, g.wOut.Data, g.bOut, last, ts.gradLogits.Data)
	cur, next := ts.gradCur, ts.gradPrev
	for i := len(n.mods) - 1; i >= 0; i-- {
		_, _, t1, t2 := plan.module(cfg, i)
		in, hid, out := acts[2*i], acts[2*i+1], acts[2*i+2]
		gm := g.mods[i]
		// Through the module's output ReLU; the gradient flows both into the
		// conv2 branch and down the skip path.
		tensor.MaskReLUGrad(cur, out, lx)
		tensor.ConvLanesGradW33(gm.w2.Data, gm.b2, hid, lx, f, cur, lx, f)
		tensor.ConvLanes33(ts.gradHid, lx, cur, lx, f, t2, nil, full)
		tensor.MaskReLUGrad(ts.gradHid, hid, lx)
		tensor.ConvLanesGradW33(gm.w1.Data, gm.b1, in, lx, f, ts.gradHid, lx, f)
		tensor.ConvLanes33(next, lx, ts.gradHid, lx, f, t1, cur, full) // plus the skip connection
		cur, next = next, cur
	}
	tensor.MaskReLUGrad(cur, acts[0], lx)
	// Nothing reads the gradient with respect to the input.
	tensor.ConvLanesGradW33(g.wIn.Data, g.bIn, ts.in, li, 2, cur, lx, f)
	return loss
}

// logitsBackward is the 1x1x1 logit layer's backward, in the scalar conv's
// order with each product rounded on its own: the bias gradient gb sums gl
// over the positions, each feature's weight gradient gw[c] is a dot
// product of gl with that feature, and the gradient with respect to the
// last activation act, written to the interior of grad (layout lay, the
// lanes past Features zero), is 0 + w[c]*gl at each position.
func (n *Network) logitsBackward(grad []float32, lay tensor.Blocked, gw, gb, act, gl []float32) {
	wOut := n.wOut.Data
	var sb float32
	for _, v := range gl {
		sb += v
	}
	gb[0] = sb
	// rows visits the FOV rows in (z, y) order: the dense offset of the
	// row's first position and the Blocked one.
	rows := func(visit func(p, o int)) {
		for z := 0; z < lay.D; z++ {
			for y := 0; y < lay.H; y++ {
				visit((z*lay.H+y)*lay.W, lay.Pos(z, y, 0))
			}
		}
	}
	for c := range gw {
		var s float32
		rows(func(p, o int) {
			for x, v := range gl[p:][:lay.W] {
				s += float32(v * act[o+x*lay.C+c])
			}
		})
		gw[c] = s
	}
	rows(func(p, o int) {
		for x, v := range gl[p:][:lay.W] {
			a := grad[o+x*lay.C:][:lay.C]
			for c, wv := range wOut {
				var s float32
				s += float32(wv * v)
				a[c] = s
			}
			clear(a[len(wOut):])
		}
	})
}

// step applies one optimizer update to the whole parameter vector. It is the
// one place a network's weights change, and only a trainer, on the network
// it owns, calls it.
func (n *Network) step(opt *tensor.SGD, grad []float32) {
	opt.Step(n.params, grad)
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
