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
// (layer), with the conv weights and biases as views into it; a
// gradient, the optimizer's momentum and the serialized model are the same
// vector shape, so saving, checkpointing, the all-reduce and the optimizer
// step are each one pass over a slice. There is one trainer, DistTrainer: a
// round runs exampleGrads (forward and backward on the flood's channel-lane
// engine over a reusable trainScratch, one example or a pair per call,
// writing one gradient row each) over its samples, averages the rows and
// applies step.
//
// A network not owned by a trainer is immutable. Only a trainer's step
// writes weights, and only on the network it owns; everything else —
// Flood and SegmentCtx, the forward passes, serialization — reads. So one
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

// Network geometry caps: no config, whether a job request spells it out or
// a model or checkpoint header carries it, asks for a network whose
// buffers dwarf a volume (maxFOV^3 voxels x maxFeatures channels is ~70 MB
// f32 per activation tensor at the extremes).
const (
	maxFOV      = 65
	maxFeatures = 256
	maxModules  = 16
)

// maxScratchElems bounds one working array sized by two knobs at once: the
// batched flood scratch (fov x features), a trainer's gradient matrix
// (batch x parameters) and one lane's training scratch (fov x features x
// modules). 64M float32 = 256 MB, the ceiling dataset.MaxVoxels puts on a
// volume.
const maxScratchElems = 64 << 20

// Validate holds c to the caps every network is built within: the geometry
// caps, probabilities inside (0,1), a move step within half the FOV, and
// the batched flood scratch within maxScratchElems. NewNetwork and every
// decoder run it, so a header is held to the caps a job request is, before
// anything is sized from it.
func (c Config) Validate() error {
	for _, d := range c.FOV {
		if d <= 0 || d%2 == 0 || d > maxFOV {
			return fmt.Errorf("ffn: fov dims must be positive odd <= %d, got %v", maxFOV, c.FOV)
		}
	}
	if c.Features < 1 || c.Features > maxFeatures {
		return fmt.Errorf("ffn: features must be in [1,%d], got %d", maxFeatures, c.Features)
	}
	if c.Modules < 1 || c.Modules > maxModules {
		return fmt.Errorf("ffn: modules must be in [1,%d], got %d", maxModules, c.Modules)
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
			return fmt.Errorf("ffn: move_step %v must be within [0, fov/2] of fov %v", c.MoveStep, c.FOV)
		}
	}
	// The flood's activation buffers each hold DefaultFloodBatch padded
	// FOVs of Features rounded up to whole vectors: fov and features,
	// each capped on its own, are bounded together too, or at both
	// extremes one flood would borrow over 10 GB.
	if _, act := c.floodLayouts(1); act.Len() > maxScratchElems/DefaultFloodBatch {
		return fmt.Errorf("ffn: fov %v x %d features implies a batched scratch over the %d-element limit",
			c.FOV, c.Features, maxScratchElems)
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

// paramViews are the conv weights and biases of one architecture as
// tensors viewing a flat vector in canonical order (layer).
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

// layer returns layer k's weights and bias as views into flat, the
// parameter vector of an f-feature, modules-module network. Its canonical
// order — wIn, bIn, then w1, b1, w2, b2 per module, then wOut, bOut — is the
// order of the serialized model, of the optimizer's momentum buffer and of
// every gradient row, and this is the only place it is written down: k = 0
// is the input layer, 1 to 2*modules each module's two 3x3x3 convs, and
// 2*modules+1 the logit layer.
func layer(flat []float32, f, modules, k int) (w, b []float32) {
	in, mod := 2*27*f+f, 27*f*f+f
	o, nw, nb := 0, 2*27*f, f
	switch {
	case k > 2*modules:
		o, nw, nb = in+2*modules*mod, f, 1
	case k > 0:
		o, nw = in+(k-1)*mod, 27*f*f
	}
	return flat[o : o+nw : o+nw], flat[o+nw : o+nw+nb : o+nw+nb]
}

// bind points every view at its span of flat (len paramCount), without
// allocating.
func (v *paramViews) bind(flat []float32) {
	f, m := v.wIn.Shape[0], len(v.mods)
	if p := (&Config{Features: f, Modules: m}).paramCount(); len(flat) != p {
		panic(fmt.Sprintf("ffn: binding a %d-scalar vector to %d parameters", len(flat), p))
	}
	v.wIn.Data, v.bIn = layer(flat, f, m, 0)
	for i, mod := range v.mods {
		mod.w1.Data, mod.b1 = layer(flat, f, m, 2*i+1)
		mod.w2.Data, mod.b2 = layer(flat, f, m, 2*i+2)
	}
	v.wOut.Data, v.bOut = layer(flat, f, m, 2*m+1)
}

// Network is the FFN model. Its parameters are one flat vector in canonical
// order; the embedded views are what the conv kernels read.
type Network struct {
	cfg    Config
	params []float32
	paramViews
}

// newNetwork builds a model for a validated cfg over params, a vector of
// cfg.paramCount() floats it keeps as they are.
func newNetwork(cfg Config, params []float32) *Network {
	n := &Network{cfg: cfg, params: params, paramViews: newParamViews(cfg)}
	n.bind(n.params)
	return n
}

// NewNetwork initializes a model with He-initialized weights from seed.
func NewNetwork(cfg Config, seed uint64) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := newNetwork(cfg, make([]float32, cfg.paramCount()))
	n.initWeights(seed)
	return n, nil
}

// initWeights draws n's weights from seed (He initialization, in a fixed
// order) and zeroes its biases, whatever the parameter vector held before.
func (n *Network) initWeights(seed uint64) {
	clear(n.params)
	rng := sim.NewRNG(seed)
	f := n.cfg.Features
	n.wIn.Randomize(rng, 2*27)
	n.wOut.Randomize(rng, f)
	for _, m := range n.mods {
		m.w1.Randomize(rng, f*27)
		m.w2.Randomize(rng, f*27)
	}
}

// Config returns the network configuration.
func (n *Network) Config() Config { return n.cfg }

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
// w1's, then w2's), and, in a plan for paired training, all of that again
// in paired form (tensor.PairLaneWeights); spans lists every FOV row in
// full. A trainer borrows w once and packs it once per round, before the
// fan-out — weights change only in step — and every shard reads it, as a
// flood's lanes read its floodPlan.
type trainPlan struct {
	w     []float32
	n     int // the length of the width-1 form at the front of w
	spans []int32
}

// borrowTrainPlan borrows an unpacked plan for n's geometry that serves
// training at widths up to width (1 or 2).
func (n *Network) borrowTrainPlan(width int) *trainPlan {
	d, h, w := n.cfg.FOV[0], n.cfg.FOV[1], n.cfg.FOV[2]
	wIn, wMod := n.cfg.laneWeightLens()
	one := wIn + 4*len(n.mods)*wMod
	p := &trainPlan{
		w:     tensor.GetFloats((2*width - 1) * one),
		n:     one,
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
	one := p.w[:p.n]
	n.packLaneWeights(one)
	flipped := one[wIn+2*len(n.mods)*wMod:]
	for _, m := range n.mods {
		tensor.PackLaneWeights33Flipped(flipped, m.w1)
		tensor.PackLaneWeights33Flipped(flipped[wMod:], m.w2)
		flipped = flipped[2*wMod:]
	}
	if paired := p.w[p.n:]; len(paired) > 0 {
		copy(paired, one)
		tensor.PairLaneWeights(paired)
	}
}

// weights returns the plan's lane weights at width, in pack's order.
func (p *trainPlan) weights(width int) []float32 {
	if width == 2 {
		return p.w[p.n:]
	}
	return p.w[:p.n]
}

// module returns module i's two forward lane weights and their
// input-gradient forms at width.
func (p *trainPlan) module(cfg *Config, i, width int) (w1, w2, t1, t2 []float32) {
	wIn, wMod := cfg.laneWeightLens()
	wIn, wMod = width*wIn, width*wMod
	all := p.weights(width)
	fwd := all[wIn+2*i*wMod:]
	bwd := all[wIn+2*(cfg.Modules+i)*wMod:]
	return fwd[:wMod], fwd[wMod : 2*wMod], bwd[:wMod], bwd[wMod : 2*wMod]
}

// release returns w to the free list and detaches it. Idempotent.
func (p *trainPlan) release() {
	tensor.PutFloats(p.w)
	p.w = nil
}

// trainScratch holds every buffer one training step needs besides the
// weights, so steady-state training allocates nothing. One scratch serves
// one goroutine, and the network is only read through it.
//
// A step trains width examples (1 or 2), each in a slot of the flood's
// zero-padded, channel-blocked layout at that width (floodLayouts) from its
// input to its weight gradients: the input, whose seed POM lanes are
// written once, every layer's post-activation, and the gradients flowing
// back. Every buffer is a view into one slab borrowed from the tensor free
// list — a training job trains a Network of its own, so memory hanging off
// the Network would always be cold, while the slab of the previous job of
// this geometry is not. The slab comes back dirty: borrowTrainScratch
// writes the padding shells and the POM lanes, and each step writes every
// interior it reads. release hands the slab back; a scratch that is never
// released is ordinary garbage.
type trainScratch struct {
	slab  []float32
	plan  *trainPlan // the trainer's, packed for the current round
	width int        // examples per step and slots per Blocked buffer

	in   []float32   // Blocked input: an image lane per example, a seed POM lane
	acts [][]float32 // Blocked post-activations: the input layer's, then each module's hidden and output
	// Blocked gradients: the running one, the next, and a module's hidden.
	gradCur, gradPrev, gradHid []float32

	slots [2]trainSlot // the first width are in use
}

// trainSlot is one example's share of a trainScratch: its (1,D,H,W) FOV
// extracts, and its logits and their gradient.
type trainSlot struct {
	img, lab, delta, gradLogits tensor.Tensor
}

// TrainScratchLen is the length of the slab one training scratch of cfg's
// geometry borrows at width 1: with P padded and V interior FOV positions
// and L = Features rounded up to whole vectors, the 2-channel input (2P),
// 2*Modules+1 activations and three gradients (L*P each) and four FOV
// tensors (V each). A paired scratch borrows twice as much (TrainSlabLen).
func (cfg *Config) TrainScratchLen() int {
	li, lx := cfg.floodLayouts(1)
	return li.Len() + (2*cfg.Modules+4)*lx.Len() + 4*li.D*li.H*li.W
}

// TrainSlabLen is the length of the longest slab one lane of a trainer of
// cfg's geometry at batch examples per round borrows: TrainScratchLen, or
// twice it where the lane trains two examples per buffer, which trainWidth
// allows only while that stays within maxScratchElems.
func (cfg *Config) TrainSlabLen(batch int) int {
	return cfg.trainWidth(batch) * cfg.TrainScratchLen()
}

// trainWidth is the width a trainer of cfg's geometry at batch examples
// per round trains the pairs of a chunk at: two examples per buffer where
// floodWidth would pair (the AVX-512F kernels run, or forceWidth says so),
// the batch can fill a pair, and a paired slab, twice TrainScratchLen,
// stays within maxScratchElems, the ceiling on any one working array of a
// job; else one. A chunk's odd example out trains alone at width 1.
func (cfg *Config) trainWidth(batch int) int {
	if batch < 2 || cfg.TrainScratchLen() > maxScratchElems/2 {
		return 1
	}
	return floodWidth(0)
}

// trainWork counts one training example's conv work at cfg's geometry,
// every layer at every FOV position: the vector multiply-adds the
// channel-lane engine issues for the forward pass (the 3x3x3 layers), the
// input gradients (each module's two convs; nothing reads the input
// layer's) and the weight gradients (every 3x3x3 layer: per output group,
// input channel and tap, one vector per position), whose lanes past
// Features idle. 8-lane vectors at width 1; at width 2, half as many
// 16-lane ones per example, each serving two.
func (cfg *Config) trainWork(width int) (vectors int) {
	f, m := cfg.Features, cfg.Modules
	perTap := cfg.FOV[0] * cfg.FOV[1] * cfg.FOV[2] * tensor.LaneChannels(f) / 8 * 27
	forward := perTap * (2 + 2*m*f)
	inputGrads := perTap * 2 * m * f
	weightGrads := perTap * (2 + 2*m*f)
	return (forward + inputGrads + weightGrads) / width
}

// borrowTrainScratch is the one scratch constructor: every trainer's
// forward and backward buffers at width come from here. plan is the
// trainer's and must serve width.
func (n *Network) borrowTrainScratch(plan *trainPlan, width int) *trainScratch {
	cfg := &n.cfg
	li, lx := cfg.floodLayouts(width)
	ts := &trainScratch{slab: tensor.GetFloats(width * cfg.TrainScratchLen()), plan: plan, width: width}
	free := ts.slab
	next := func(size int) []float32 {
		s := free[:size:size]
		free = free[size:]
		return s
	}
	ts.in = next(li.Len())
	li.ClearShell(ts.in)
	cfg.fillSeedPOMLane(ts.in, li, width)
	blocked := func() []float32 {
		b := next(lx.Len())
		lx.ClearShell(b)
		return b
	}
	for i := 0; i < 2*len(n.mods)+1; i++ {
		ts.acts = append(ts.acts, blocked())
	}
	ts.gradCur, ts.gradPrev, ts.gradHid = blocked(), blocked(), blocked()
	shape := []int{1, li.D, li.H, li.W} // shared by every slot's views; nothing writes it
	for s := range width {
		sl := &ts.slots[s]
		for _, t := range [4]*tensor.Tensor{&sl.img, &sl.lab, &sl.delta, &sl.gradLogits} {
			*t = tensor.Tensor{Shape: shape, Data: next(li.D * li.H * li.W)}
		}
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
	for s := range ts.slots {
		sl := &ts.slots[s]
		sl.img.Data, sl.lab.Data, sl.delta.Data, sl.gradLogits.Data = nil, nil, nil, nil
	}
}

// extract copies the example centered at c out of a labelled volume into
// slot s's FOV tensors.
func (ts *trainScratch) extract(s int, image, labels *Volume, fov [3]int, c [3]int) {
	sl := &ts.slots[s]
	extractFOVInto(&sl.img, image, fov, c[0], c[1], c[2])
	extractFOVInto(&sl.lab, labels, fov, c[0], c[1], c[2])
}

// exampleGrads runs forward+backward on ts.width FOV examples at once —
// slot s's image and label extracted into ts.slots[s], the POM starting
// from the seed state — writing slot s's parameter gradient into row s of
// rows (ts.width rows of len(params), canonical order, overwritten) and its
// BCE loss into losses[s]. It only reads the weights (in ts.plan's lane
// form, and wOut), so workers with their own scratch may call it
// concurrently; it runs on the calling goroutine.
//
// Every step is the channel-lane engine's, and each value is the one the
// planar scalar-order chain computes for that example alone (planar_test.go
// holds width 1 to it bit for bit, and the paired tests hold width 2 to
// width 1): the forward pass is the flood's at full-FOV spans; a ReLU's
// backward masks by its post-activation (tensor.MaskReLUGrad, lane by
// lane); each input gradient is a ConvLanes33 with the flipped weights, the
// skip gradient as its residual; and tensor.ConvLanesGradW33 sums the
// weight and bias gradients. At width 2 the convs are the paired calls,
// each slot in its own lanes, and the logit layer, the loss and the logit
// layer's backward run one slot at a time.
func (n *Network) exampleGrads(ts *trainScratch, rows []float32, losses []float64) {
	cfg := &n.cfg
	f := cfg.Features
	width := ts.width
	li, lx := cfg.floodLayouts(width)
	plan, full, acts := ts.plan, ts.plan.spans, ts.acts
	wIn, _ := cfg.laneWeightLens()
	conv, convIn := tensor.ConvLanes33ReLU, tensor.ConvLanes33
	if width == 2 {
		conv, convIn = tensor.ConvLanes33ReLUx2, tensor.ConvLanes33x2
	}
	p, m := len(n.params), len(n.mods)
	// gradW writes 3x3x3 layer k's weight and bias gradients into every
	// slot's row.
	gradW := func(k int, in []float32, li tensor.Blocked, cin int, g []float32) {
		var gw, gb [2][]float32
		for s := range width {
			gw[s], gb[s] = layer(rows[s*p:][:p], f, m, k)
		}
		if width == 2 {
			tensor.ConvLanesGradW33x2(gw, gb, in, li, cin, g, lx, f)
		} else {
			tensor.ConvLanesGradW33(gw[0], gb[0], in, li, cin, g, lx, f)
		}
	}

	for s := range width {
		image := ts.slots[s].img.Data
		for z := 0; z < li.D; z++ {
			for y := 0; y < li.H; y++ {
				src := image[(z*li.H+y)*li.W:][:li.W]
				dst := ts.in[li.Pos(z, y, 0)+s:]
				for x, v := range src {
					dst[x*li.C] = v
				}
			}
		}
	}
	conv(acts[0], lx, ts.in, li, 2, plan.weights(width)[:width*wIn], nil, full)
	for i := range n.mods {
		w1, w2, _, _ := plan.module(cfg, i, width)
		in, hid, out := acts[2*i], acts[2*i+1], acts[2*i+2]
		conv(hid, lx, in, lx, f, w1, nil, full)
		conv(out, lx, hid, lx, f, w2, in, full) // residual connection
	}
	last := acts[len(acts)-1]
	for s := range width {
		sl := &ts.slots[s]
		n.logitsAt(sl.delta.Data, last[s:], lx, width, full)
		losses[s] = tensor.LogitBCEInto(&sl.gradLogits, &sl.delta, &sl.lab, nil)
		gw, gb := layer(rows[s*p:][:p], f, m, 2*m+1)
		n.logitsBackward(ts.gradCur[s:], lx, width, gw, gb, last[s:], sl.gradLogits.Data)
	}

	cur, next := ts.gradCur, ts.gradPrev
	for i := len(n.mods) - 1; i >= 0; i-- {
		_, _, t1, t2 := plan.module(cfg, i, width)
		in, hid, out := acts[2*i], acts[2*i+1], acts[2*i+2]
		// Through the module's output ReLU; the gradient flows both into the
		// conv2 branch and down the skip path.
		tensor.MaskReLUGrad(cur, out, lx)
		gradW(2*i+2, hid, lx, f, cur)
		convIn(ts.gradHid, lx, cur, lx, f, t2, nil, full)
		tensor.MaskReLUGrad(ts.gradHid, hid, lx)
		gradW(2*i+1, in, lx, f, ts.gradHid)
		convIn(next, lx, ts.gradHid, lx, f, t1, cur, full) // plus the skip connection
		cur, next = next, cur
	}
	tensor.MaskReLUGrad(cur, acts[0], lx)
	// Nothing reads the gradient with respect to the input.
	gradW(0, ts.in, li, 2, cur)
}

// logitsBackward is the 1x1x1 logit layer's backward for one slot, in the
// scalar conv's order with each product rounded on its own: the bias
// gradient gb sums gl over the positions, each feature's weight gradient
// gw[c] is a dot product of gl with that feature, and the gradient with
// respect to the last activation act, written to the slot's lanes of the
// interior of grad (layout lay at width, grad and act starting at the
// slot's channel 0; the lanes past Features zero), is 0 + w[c]*gl at each
// position.
func (n *Network) logitsBackward(grad []float32, lay tensor.Blocked, width int, gw, gb, act, gl []float32) {
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
				s += float32(v * act[o+x*lay.C+width*c])
			}
		})
		gw[c] = s
	}
	rows(func(p, o int) {
		for x, v := range gl[p:][:lay.W] {
			a := grad[o+x*lay.C:]
			for c, wv := range wOut {
				var s float32
				s += float32(wv * v)
				a[width*c] = s
			}
			for c := len(wOut); c < lay.C/width; c++ {
				a[width*c] = 0
			}
		}
	})
}

// step applies one optimizer update to the whole parameter vector. It is the
// one place a network's weights change, and only a trainer, on the network
// it owns, calls it.
func (n *Network) step(opt *tensor.SGD, grad []float32) {
	opt.Step(n.params, grad)
}
