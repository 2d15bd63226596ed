package ffn

import (
	"math"
	"testing"

	"chaseci/internal/parallel"
	"chaseci/internal/sim"
	"chaseci/internal/tensor"
)

// The planar training chain: the network's forward and backward pass over
// planar (C, D, H, W) tensors with tensor's planar conv, its backward and
// the separate ReLU passes, each in the scalar kernel's order. It is the
// reference the channel-lane training pass (exampleGrad) and the flood's
// forward pass are held to bit for bit.

// fwdCache stores activations needed for backprop. Caches are reusable:
// every tensor except input is carved out of a planarScratch's slab and
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
		addInto(cache.modPre2[i], cur) // residual connection
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

// planarScratch holds every buffer one forward+backward pass of the planar
// chain needs besides the weights. Every tensor is a view into one slab
// borrowed from the tensor free list, which comes back dirty: each tensor is
// written in full (forwardInto, LogitBCEInto, the backward kernels' own
// zeroing) before the pass reads it.
type planarScratch struct {
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

// newPlanarScratch builds the planar chain's buffers for n.
func newPlanarScratch(n *Network) *planarScratch {
	f, mods := n.cfg.Features, len(n.mods)
	d, h, w := n.cfg.FOV[0], n.cfg.FOV[1], n.cfg.FOV[2]
	v := d * h * w
	// F-channel tensors: preIn, actIn, four per module, four backward
	// temporaries; 1-channel: pom, img, lab, delta, gradLogits; 2-channel:
	// in.
	wide, one := 6+4*mods, 5
	ts := &planarScratch{
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
func (ts *planarScratch) release() {
	tensor.PutFloats(ts.slab)
	ts.slab = nil
	for i := range ts.tensors {
		ts.tensors[i].Data = nil
	}
}

// backwardInto computes the parameter gradients of the pass cached in ts
// into row (len ParamCount, canonical order, overwritten), using only the
// scratch temporaries.
func (n *Network) backwardInto(ts *planarScratch, gradDelta *tensor.Tensor, row []float32) {
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
		addInto(ts.gradPrev, ts.gradSum) // skip connection
		ts.gradCur, ts.gradPrev = ts.gradPrev, ts.gradCur
	}
	tensor.ReLUBackwardInto(ts.gradCur, cache.preIn, ts.gradCur)
	tensor.Conv3DBackwardInto(nil, g.wIn, g.bIn, cache.input, n.wIn, ts.gradCur)
}

// planarExampleGrad is exampleGrad on the planar chain: forwardInto, the BCE
// loss, backwardInto.
func (n *Network) planarExampleGrad(ts *planarScratch, image, label *tensor.Tensor, row []float32) float64 {
	packInputInto(ts.in, image, ts.pom)
	n.forwardInto(&ts.cache, ts.in, ts.delta)
	loss := tensor.LogitBCEInto(ts.gradLogits, ts.delta, label, nil)
	n.backwardInto(ts, ts.gradLogits, row)
	return loss
}

// TestExampleGradMatchesPlanarReference holds the channel-lane training
// pass to the planar chain: per example, the loss and every element of the
// gradient row must have the same bits. The nets are smallConfig (6
// features), DefaultConfig (8) and a 12-feature net, whose second lane group
// is partial, each also with zeroed channels whose pre-activations are
// exactly +0 or -0; the images hold -0, subnormals, NaN and ±Inf, so a ReLU
// backward that masks a NaN activation's gradient (act > 0) fails here.
//
// One allowance, with the span kernels off (-tags nosimd, non-amd64): the
// planar chain's scalar weight gradient skips the taps that fall on padding,
// which the weight-gradient kernel and its Go twin multiply by the padding's
// zero, so a NaN sum can meet a NaN of the other sign first. There a NaN
// matches any NaN; everything else still matches bit for bit.
func TestExampleGradMatchesPlanarReference(t *testing.T) {
	same := func(a, b float32) bool {
		return math.Float32bits(a) == math.Float32bits(b) ||
			(!tensor.SpanKernelsActive() && a != a && b != b)
	}
	defer parallel.SetWorkers(parallel.SetWorkers(0))
	wide := smallConfig()
	wide.FOV, wide.Features, wide.Modules = [3]int{3, 5, 7}, 12, 1
	configs := map[string]Config{"small": smallConfig(), "default": DefaultConfig(), "12 features": wide}
	negZero := float32(math.Copysign(0, -1))
	for name, cfg := range configs {
		random, err := NewNetwork(cfg, 21)
		if err != nil {
			t.Fatal(err)
		}
		zeroed, _ := NewNetwork(cfg, 21)
		zeroChannel(zeroed, 1, 0)
		zeroChannel(zeroed, cfg.Features-1, negZero)
		zeroed.wOut.Data[0] = 0

		d, h, w := cfg.FOV[0], cfg.FOV[1], cfg.FOV[2]
		rng := sim.NewRNG(5)
		base, label := tensor.New(1, d, h, w), tensor.New(1, d, h, w)
		for i := range base.Data {
			base.Data[i] = float32(rng.NormFloat64())
			if rng.Float64() < 0.5 {
				label.Data[i] = 1
			}
		}
		images := map[string]func(img []float32){
			"finite": func([]float32) {},
			"signed zeros and subnormals": func(img []float32) {
				img[0], img[3], img[len(img)-1] = negZero, 1e-40, -1e-41
				for i := 5; i < len(img); i += 4 {
					img[i] = negZero
				}
			},
			"NaN": func(img []float32) { img[1] = float32(math.NaN()) },
			"Inf": func(img []float32) { img[2], img[len(img)-2] = float32(math.Inf(1)), float32(math.Inf(-1)) },
		}
		for _, net := range []*Network{random, zeroed} {
			plan := net.newTrainPlan()
			plan.pack(net)
			ts, ref := net.newTrainScratch(plan), newPlanarScratch(net)
			got, want := make([]float32, len(net.params)), make([]float32, len(net.params))
			for imgName, edit := range images {
				img := tensor.New(1, d, h, w)
				copy(img.Data, base.Data)
				edit(img.Data)
				for _, workers := range []int{1, 2, 8} {
					parallel.SetWorkers(workers)
					lossGot := net.exampleGrad(ts, img, label, got)
					lossWant := net.planarExampleGrad(ref, img, label, want)
					if math.Float64bits(lossGot) != math.Float64bits(lossWant) {
						t.Fatalf("%s, %s image, %d workers: loss %v, planar %v", name, imgName, workers, lossGot, lossWant)
					}
					for i := range want {
						if !same(got[i], want[i]) {
							t.Fatalf("%s, %s image, %d workers: gradient[%d] = %v (%#x), planar %v (%#x)",
								name, imgName, workers, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
						}
					}
				}
			}
			ts.release()
			ref.release()
			plan.release()
		}
	}
}

// zeroChannel sets every weight and the bias of feature c of the input
// layer and of each module's hidden layer to z, so that those
// pre-activations are exactly z wherever the inputs are finite.
func zeroChannel(n *Network, c int, z float32) {
	f := n.cfg.Features
	fill(n.wIn.Data[c*2*27:][:2*27], z)
	n.bIn[c] = z
	for _, m := range n.mods {
		fill(m.w1.Data[c*f*27:][:f*27], z)
		m.b1[c] = z
	}
}

// addInto accumulates src into dst elementwise.
func addInto(dst, src *tensor.Tensor) {
	for i := range dst.Data {
		dst.Data[i] += src.Data[i]
	}
}
