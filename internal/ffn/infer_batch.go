package ffn

import (
	"context"

	"chaseci/internal/parallel"
	"chaseci/internal/tensor"
)

// Batched flood-fill inference. A flood lane takes up to DefaultFloodBatch
// ready FOV centers from the frontier and pushes them through the forward
// pass together. Because every application's output depends only on the
// image and the center — never on the mask or on other in-flight
// applications — batching any subset of ready positions, on any lane,
// produces bit-exact masks and statistics (the claimed set stays the
// multi-source closure, and the core merge is an order-independent OR of
// bits).
//
// The forward pass runs on tensor's channel-lane engine
// (tensor.ConvLanes33ReLU): each slot's activations stay in zero-padded,
// channel-blocked buffers that every layer writes straight into, and each
// layer is evaluated only where a later layer or the flood reads it. The
// flood reads the logits of the merged core and of the six move targets
// (Config.floodReads); walking the layers backwards, each 3x3x3 layer
// computes the dilation of the next one's positions (readSpans).
//
// A flood runs the engine at one of two widths (floodWidth): one slot per
// buffer, or, where the 16-lane AVX-512F kernel runs and a batch can hold
// more than one FOV, two slots interleaved in each buffer
// (tensor.ConvLanes33ReLUx2), so one vector instruction serves two FOVs.
// Either way a slot's logits are the bits it gets alone. One
// parallel.Invoke per batch fans the buffers out, each running every
// layer.

// DefaultFloodBatch is how many ready FOV positions a flood lane pushes
// through the batched forward path per dispatch.
const DefaultFloodBatch = 8

// floodPlan is what every lane of one flood reads besides the image: the
// flood's width, the 3x3x3 layers' weights in lane form
// (tensor.PackLaneWeights33: the input layer's, then each module's two;
// paired, tensor.PairLaneWeights, at width 2) and the read spans, all
// borrowed from the free list once per Flood and never kept on the Network
// — so a trainer's step has nothing to invalidate.
type floodPlan struct {
	w     []float32
	spans []int32 // readSpans
	width int     // batch slots per buffer, 1 or 2 (floodWidth)
}

// newFloodPlan builds the plan of a flood at width.
func (n *Network) newFloodPlan(width int) floodPlan {
	wIn, wMod := n.cfg.laneWeightLens()
	p := floodPlan{
		w:     tensor.GetFloats(width * (wIn + 2*len(n.mods)*wMod)),
		spans: tensor.GetInt32s(n.cfg.readSpansLen()),
		width: width,
	}
	n.packLaneWeights(p.w)
	if width == 2 {
		tensor.PairLaneWeights(p.w)
	}
	n.cfg.readSpans(p.spans)
	return p
}

func (p *floodPlan) release() {
	tensor.PutFloats(p.w)
	tensor.PutInt32s(p.spans)
	p.w, p.spans = nil, nil
}

// floodWidth is the width of a flood with budget (0: none): two slots per
// buffer where the paired AVX-512F kernel runs and a batch can hold more
// than one FOV, else one. A lone FOV runs slower in a 16-lane vector than
// in an 8-lane one, so a one-step flood keeps width 1, as does every host
// without AVX-512F.
func floodWidth(budget int) int {
	if forceWidth != 0 {
		return forceWidth
	}
	if budget != 1 && tensor.PairedLanesActive() {
		return 2
	}
	return 1
}

// forceWidth, when nonzero, is every flood's width: the tests run both
// widths on any host, the Go twin serving width 2 where the AVX-512F kernel
// does not run.
var forceWidth int

// readSpansLen is the length of readSpans' output: a [lo, hi) pair per FOV
// row (z, y) for each depth 0 (the logits) through 2*Modules+1 (the input
// layer).
func (cfg *Config) readSpansLen() int {
	return (2*cfg.Modules + 2) * 2 * cfg.FOV[0] * cfg.FOV[1]
}

// readSpans writes, for each depth k, the x interval of every FOV row that
// the layer k layers before the logits must compute: at depth 0 the hull of
// floodReads' positions in each row; at depth 1, the last 3x3x3 layer, the
// same, since the 1x1x1 logit layer reads it at its own positions; and at
// depth k+1 the dilation of depth k by one position on every axis, since a
// 3x3x3 layer reads its input at its own positions' neighbours, clipped to
// the FOV and kept as one hull interval per row. So every position a layer
// reads was computed. An empty row is [0, 0).
func (cfg *Config) readSpans(spans []int32) {
	d, h, w := cfg.FOV[0], cfg.FOV[1], cfg.FOV[2]
	rows := 2 * d * h
	spans = spans[:cfg.readSpansLen()]
	for i := 0; i < len(spans); i += 2 {
		spans[i], spans[i+1] = int32(w), 0 // empty until widened
	}
	widen := func(s []int32, z, y, lo, hi int) {
		r := 2 * (z*h + y)
		s[r], s[r+1] = min(s[r], int32(lo)), max(s[r+1], int32(hi))
	}
	core, moves := cfg.floodReads()
	for z := core.lo[0]; z < core.hi[0]; z++ {
		for y := core.lo[1]; y < core.hi[1]; y++ {
			widen(spans, z, y, core.lo[2], core.hi[2])
		}
	}
	for _, t := range moves {
		widen(spans, t[0], t[1], t[2], t[2]+1)
	}
	// The 1x1x1 logit layer reads the last conv at its own positions.
	copy(spans[rows:][:rows], spans[:rows])
	for k := 2; k*rows < len(spans); k++ {
		prev, next := spans[(k-1)*rows:][:rows], spans[k*rows:][:rows]
		for z := 0; z < d; z++ {
			for y := 0; y < h; y++ {
				r := 2 * (z*h + y)
				if prev[r] >= prev[r+1] {
					continue
				}
				lo, hi := max(int(prev[r])-1, 0), min(int(prev[r+1])+1, w)
				for nz := max(z-1, 0); nz <= min(z+1, d-1); nz++ {
					for ny := max(y-1, 0); ny <= min(y+1, h-1); ny++ {
						widen(next, nz, ny, lo, hi)
					}
				}
			}
		}
	}
	for i := 0; i < len(spans); i += 2 {
		if spans[i] >= spans[i+1] {
			spans[i], spans[i+1] = 0, 0
		}
	}
}

// floodWork counts one application's conv work at cfg's geometry: the
// multiply-adds whose products reach a computed output channel (the logit
// layer's included), and the vector multiply-adds the channel-lane engine
// issues for the 3x3x3 layers at width, whose lanes past Features idle:
// 8-lane vectors at width 1, and half as many 16-lane ones at width 2,
// each serving two applications.
func (cfg *Config) floodWork(width int) (macs, vectors int) {
	spans := make([]int32, cfg.readSpansLen())
	cfg.readSpans(spans)
	rows := 2 * cfg.FOV[0] * cfg.FOV[1]
	positions := func(depth int) (p int) {
		s := spans[depth*rows:][:rows]
		for r := 0; r < rows; r += 2 {
			p += int(s[r+1] - s[r])
		}
		return p
	}
	f := cfg.Features
	groups := tensor.LaneChannels(f) / 8
	last := 2*cfg.Modules + 1 // the input layer's depth
	for depth := last; depth >= 1; depth-- {
		cin := f
		if depth == last {
			cin = 2
		}
		macs += positions(depth) * f * cin * 27
		vectors += positions(depth) * groups * cin * 27
	}
	return macs + positions(0)*f, vectors / width
}

// floodLayouts are the flood's Blocked layouts at width (batch slots per
// buffer): the input, image and seed POM per position and slot, and the
// activations, Features rounded up to whole vectors per slot. Channel c of
// slot s is at float width*c+s of a position, so width 1 is one slot's
// layout and a buffer at width 2 is as long as two at width 1.
func (cfg *Config) floodLayouts(width int) (in, act tensor.Blocked) {
	d, h, w := cfg.FOV[0], cfg.FOV[1], cfg.FOV[2]
	return tensor.Blocked{D: d, H: h, W: w, C: 2 * width},
		tensor.Blocked{D: d, H: h, W: w, C: width * tensor.LaneChannels(cfg.Features)}
}

// batchScratch holds one flood worker's reusable batched buffers for
// DefaultFloodBatch slots: the packed input, ping-pong activations and the
// module hidden buffer, DefaultFloodBatch/width Blocked buffers each
// (floodLayouts at the plan's width; slot i is lane i%width of buffer
// i/width), and the output logits, one dense (D, H, W) FOV per slot,
// computed only where the flood reads them. The buffers are borrowed from
// the shared free list and returned when the flood ends, never kept on the
// Network: one Network serves concurrent floods (the service shares one per
// set of weights), and a steady stream of jobs allocates none of them.
// Their lengths do not depend on the width.
type batchScratch struct {
	in     []float32 // packed image + POM
	x0, x1 []float32 // activations (ping-pong)
	hid    []float32 // module hidden
	out    []float32 // output logits
	pos    []fovPos  // live batch positions

	net   *Network
	plan  floodPlan // the flood's width, lane weights and read spans
	ready int       // leading buffers whose padding shells and seed POM are in place
}

// getBatchScratch borrows a scratch for one flood worker of a flood with
// plan. The buffers arrive dirty: a buffer's padding shells and the seed
// POM lanes of its input are written the first time the flood uses it
// (forwardBatchInto), the flood writes each batch's image lanes, and the
// layers write the rest of what they read.
func (n *Network) getBatchScratch(plan floodPlan) *batchScratch {
	const B = DefaultFloodBatch
	bufs := B / plan.width
	li, lx := n.cfg.floodLayouts(plan.width)
	fov := n.cfg.FOV
	return &batchScratch{
		in:  tensor.GetFloats(bufs * li.Len()),
		x0:  tensor.GetFloats(bufs * lx.Len()),
		x1:  tensor.GetFloats(bufs * lx.Len()),
		hid: tensor.GetFloats(bufs * lx.Len()),
		out: tensor.GetFloats(B * fov[0] * fov[1] * fov[2]),
		pos: make([]fovPos, 0, B), net: n, plan: plan,
	}
}

func (n *Network) putBatchScratch(s *batchScratch) {
	for _, b := range [5]*[]float32{&s.in, &s.x0, &s.x1, &s.hid, &s.out} {
		tensor.PutFloats(*b)
		*b = nil
	}
}

// slot returns Blocked buffer b of one of the scratch's batched buffers.
func slot(buf []float32, lay tensor.Blocked, b int) []float32 {
	return buf[b*lay.Len():][:lay.Len()]
}

// extract copies the FOV centered at p, read through m, into the image
// lane of batch slot i.
func (s *batchScratch) extract(i int, image *Volume, m Moments, p fovPos) {
	w := s.plan.width
	li, _ := s.net.cfg.floodLayouts(w)
	extractFOVBlocked(slot(s.in, li, i/w)[i%w:], li, image, m, p.z, p.y, p.x)
}

// extractFOVBlocked copies the FOV centered at (cz, cy, cx) into the image
// lane (channel 0) of the slot dst starts at, in a Blocked input of layout
// lay, conditioning each voxel with m as it goes: the slot holds what
// NormalizeInto-then-copy would put there, bit for bit, and no conditioned
// volume is written.
func extractFOVBlocked(dst []float32, lay tensor.Blocked, v *Volume, m Moments, cz, cy, cx int) {
	z0, y0, x0 := cz-lay.D/2, cy-lay.H/2, cx-lay.W/2
	for z := 0; z < lay.D; z++ {
		for y := 0; y < lay.H; y++ {
			src := v.Data[((z0+z)*v.H+y0+y)*v.W+x0:][:lay.W]
			row := dst[lay.Pos(z, y, 0):]
			for x, val := range src {
				row[x*lay.C] = m.Apply(val)
			}
		}
	}
}

// prepareSlot writes buffer b's padding shells and the seed POM lanes of
// its input: what no layer and no extract writes.
func (s *batchScratch) prepareSlot(b int) {
	cfg := &s.net.cfg
	li, lx := cfg.floodLayouts(s.plan.width)
	in := slot(s.in, li, b)
	li.ClearShell(in)
	for _, buf := range [3][]float32{s.x0, s.x1, s.hid} {
		lx.ClearShell(slot(buf, lx, b))
	}
	cfg.fillSeedPOMLane(in, li, s.plan.width)
}

// fillSeedPOMLane writes the seed POM into the POM lane (channel 1) of
// every slot of a Blocked input at width: PadProb's logit everywhere,
// SeedProb's at the center.
func (cfg *Config) fillSeedPOMLane(in []float32, li tensor.Blocked, width int) {
	pad := logit(cfg.PadProb)
	for z := 0; z < li.D; z++ {
		for y := 0; y < li.H; y++ {
			row := in[li.Pos(z, y, 0):]
			for x := 0; x < li.W; x++ {
				for s := range width {
					row[x*li.C+width+s] = pad
				}
			}
		}
	}
	for s := range width {
		in[li.Pos(li.D/2, li.H/2, li.W/2)+width+s] = logit(cfg.SeedProb)
	}
}

// forwardBatchInto runs the forward pass over the first k batch slots
// (each slot's image lane already extracted): one parallel.Invoke over the
// ceil(k/width) buffers they occupy, each running every layer (Run). The
// logits land in s.out at the positions floodReads lists, bit-exact with
// the planar forward pass per slot there (the tests' forwardInto); the rest
// of s.out is not written.
//
// A slot past k in the last buffer gets the image of that buffer's slot 0
// again: its lanes then compute on defined data — never on leftover
// free-list bytes, whose denormals would stall the FPU — that leaks into no
// other lane, and nothing reads the logits it writes.
func (n *Network) forwardBatchInto(s *batchScratch, k int) {
	w := s.plan.width
	bufs := (k + w - 1) / w
	for ; s.ready < bufs; s.ready++ {
		s.prepareSlot(s.ready)
	}
	if k%w != 0 {
		li, _ := n.cfg.floodLayouts(w)
		in := slot(s.in, li, k/w)
		for z := 0; z < li.D; z++ {
			for y := 0; y < li.H; y++ {
				row := in[li.Pos(z, y, 0):][:li.W*li.C]
				for p := 0; p < len(row); p += li.C {
					for l := k % w; l < w; l++ {
						row[p+l] = row[p]
					}
				}
			}
		}
	}
	parallel.Invoke(bufs, s)
}

// Run is the forward pass of buffers [start, end): conv+ReLU for the
// input layer and each module's hidden layer, conv+residual+ReLU for each
// module's tail, each at its depth's read spans, then the 1x1x1 logit layer
// at depth 0 for each slot.
func (s *batchScratch) Run(start, end int) {
	n := s.net
	cfg := &n.cfg
	f := cfg.Features
	width := s.plan.width
	li, lx := cfg.floodLayouts(width)
	wIn, wMod := cfg.laneWeightLens()
	wIn, wMod = width*wIn, width*wMod
	conv := tensor.ConvLanes33ReLU
	if width == 2 {
		conv = tensor.ConvLanes33ReLUx2
	}
	rows := 2 * cfg.FOV[0] * cfg.FOV[1]
	at := func(depth int) []int32 { return s.plan.spans[depth*rows:][:rows] }
	fovN := cfg.FOV[0] * cfg.FOV[1] * cfg.FOV[2]
	for b := start; b < end; b++ {
		cur, nxt, hid := slot(s.x0, lx, b), slot(s.x1, lx, b), slot(s.hid, lx, b)
		depth := 2*len(n.mods) + 1
		conv(cur, lx, slot(s.in, li, b), li, 2, s.plan.w[:wIn], nil, at(depth))
		w := s.plan.w[wIn:]
		for range n.mods {
			conv(hid, lx, cur, lx, f, w[:wMod], nil, at(depth-1))
			conv(nxt, lx, hid, lx, f, w[wMod:2*wMod], cur, at(depth-2))
			w, depth = w[2*wMod:], depth-2
			cur, nxt = nxt, cur
		}
		for l := range width {
			i := b*width + l
			n.logitsAt(s.out[i*fovN:][:fovN], cur[l:], lx, width, at(0))
		}
	}
}

// logitsAt evaluates the 1x1x1 logit layer at the positions spans lists,
// into a dense (D, H, W) slot: the bias, then each feature's product in
// feature order, each rounded on its own — the scalar conv's sequence. act
// starts at the slot's channel 0 in a buffer of layout lay at width, so a
// feature is width floats from the next.
func (n *Network) logitsAt(out, act []float32, lay tensor.Blocked, width int, spans []int32) {
	wOut, bOut := n.wOut.Data, n.bOut[0]
	for r := 0; r < lay.D*lay.H; r++ {
		z, y := r/lay.H, r%lay.H
		for x := int(spans[2*r]); x < int(spans[2*r+1]); x++ {
			a := act[lay.Pos(z, y, x):]
			v := bOut
			for c, wv := range wOut {
				v += float32(wv * a[width*c])
			}
			out[r*lay.W+x] = v
		}
	}
}

// floodRun is what every lane of one flood shares: the raw image and the
// moments each FOV is read through, the frontier, the claimed set, the mask
// the lanes OR their cores into, the plan, the move and segment thresholds
// as logits, and the progress counter (nil: none).
type floodRun struct {
	image               *Volume
	m                   Moments
	fr                  *frontier
	claimed             visitedSet
	mask                []uint32
	plan                floodPlan
	moveLogit, segLogit float32
	prog                *floodProgress
}

// flood is the flood-fill loop under every Flood call, run by each lane of
// a flood: it takes batches of up to DefaultFloodBatch FOV positions from
// the frontier, claims the centers they move to through the (possibly
// shared) atomic visited set, gives those back to the frontier, and ORs each
// output core into the shared mask (mergeCore). Each application is
// conditioned on a fresh seed POM (the scratch's constant POM lane), the
// input distribution the network was trained on; the mask only aggregates
// across FOVs — the single-step simplification of FFN's recurrent POM.
//
// With budget > 0 (one lane, a first-in-first-out frontier) at most budget
// applications run, and each batch is the oldest queued centers, expanded in
// queue order: the claim sequence, and so which applications spend the
// budget, is that of a one-at-a-time FIFO. Without a budget the result is
// order-independent and batches come off the back of the frontier, which
// keeps it short. Cancellation is checked before every batch.
func (n *Network) flood(ctx context.Context, run *floodRun, budget int, stats *InferenceStats) {
	cfg := n.cfg
	s := n.getBatchScratch(run.plan)
	defer n.putBatchScratch(s)
	image, fr := run.image, run.fr
	fov := cfg.FOV
	fovN := fov[0] * fov[1] * fov[2]
	offsets := cfg.moveOffsets()
	core, moves := cfg.floodReads()
	var claims [6 * DefaultFloodBatch]fovPos // what one batch can claim; give copies it
	for {
		limit := DefaultFloodBatch
		if budget > 0 {
			limit = min(limit, budget-stats.Steps)
		}
		s.pos = fr.take(ctx, s.pos, limit)
		k := len(s.pos)
		if k == 0 {
			return
		}
		for i, p := range s.pos {
			s.extract(i, image, run.m, p)
		}
		n.forwardBatchInto(s, k)
		fresh := claims[:0]
		for i, p := range s.pos {
			out := s.out[i*fovN:][:fovN]
			mergeCore(run.mask, image.H, image.W, fov, core, out, run.segLogit, p.z, p.y, p.x)
			stats.Steps++
			run.prog.bump()
			for j, t := range moves {
				if out[(t[0]*fov[1]+t[1])*fov[2]+t[2]] < run.moveLogit {
					continue
				}
				off := offsets[j]
				nz, ny, nx := p.z+off[0], p.y+off[1], p.x+off[2]
				if !cfg.fovInBounds(image, nz, ny, nx) {
					continue
				}
				key := (nz*image.H+ny)*image.W + nx
				if !run.claimed.claimAtomic(key) {
					continue
				}
				fresh = append(fresh, fovPos{nz, ny, nx})
				stats.Moves++
			}
		}
		fr.give(fresh)
	}
}
