package ffn

import (
	"context"

	"chaseci/internal/parallel"
	"chaseci/internal/tensor"
)

// Batched flood-fill inference. A flood lane takes up to DefaultFloodBatch
// ready FOV centers from the frontier and pushes them through the forward
// pass together. Because every application's output depends only on the
// image and the center — never on the canvas or on other in-flight
// applications — batching any subset of ready positions, on any lane,
// produces bit-exact masks and statistics (the claimed set stays the
// multi-source closure, and the canvas merge is an order-independent
// element-wise max).
//
// The forward pass runs on tensor's channel-lane engine
// (tensor.ConvLanes33ReLU): each slot's activations stay in zero-padded,
// channel-blocked buffers that every layer writes straight into, and each
// layer is evaluated only where a later layer or the flood reads it. The
// flood reads the logits of the merged core and of the six move targets
// (Config.floodReads); walking the layers backwards, each 3x3x3 layer
// computes the dilation of the next one's positions (readSpans). One
// parallel.Invoke per batch fans the slots out, each slot running every
// layer.

// DefaultFloodBatch is how many ready FOV positions a flood lane pushes
// through the batched forward path per dispatch.
const DefaultFloodBatch = 8

// floodPlan is what every lane of one flood reads besides the image:
// the 3x3x3 layers' weights in lane form (tensor.PackLaneWeights33: the
// input layer's, then each module's two) and the read spans, all borrowed
// from the free list once per SegmentCtx and never kept on the Network —
// so a trainer's step has nothing to invalidate.
type floodPlan struct {
	w     []float32
	spans []int32 // readSpans
}

// newFloodPlan builds the plan of a flood.
func (n *Network) newFloodPlan() floodPlan {
	f := n.cfg.Features
	wIn, wMod := tensor.LaneWeights33Len(f, 2), tensor.LaneWeights33Len(f, f)
	p := floodPlan{
		w:     tensor.GetFloats(wIn + 2*len(n.mods)*wMod),
		spans: tensor.GetInt32s(n.cfg.readSpansLen()),
	}
	tensor.PackLaneWeights33(p.w, n.wIn, n.bIn)
	rest := p.w[wIn:]
	for _, m := range n.mods {
		tensor.PackLaneWeights33(rest, m.w1, m.b1)
		tensor.PackLaneWeights33(rest[wMod:], m.w2, m.b2)
		rest = rest[2*wMod:]
	}
	n.cfg.readSpans(p.spans)
	return p
}

func (p *floodPlan) release() {
	tensor.PutFloats(p.w)
	tensor.PutInt32s(p.spans)
	p.w, p.spans = nil, nil
}

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
// layer's included), and the 8-lane vector multiply-adds the channel-lane
// engine issues for the 3x3x3 layers, whose lanes past Features idle.
func (cfg *Config) floodWork() (macs, vectors int) {
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
	return macs + positions(0)*f, vectors
}

// floodLayouts are the flood's Blocked layouts: the input, image and
// seed POM per position, and the activations, Features rounded up to whole
// vectors.
func (cfg *Config) floodLayouts() (in, act tensor.Blocked) {
	d, h, w := cfg.FOV[0], cfg.FOV[1], cfg.FOV[2]
	return tensor.Blocked{D: d, H: h, W: w, C: 2}, tensor.Blocked{D: d, H: h, W: w, C: tensor.LaneChannels(cfg.Features)}
}

// batchScratch holds one flood worker's reusable batched buffers,
// DefaultFloodBatch slots each: the packed input, ping-pong activations and
// the module hidden buffer, one Blocked buffer (floodLayouts) per slot, and
// the output logits, one dense (D, H, W) FOV per slot, computed only where
// the flood reads them. The buffers are borrowed from the shared free list
// and returned when the flood ends, never kept on the Network: one Network
// serves concurrent floods (the service shares one per set of weights), and
// a steady stream of jobs allocates none of them.
type batchScratch struct {
	in     []float32 // packed image + POM
	x0, x1 []float32 // activations (ping-pong)
	hid    []float32 // module hidden
	out    []float32 // output logits
	pos    []fovPos  // live batch positions

	net   *Network
	plan  floodPlan // the flood's lane weights and read spans
	ready int       // leading slots whose padding shells and seed POM are in place
}

// getBatchScratch borrows a scratch for one flood worker of a flood with
// plan. The buffers arrive dirty: a slot's padding shells and the seed POM
// lane of its input are written the first time the flood uses the slot
// (forwardBatchInto), the flood writes each batch's image lane, and the
// layers write the rest of what they read.
func (n *Network) getBatchScratch(plan floodPlan) *batchScratch {
	const B = DefaultFloodBatch
	li, lx := n.cfg.floodLayouts()
	fov := n.cfg.FOV
	return &batchScratch{
		in:  tensor.GetFloats(B * li.Len()),
		x0:  tensor.GetFloats(B * lx.Len()),
		x1:  tensor.GetFloats(B * lx.Len()),
		hid: tensor.GetFloats(B * lx.Len()),
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

// slot returns slot b's share of one of the scratch's Blocked buffers.
func slot(buf []float32, lay tensor.Blocked, b int) []float32 {
	return buf[b*lay.Len():][:lay.Len()]
}

// extractFOVBlocked copies the FOV centered at (cz, cy, cx) into the image
// lane (channel 0) of a Blocked input slot.
func extractFOVBlocked(dst []float32, lay tensor.Blocked, v *Volume, cz, cy, cx int) {
	z0, y0, x0 := cz-lay.D/2, cy-lay.H/2, cx-lay.W/2
	for z := 0; z < lay.D; z++ {
		for y := 0; y < lay.H; y++ {
			src := v.Data[((z0+z)*v.H+y0+y)*v.W+x0:][:lay.W]
			row := dst[lay.Pos(z, y, 0):]
			for x, val := range src {
				row[x*lay.C] = val
			}
		}
	}
}

// prepareSlot writes slot b's padding shells and the seed POM lane of its
// input: what no layer and no extract writes.
func (s *batchScratch) prepareSlot(b int) {
	cfg := &s.net.cfg
	li, lx := cfg.floodLayouts()
	in := slot(s.in, li, b)
	li.ClearShell(in)
	for _, buf := range [3][]float32{s.x0, s.x1, s.hid} {
		lx.ClearShell(slot(buf, lx, b))
	}
	pad := logit(cfg.PadProb)
	for z := 0; z < li.D; z++ {
		for y := 0; y < li.H; y++ {
			row := in[li.Pos(z, y, 0):]
			for x := 0; x < li.W; x++ {
				row[x*li.C+1] = pad
			}
		}
	}
	in[li.Pos(li.D/2, li.H/2, li.W/2)+1] = logit(cfg.SeedProb)
}

// forwardBatchInto runs the forward pass over the first k batch slots
// (each slot's image lane already extracted): one parallel.Invoke over the
// slots, each running every layer (Run). The logits land in s.out at the
// positions floodReads lists, bit-exact with forwardInto per slot there;
// the rest of s.out is not written.
func (n *Network) forwardBatchInto(s *batchScratch, k int) {
	for ; s.ready < k; s.ready++ {
		s.prepareSlot(s.ready)
	}
	parallel.Invoke(k, s)
}

// Run is the forward pass of slots [start, end): conv+ReLU for the
// input layer and each module's hidden layer, conv+residual+ReLU for each
// module's tail, each at its depth's read spans, then the 1x1x1 logit layer
// at depth 0.
func (s *batchScratch) Run(start, end int) {
	n := s.net
	cfg := &n.cfg
	f := cfg.Features
	li, lx := cfg.floodLayouts()
	wIn, wMod := tensor.LaneWeights33Len(f, 2), tensor.LaneWeights33Len(f, f)
	rows := 2 * cfg.FOV[0] * cfg.FOV[1]
	at := func(depth int) []int32 { return s.plan.spans[depth*rows:][:rows] }
	fovN := cfg.FOV[0] * cfg.FOV[1] * cfg.FOV[2]
	for b := start; b < end; b++ {
		cur, nxt, hid := slot(s.x0, lx, b), slot(s.x1, lx, b), slot(s.hid, lx, b)
		depth := 2*len(n.mods) + 1
		tensor.ConvLanes33ReLU(cur, lx, slot(s.in, li, b), li, 2, s.plan.w[:wIn], nil, at(depth))
		w := s.plan.w[wIn:]
		for range n.mods {
			tensor.ConvLanes33ReLU(hid, lx, cur, lx, f, w[:wMod], nil, at(depth-1))
			tensor.ConvLanes33ReLU(nxt, lx, hid, lx, f, w[wMod:2*wMod], cur, at(depth-2))
			w, depth = w[2*wMod:], depth-2
			cur, nxt = nxt, cur
		}
		n.logitsAt(s.out[b*fovN:][:fovN], cur, lx, at(0))
	}
}

// logitsAt evaluates the 1x1x1 logit layer at the positions spans lists,
// into a dense (D, H, W) slot: the bias, then each feature's product in
// feature order, each rounded on its own — the scalar conv's sequence.
func (n *Network) logitsAt(out, act []float32, lay tensor.Blocked, spans []int32) {
	wOut, bOut := n.wOut.Data, n.bOut[0]
	for r := 0; r < lay.D*lay.H; r++ {
		z, y := r/lay.H, r%lay.H
		for x := int(spans[2*r]); x < int(spans[2*r+1]); x++ {
			a := act[lay.Pos(z, y, x):][:len(wOut)]
			v := bOut
			for c, wv := range wOut {
				v += float32(wv * a[c])
			}
			out[r*lay.W+x] = v
		}
	}
}

// flood is the flood-fill loop under every Segment call, run by each lane
// of a flood: it takes batches of up to DefaultFloodBatch FOV positions from
// the frontier, claims the centers they move to through the (possibly
// shared) atomic visited set, gives those back to the frontier, and
// max-merges output cores into canvas — lane-private under the multi-lane
// flood, the result canvas otherwise. Each application is conditioned on a
// fresh seed POM (the scratch's constant POM lane), the input
// distribution the network was trained on; the canvas is only the
// aggregation buffer across FOVs — the single-step simplification of FFN's
// recurrent POM.
//
// With budget > 0 (one lane, a first-in-first-out frontier) at most budget
// applications run, and each batch is the oldest queued centers, expanded in
// queue order: the claim sequence, and so which applications spend the
// budget, is that of a one-at-a-time FIFO. Without a budget the result is
// order-independent and batches come off the back of the frontier, which
// keeps it short. Cancellation is checked before every batch.
func (n *Network) flood(ctx context.Context, image *Volume, fr *frontier, claimed visitedSet, canvas []float32, plan floodPlan, moveLogit float32, budget int, stats *InferenceStats, prog *floodProgress) {
	cfg := n.cfg
	s := n.getBatchScratch(plan)
	defer n.putBatchScratch(s)
	fov := cfg.FOV
	fovN := fov[0] * fov[1] * fov[2]
	li, _ := cfg.floodLayouts()
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
			extractFOVBlocked(slot(s.in, li, i), li, image, p.z, p.y, p.x)
		}
		n.forwardBatchInto(s, k)
		fresh := claims[:0]
		for i, p := range s.pos {
			out := s.out[i*fovN:][:fovN]
			mergeCore(canvas, image.H, image.W, fov, core, out, p.z, p.y, p.x)
			stats.Steps++
			prog.bump()
			for j, t := range moves {
				if out[(t[0]*fov[1]+t[1])*fov[2]+t[2]] < moveLogit {
					continue
				}
				off := offsets[j]
				nz, ny, nx := p.z+off[0], p.y+off[1], p.x+off[2]
				if !cfg.fovInBounds(image, nz, ny, nx) {
					continue
				}
				key := (nz*image.H+ny)*image.W + nx
				if !claimed.claimAtomic(key) {
					continue
				}
				fresh = append(fresh, fovPos{nz, ny, nx})
				stats.Moves++
			}
		}
		fr.give(fresh)
	}
}
