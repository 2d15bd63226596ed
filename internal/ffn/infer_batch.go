package ffn

import (
	"context"

	"chaseci/internal/tensor"
)

// Batched flood-fill inference. A flood lane takes up to DefaultFloodBatch
// ready FOV centers from the frontier and pushes them through the batched
// forward path in one dispatch: the shared weights are streamed from memory
// once per batch rather than once per application, and the fused conv
// epilogues (tensor.Conv3DBatchReLUInto / Conv3DBatchResReLUInto) fold each
// layer's activation and residual into the conv output write.
// Because every application's output depends only on the image and the
// center — never on the canvas or on other in-flight applications —
// batching any subset of ready positions, on any lane, produces bit-exact
// masks and statistics (the claimed set stays the multi-source closure, and
// the canvas merge is an order-independent element-wise max).

// DefaultFloodBatch is how many ready FOV positions a flood lane pushes
// through the batched forward path per dispatch.
const DefaultFloodBatch = 8

// batchScratch holds one flood worker's reusable batched buffers: the
// packed (B,2,D,H,W) input, ping-pong activation tensors, the module hidden
// buffer, and the output logits. The tensors are borrowed from the shared
// free list and returned when the flood ends, never kept on the Network:
// one Network serves concurrent floods (the service shares one per set of
// weights), and a steady stream of jobs allocates none of them.
type batchScratch struct {
	in     *tensor.Tensor // (B, 2, D, H, W) packed image+POM
	x0, x1 *tensor.Tensor // (B, F, D, H, W) activations (ping-pong)
	hid    *tensor.Tensor // (B, F, D, H, W) module hidden
	out    *tensor.Tensor // (B, 1, D, H, W) output logits
	pos    []fovPos       // live batch positions

	// The five tensors' headers and shapes live in the scratch itself, so
	// borrowing one costs a flood worker two small allocations, not twelve.
	hdr  [5]tensor.Tensor
	dims [5][5]int
}

// getBatchScratch borrows a scratch for one flood worker. The buffers
// arrive dirty: the forward pass overwrites every activation it reads, the
// flood writes each live slot's image channel, and the POM channel of every
// slot — the constant seed POM — is filled here, once per flood.
func (n *Network) getBatchScratch() *batchScratch {
	const B = DefaultFloodBatch
	f := n.cfg.Features
	d, h, w := n.cfg.FOV[0], n.cfg.FOV[1], n.cfg.FOV[2]
	fovN := d * h * w
	s := &batchScratch{pos: make([]fovPos, 0, B)}
	for i, channels := range [5]int{2, f, f, f, 1} {
		s.dims[i] = [5]int{B, channels, d, h, w}
		s.hdr[i] = tensor.Tensor{Shape: s.dims[i][:], Data: tensor.GetFloats(B * channels * fovN)}
	}
	s.in, s.x0, s.x1, s.hid, s.out = &s.hdr[0], &s.hdr[1], &s.hdr[2], &s.hdr[3], &s.hdr[4]
	for b := 0; b < B; b++ {
		n.fillSeedPOM(s.in.Data[(2*b+1)*fovN : (2*b+2)*fovN])
	}
	return s
}

func (n *Network) putBatchScratch(s *batchScratch) {
	tensor.Release(s.in, s.x0, s.x1, s.hid, s.out)
}

// forwardBatchInto runs the inference-only forward pass over the first k
// batch slots with fused activations: conv+ReLU for the input layer and
// module hidden, conv+residual+ReLU for the module tail, plain conv for the
// final 1x1x1 logit layer (its bias epilogue is the logit itself). Results
// land in s.out and are bit-exact with forwardInto per slot.
func (n *Network) forwardBatchInto(s *batchScratch, k int) {
	tensor.Conv3DBatchReLUInto(s.x0, s.in, n.wIn, n.bIn, k)
	cur, nxt := s.x0, s.x1
	for _, m := range n.mods {
		tensor.Conv3DBatchReLUInto(s.hid, cur, m.w1, m.b1, k)
		tensor.Conv3DBatchResReLUInto(nxt, s.hid, m.w2, m.b2, cur, k)
		cur, nxt = nxt, cur
	}
	tensor.Conv3DBatchInto(s.out, cur, n.wOut, n.bOut, k)
}

// flood is the flood-fill loop under every Segment call, run by each lane
// of a flood: it takes batches of up to DefaultFloodBatch FOV positions from
// the frontier, claims the centers they move to through the (possibly
// shared) atomic visited set, gives those back to the frontier, and
// max-merges output cores into canvas — lane-private under the multi-lane
// flood, the result canvas otherwise. Each application is conditioned on a
// fresh seed POM (the scratch's constant POM channel), the input
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
func (n *Network) flood(ctx context.Context, image *Volume, fr *frontier, claimed visitedSet, canvas []float32, moveLogit float32, budget int, stats *InferenceStats, prog *floodProgress) {
	cfg := n.cfg
	s := n.getBatchScratch()
	defer n.putBatchScratch(s)
	fov := cfg.FOV
	fovN := fov[0] * fov[1] * fov[2]
	offsets := cfg.moveOffsets()
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
			extractFOVIntoSlice(s.in.Data[2*i*fovN:][:fovN], image, fov, p.z, p.y, p.x)
		}
		if n.int8Inference() {
			n.forwardBatchQInto(s, k)
		} else {
			n.forwardBatchInto(s, k)
		}
		fresh := claims[:0]
		for i, p := range s.pos {
			out := s.out.Data[i*fovN:][:fovN]
			mergeCore(canvas, image.H, image.W, fov, out, p.z, p.y, p.x)
			stats.Steps++
			prog.bump()
			for _, off := range offsets {
				fz := fov[0]/2 + off[0]
				fy := fov[1]/2 + off[1]
				fx := fov[2]/2 + off[2]
				if out[(fz*fov[1]+fy)*fov[2]+fx] < moveLogit {
					continue
				}
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
