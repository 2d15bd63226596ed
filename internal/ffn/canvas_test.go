package ffn

import (
	"context"
	"fmt"
	"math"
	"testing"

	"chaseci/internal/parallel"
	"chaseci/internal/tensor"
)

// The float-canvas flood the bit mask replaced, kept as its oracle: a
// whole-volume float32 canvas per flood, and one per lane under the
// multi-lane flood, max-merged and thresholded at the end. The bit flood
// must give its masks and statistics bit for bit.

// mergeCoreMax max-merges the core box of an output FOV centered at p into
// a float canvas: the merge the canvas flood ran per application.
func mergeCoreMax(canvas []float32, H, W int, fov [3]int, core fovBox, out []float32, pz, py, px int) {
	z0, y0, x0 := pz-fov[0]/2, py-fov[1]/2, px-fov[2]/2
	for z := core.lo[0]; z < core.hi[0]; z++ {
		for y := core.lo[1]; y < core.hi[1]; y++ {
			base := ((z0+z)*H + y0 + y) * W
			row := out[(z*fov[1]+y)*fov[2]:]
			for x := core.lo[2]; x < core.hi[2]; x++ {
				if v := row[x]; v > canvas[base+x0+x] {
					canvas[base+x0+x] = v
				}
			}
		}
	}
}

// canvasSegment floods image (already conditioned) onto a float canvas: it
// starts at PadProb's logit with each accepted seed at SeedProb's, the
// lanes max-merge their cores into it (the multi-lane flood into
// lane-private canvases, max-reduced into it afterwards), and it is
// thresholded at SegmentProb. The lane canvases start at -Inf, below every
// logit, where the flood this oracle preserves started them at PadProb's
// logit: with PadProb above SeedProb that overrode a seed's clamp, so a
// seed voxel's verdict depended on the worker count
// (TestSeedVoxelIndependentOfWorkers). It shares the frontier, the claimed
// set, extractFOVBlocked and the batched forward pass with the bit flood;
// not the merge, the mask or the threshold.
func canvasSegment(ctx context.Context, n *Network, image *Volume, seeds [][3]int, maxSteps int) (*Volume, InferenceStats) {
	cfg := n.cfg
	stats := InferenceStats{VoxelsTotal: image.Size()}
	keyOf := func(z, y, x int) int { return (z*image.H+y)*image.W + x }
	claimed := borrowVisited(image.Size())
	defer claimed.release()
	var accepted []fovPos
	for _, s := range seeds {
		if cfg.fovInBounds(image, s[0], s[1], s[2]) && claimed.claim(keyOf(s[0], s[1], s[2])) {
			accepted = append(accepted, fovPos{s[0], s[1], s[2]})
			stats.SeedsUsed++
		}
	}
	plan := n.newFloodPlan()
	defer plan.release()
	canvas := NewVolume(image.D, image.H, image.W)
	fill(canvas.Data, logit(cfg.PadProb))
	for _, s := range accepted {
		canvas.Data[keyOf(s.z, s.y, s.x)] = logit(cfg.SeedProb)
	}
	lanes := parallel.Chunks(len(accepted))
	if maxSteps > 0 {
		lanes = 1
	}
	fr := newFrontier(accepted, lanes, maxSteps > 0)
	if lanes <= 1 {
		canvasFlood(ctx, n, image, fr, claimed, canvas.Data, plan, maxSteps, &stats)
	} else {
		canvases := make([][]float32, lanes)
		laneStats := make([]InferenceStats, lanes)
		parallel.For(lanes, func(k0, k1 int) {
			defer fr.recoverLane()
			for k := k0; k < k1; k++ {
				wc := make([]float32, image.Size())
				fill(wc, float32(math.Inf(-1)))
				canvases[k] = wc
				canvasFlood(ctx, n, image, fr, claimed, wc, plan, 0, &laneStats[k])
			}
		})
		fr.reraise()
		for k, wc := range canvases {
			for i, v := range wc {
				if v > canvas.Data[i] {
					canvas.Data[i] = v
				}
			}
			stats.Steps += laneStats[k].Steps
			stats.Moves += laneStats[k].Moves
		}
	}
	segLogit := logit(cfg.SegmentProb)
	for i, v := range canvas.Data {
		canvas.Data[i] = 0
		if v >= segLogit {
			canvas.Data[i] = 1
			stats.MaskVoxels++
		}
	}
	return canvas, stats
}

// canvasFlood is one lane of canvasSegment: flood's loop, merging into a
// float canvas.
func canvasFlood(ctx context.Context, n *Network, image *Volume, fr *frontier, claimed visitedSet, canvas []float32, plan floodPlan, budget int, stats *InferenceStats) {
	cfg := n.cfg
	s := n.getBatchScratch(plan)
	defer n.putBatchScratch(s)
	fov := cfg.FOV
	fovN := fov[0] * fov[1] * fov[2]
	li, _ := cfg.floodLayouts()
	offsets := cfg.moveOffsets()
	core, moves := cfg.floodReads()
	moveLogit := logit(cfg.MoveProb)
	for {
		limit := DefaultFloodBatch
		if budget > 0 {
			limit = min(limit, budget-stats.Steps)
		}
		s.pos = fr.take(ctx, s.pos, limit)
		if len(s.pos) == 0 {
			return
		}
		for i, p := range s.pos {
			extractFOVBlocked(slot(s.in, li, i), li, image, Moments{0, 1}, p.z, p.y, p.x)
		}
		n.forwardBatchInto(s, len(s.pos))
		var fresh []fovPos
		for i, p := range s.pos {
			out := s.out[i*fovN:][:fovN]
			mergeCoreMax(canvas, image.H, image.W, fov, core, out, p.z, p.y, p.x)
			stats.Steps++
			for j, t := range moves {
				if out[(t[0]*fov[1]+t[1])*fov[2]+t[2]] < moveLogit {
					continue
				}
				off := offsets[j]
				nz, ny, nx := p.z+off[0], p.y+off[1], p.x+off[2]
				if cfg.fovInBounds(image, nz, ny, nx) && claimed.claimAtomic((nz*image.H+ny)*image.W+nx) {
					fresh = append(fresh, fovPos{nz, ny, nx})
					stats.Moves++
				}
			}
		}
		fr.give(fresh)
	}
}

// checkMaskBits fails unless mask holds want's 0/1 voxels as bits, with
// every bit past the voxel count zero.
func checkMaskBits(t *testing.T, mask Mask, want *Volume) {
	t.Helper()
	n := want.Size()
	if mask.D != want.D || mask.H != want.H || mask.W != want.W || len(mask.Words) != (n+31)/32 {
		t.Fatalf("mask %dx%dx%d in %d words, want %dx%dx%d in %d", mask.D, mask.H, mask.W, len(mask.Words), want.D, want.H, want.W, (n+31)/32)
	}
	for i, v := range want.Data {
		if got := mask.Words[i>>5] >> (i & 31) & 1; got != uint32(v) {
			t.Fatalf("voxel %d: bit %d, oracle %v", i, got, v)
		}
	}
	if rem := n % 32; rem != 0 && mask.Words[len(mask.Words)-1]>>rem != 0 {
		t.Fatalf("bits past voxel %d are set: %#x", n, mask.Words[len(mask.Words)-1])
	}
}

// oracleScene is a flood scene the bit flood is held to the canvas oracle
// on: floodScenes, plus one whose SegmentProb is below PadProb (every voxel
// is in the mask) and one whose voxel count is not a multiple of 32.
func oracleScenes(t *testing.T) []floodScene {
	scenes := floodScenes(t)
	cfg := scenes[0].net.cfg
	cfg.SegmentProb = cfg.PadProb / 2
	below, err := NewNetwork(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	scenes = append(scenes, floodScene{name: "segment_below_pad", net: below, img: scenes[0].img, seeds: scenes[0].seeds})
	odd := synthVolume(42, 5, 17, 19).Normalize()
	if odd.Size()%32 == 0 {
		t.Fatal("the odd scene's voxel count is a multiple of 32")
	}
	return append(scenes, floodScene{name: "odd_5x17x19", net: scenes[0].net, img: odd,
		seeds: GridSeeds(odd, scenes[0].net.cfg.FOV, [3]int{1, 3, 3}, -10)})
}

// TestFloodMatchesCanvasOracle holds Flood's bits and statistics to the
// float-canvas oracle, bit for bit: on every scene, at workers 1/2/8 and
// budgets 0/1/7, with a live and a pre-cancelled context, each flood over
// free-list words poisoned beforehand (TestMain NaN-fills released
// buffers, so a word the flood did not write would show).
func TestFloodMatchesCanvasOracle(t *testing.T) {
	pre, cancel := context.WithCancel(context.Background())
	cancel()
	for _, sc := range oracleScenes(t) {
		words := (sc.img.Size() + 31) / 32
		for _, maxSteps := range []int{0, 1, 7} {
			for _, workers := range []int{1, 2, 8} {
				for _, ctx := range []context.Context{context.Background(), pre} {
					name := fmt.Sprintf("%s/maxSteps=%d/workers=%d/cancelled=%v", sc.name, maxSteps, workers, ctx.Err() != nil)
					prev := parallel.SetWorkers(workers)
					want, wantStats := canvasSegment(ctx, sc.net, sc.img, sc.seeds, maxSteps)
					for range 3 {
						tensor.PutWords(make([]uint32, words))
					}
					mask, stats, err := sc.net.Flood(ctx, sc.img, Moments{0, 1}, sc.seeds, maxSteps, nil)
					parallel.SetWorkers(prev)
					if err != ctx.Err() {
						t.Fatalf("%s: err %v, want %v", name, err, ctx.Err())
					}
					if stats != wantStats {
						t.Fatalf("%s: stats %+v, oracle %+v", name, stats, wantStats)
					}
					checkMaskBits(t, mask, want)
					if ctx.Err() == nil && maxSteps == 0 && sc.name != "segment_below_pad" && (stats.MaskVoxels == 0 || stats.MaskVoxels == stats.VoxelsTotal) {
						t.Fatalf("%s: degenerate mask %+v", name, stats)
					}
					mask.Release()
				}
			}
		}
	}
}

// TestFloodConditionsOnRead: a flood over the raw field read through its
// moments is the flood over the normalised field, bit for bit, at every
// worker count.
func TestFloodConditionsOnRead(t *testing.T) {
	net, img, seeds := batchScene(t)
	raw := synthVolume(42, img.D, img.H, img.W)
	for _, workers := range []int{1, 2, 8} {
		prev := parallel.SetWorkers(workers)
		want, wantStats := canvasSegment(context.Background(), net, img, seeds, 0)
		mask, stats, err := net.Flood(context.Background(), raw, MomentsOf(raw.Data), seeds, 0, nil)
		parallel.SetWorkers(prev)
		if err != nil || stats != wantStats {
			t.Fatalf("workers=%d: %+v (%v), oracle %+v", workers, stats, err, wantStats)
		}
		checkMaskBits(t, mask, want)
		mask.Release()
	}
}

// TestSeedVoxelIndependentOfWorkers: a seed voxel is clamped to SeedProb
// whatever the worker count. With SeedProb below SegmentProb and PadProb at
// or above it, a flood that merges nothing (its context is already
// cancelled) has every voxel in the mask but the two seeds. The multi-lane
// canvas flood max-reduced lane canvases that started at PadProb's logit
// over the seeds, and so marked them at two workers and not at one.
func TestSeedVoxelIndependentOfWorkers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SeedProb, cfg.SegmentProb, cfg.PadProb = 0.3, 0.4, 0.5
	net, err := NewNetwork(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	img := ivtImage(8)
	seeds := [][3]int{{2, 8, 10}, {5, 14, 24}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 2} {
		prev := parallel.SetWorkers(workers)
		mask, stats, err := net.SegmentCtx(ctx, img, seeds, 0, nil)
		parallel.SetWorkers(prev)
		if err != context.Canceled {
			t.Fatalf("workers=%d: err %v, want context.Canceled", workers, err)
		}
		if want := img.Size() - len(seeds); stats.SeedsUsed != len(seeds) || stats.MaskVoxels != want {
			t.Fatalf("workers=%d: %+v, want both seeds used and %d mask voxels", workers, stats, want)
		}
		for _, s := range seeds {
			if v := mask.At(s[0], s[1], s[2]); v != 0 {
				t.Fatalf("workers=%d: seed voxel %v is %v, want 0 (SeedProb %v < SegmentProb %v)", workers, s, v, cfg.SeedProb, cfg.SegmentProb)
			}
		}
		ReleaseVolume(mask)
	}
}

// conditioningVolumes are fields whose conditioning must survive the move
// from a normalised copy to conditioning on read: -0 and subnormals among
// ordinary values, a NaN (NaN moments), +Inf (an infinite mean), -Inf and
// +Inf together, a constant field (variance at most 1e-12, so a standard
// deviation of 1) and a field of -0.
func conditioningVolumes() map[string]*Volume {
	const d, h, w = 5, 11, 13
	base := func() *Volume { return synthVolume(17, d, h, w) }
	signed := base()
	for i := 0; i < len(signed.Data); i += 7 {
		signed.Data[i] = float32(math.Copysign(0, -1))
	}
	for i := 3; i < len(signed.Data); i += 11 {
		signed.Data[i] = math.Float32frombits(uint32(i)) // subnormal
	}
	nan := base()
	nan.Data[100] = float32(math.NaN())
	inf := base()
	inf.Data[50] = float32(math.Inf(1))
	infs := base()
	infs.Data[50], infs.Data[60] = float32(math.Inf(1)), float32(math.Inf(-1))
	constant := NewVolume(d, h, w)
	fill(constant.Data, 3.25)
	negZero := NewVolume(d, h, w)
	fill(negZero.Data, float32(math.Copysign(0, -1)))
	return map[string]*Volume{"signed_zero_subnormal": signed, "nan": nan, "inf": inf, "both_infs": infs, "constant": constant, "negative_zero": negZero}
}

// TestConditionOnReadMatchesNormalizeInto: every FOV extracted through the
// moments map holds the bits NormalizeInto-then-extract gives, on fields
// with -0, subnormals, NaN, infinities and no variance; and the identity
// moments read every value as itself.
func TestConditionOnReadMatchesNormalizeInto(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FOV = [3]int{3, 5, 7}
	li, _ := cfg.floodLayouts()
	got, want := make([]float32, li.Len()), make([]float32, li.Len())
	for name, raw := range conditioningVolumes() {
		norm := raw.NormalizeInto(NewVolume(raw.D, raw.H, raw.W))
		m := MomentsOf(raw.Data)
		if name == "constant" && m.Std != 1 {
			t.Fatalf("constant field: std %v, want 1", m.Std)
		}
		for i, x := range raw.Data {
			if a, b := math.Float32bits((Moments{0, 1}).Apply(x)), math.Float32bits(x); a != b && x == x {
				t.Fatalf("%s voxel %d: identity moments read %#x as %#x", name, i, b, a)
			}
		}
		for z := li.D / 2; z+li.D/2 < raw.D; z++ {
			for y := li.H / 2; y+li.H/2 < raw.H; y++ {
				for x := li.W / 2; x+li.W/2 < raw.W; x++ {
					extractFOVBlocked(got, li, raw, m, z, y, x)
					extractFOVBlocked(want, li, norm, Moments{0, 1}, z, y, x)
					for fz := 0; fz < li.D; fz++ {
						for fy := 0; fy < li.H; fy++ {
							for fx := 0; fx < li.W; fx++ {
								p := li.Pos(fz, fy, fx)
								if a, b := math.Float32bits(got[p]), math.Float32bits(want[p]); a != b {
									t.Fatalf("%s FOV at (%d,%d,%d), voxel (%d,%d,%d): %#x on read, %#x normalised", name, z, y, x, fz, fy, fx, a, b)
								}
							}
						}
					}
				}
			}
		}
	}
}
