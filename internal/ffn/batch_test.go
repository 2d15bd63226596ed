package ffn

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"chaseci/internal/merra"
	"chaseci/internal/parallel"
	"chaseci/internal/tensor"
)

// batchScene builds a flood scene large enough that batches actually fill.
func batchScene(t testing.TB) (*Network, *Volume, [][3]int) {
	t.Helper()
	img := synthVolume(42, 6, 20, 22)
	img.Normalize()
	cfg := DefaultConfig()
	cfg.FOV = [3]int{3, 7, 7}
	cfg.Features = 4
	cfg.MoveStep = [3]int{1, 2, 2}
	cfg.MoveProb = 0.55
	net, err := NewNetwork(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	seeds := GridSeeds(img, cfg.FOV, [3]int{1, 3, 3}, -10)
	if len(seeds) < 4 {
		t.Fatalf("want several seeds, got %d", len(seeds))
	}
	return net, img, seeds
}

// floodScene is one network and scene the flood tests pin, with how many
// logits per application the flood reads (floodReads).
type floodScene struct {
	name  string
	net   *Network
	img   *Volume
	seeds [][3]int
	reads int
}

// ivtImage is a normalised synthetic IVT volume of steps time steps over a
// 36x24 grid.
func ivtImage(steps int) *Volume {
	g := merra.Grid{NLon: 36, NLat: 24, NLev: 6}
	vol := merra.IVTVolume(merra.NewGenerator(g, 11), merra.PressureLevels(g.NLev), 20, steps)
	img := &Volume{D: steps, H: g.NLat, W: g.NLon, Data: append([]float32(nil), vol.Data...)}
	return img.Normalize()
}

// floodScenes are the flood geometries the repo runs: batchScene (4
// features, 3x7x7); the "ivt" net of the root package's
// BenchmarkSegmentWorkers (6 features, 3x7x7) on a synthetic IVT volume; and
// connect_chain's net, the default geometry (8 features, 5x9x9, MoveStep
// 1x3x3) with net seed 3.
func floodScenes(t testing.TB) []floodScene {
	t.Helper()
	net4, img4, seeds4 := batchScene(t)
	scenes := []floodScene{{"f4_3x7x7", net4, img4, seeds4, 75}}
	ivt := DefaultConfig()
	ivt.FOV, ivt.Features, ivt.MoveStep = [3]int{3, 7, 7}, 6, [3]int{1, 2, 2}
	chain := DefaultConfig()
	for _, sc := range []struct {
		name   string
		cfg    Config
		img    *Volume
		stride [3]int
		reads  int
	}{
		{"f6_3x7x7", ivt, ivtImage(6), [3]int{1, 4, 4}, 75},
		{"f8_5x9x9", chain, ivtImage(8), [3]int{2, 4, 4}, 79},
	} {
		net, err := NewNetwork(sc.cfg, 3)
		if err != nil {
			t.Fatal(err)
		}
		scenes = append(scenes, floodScene{sc.name, net, sc.img, GridSeeds(sc.img, sc.cfg.FOV, sc.stride, 1.0), sc.reads})
	}
	return scenes
}

// readPositions lists the FOV indices floodReads names, each once.
func readPositions(cfg Config) []int {
	fov := cfg.FOV
	idx := func(z, y, x int) int { return (z*fov[1]+y)*fov[2] + x }
	seen := map[int]bool{}
	var out []int
	add := func(i int) {
		if !seen[i] {
			seen[i] = true
			out = append(out, i)
		}
	}
	core, moves := cfg.floodReads()
	for z := core.lo[0]; z < core.hi[0]; z++ {
		for y := core.lo[1]; y < core.hi[1]; y++ {
			for x := core.lo[2]; x < core.hi[2]; x++ {
				add(idx(z, y, x))
			}
		}
	}
	for _, m := range moves {
		add(idx(m[0], m[1], m[2]))
	}
	return out
}

// extractFOV is extractFOVInto a fresh (1,D,H,W) tensor.
func extractFOV(v *Volume, fov [3]int, cz, cy, cx int) *tensor.Tensor {
	out := tensor.New(1, fov[0], fov[1], fov[2])
	extractFOVInto(out, v, fov, cz, cy, cx)
	return out
}

// perFOVSegment is the reference the batched flood is held to: a
// one-application-at-a-time FIFO flood over the planar chain's forwardInto
// into a float canvas, with a map for the visited set and nothing shared
// with flood but floodReads' core, fovInBounds and the final threshold.
func perFOVSegment(n *Network, image *Volume, seeds [][3]int, maxSteps int) (*Volume, InferenceStats) {
	cfg := n.cfg
	fov := cfg.FOV
	stats := InferenceStats{VoxelsTotal: image.Size()}
	canvas := NewVolume(image.D, image.H, image.W)
	fill(canvas.Data, logit(cfg.PadProb))
	visited := map[fovPos]bool{}
	var queue []fovPos
	for _, s := range seeds {
		p := fovPos{s[0], s[1], s[2]}
		if cfg.fovInBounds(image, p.z, p.y, p.x) && !visited[p] {
			visited[p] = true
			queue = append(queue, p)
			canvas.Data[(p.z*canvas.H+p.y)*canvas.W+p.x] = logit(cfg.SeedProb)
			stats.SeedsUsed++
		}
	}
	core, _ := cfg.floodReads()
	ts := newPlanarScratch(n)
	for ; len(queue) > 0 && (maxSteps <= 0 || stats.Steps < maxSteps); queue = queue[1:] {
		p := queue[0]
		extractFOVInto(ts.img, image, fov, p.z, p.y, p.x)
		packInputInto(ts.in, ts.img, ts.pom)
		n.forwardInto(&ts.cache, ts.in, ts.delta)
		mergeCoreMax(canvas.Data, image.H, image.W, fov, core, ts.delta.Data, p.z, p.y, p.x)
		stats.Steps++
		for _, off := range cfg.moveOffsets() {
			q := fovPos{p.z + off[0], p.y + off[1], p.x + off[2]}
			face := ((fov[0]/2+off[0])*fov[1]+fov[1]/2+off[1])*fov[2] + fov[2]/2 + off[2]
			if ts.delta.Data[face] < logit(cfg.MoveProb) ||
				!cfg.fovInBounds(image, q.z, q.y, q.x) || visited[q] {
				continue
			}
			visited[q] = true
			queue = append(queue, q)
			stats.Moves++
		}
	}
	for i, v := range canvas.Data {
		canvas.Data[i] = 0
		if v >= logit(cfg.SegmentProb) {
			canvas.Data[i] = 1
			stats.MaskVoxels++
		}
	}
	return canvas, stats
}

// TestSegmentBatchedMatchesPerFOV requires the batched flood to reproduce
// the per-FOV reference bit-exactly (mask and statistics) at worker counts
// 1/2/8, with and without a step budget — the equivalence the batched
// engine's "output depends only on image and center" argument promises, and
// for budgets the "first k queued centers, expanded in order" one.
func TestSegmentBatchedMatchesPerFOV(t *testing.T) {
	net, img, seeds := batchScene(t)
	for _, maxSteps := range []int{0, 1, 7, 50} {
		refMask, refStats := perFOVSegment(net, img, seeds, maxSteps)
		if refStats.Steps == 0 || refStats.MaskVoxels == 0 {
			t.Fatalf("degenerate reference run: %+v", refStats)
		}
		for _, workers := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("maxSteps=%d/workers=%d", maxSteps, workers), func(t *testing.T) {
				prev := parallel.SetWorkers(workers)
				defer parallel.SetWorkers(prev)
				mask, stats := net.Segment(img, seeds, maxSteps)
				if stats != refStats {
					t.Fatalf("stats diverge: %+v, want %+v", stats, refStats)
				}
				for i := range refMask.Data {
					if mask.Data[i] != refMask.Data[i] {
						t.Fatalf("mask voxel %d diverges", i)
					}
				}
			})
		}
	}
}

// floodGolden holds SHA-256(mask float32 bits, little-endian || %+v of the
// InferenceStats) per flood scene and step budget. The f4_3x7x7 rows were
// recorded at the last commit that had separate per-FOV FIFO, per-FOV LIFO
// and batched loops (all three agreed). The f6 and f8 rows were recorded on
// the planar span engine, before the flood moved to channel lanes.
var floodGolden = map[string]map[int]string{
	"f4_3x7x7": {
		0: "afb579f3dedda58484d1b0496f71f06fdc679b5cf302e7afaead3dfd80bb0985",
		1: "dbdb49c5d8ea25553e513355148a9c3b13747e54e0cde0e0dbd9492fdd54b0e2",
		7: "1f15bf58875c9d71a5cff4135a4c5911100f6946dece1308004066ede9722915",
	},
	"f6_3x7x7": {
		0: "19bdb7269a8ca39f8f75123a5a58fc834b89ad494912ccbf26fa7cb544ddae15",
		1: "71f13308ff2d8bbcaa2000fcbb6504a82dcea08b6198e7bc4184dd4a3216798d",
		7: "56dd33945c458a1d529c7bd3530da3d5514c9da880811fb690aff7fcc027824f",
	},
	"f8_5x9x9": {
		0: "db2ee6d321a5f8acf2d2c7894474e652936715c490626adb61dec5e5bd0e28e9",
		1: "1e1a07a7a3e357939f5a93d397980cde846f0f4ab02ddccd8c4b9248e15995ac",
		7: "4e30126d979a26bcf510d9855d0608d13c3efb7404b04861098db4a3c1d14354",
	},
}

// floodDigest is a floodGolden digest.
func floodDigest(mask *Volume, stats InferenceStats) string {
	h := sha256.New()
	binary.Write(h, binary.LittleEndian, mask.Data)
	fmt.Fprintf(h, "%+v", stats)
	return hex.EncodeToString(h.Sum(nil))
}

// eachWidth runs fn as a subtest at flood widths 1 and 2 (forceWidth): on
// a host without AVX-512F the Go twin serves width 2.
func eachWidth(t *testing.T, fn func(t *testing.T)) {
	for _, w := range []int{1, 2} {
		t.Run(fmt.Sprintf("width=%d", w), func(t *testing.T) {
			defer func(prev int) { forceWidth = prev }(forceWidth)
			forceWidth = w
			fn(t)
		})
	}
}

// TestFloodGolden pins absolute flood output — unbudgeted and budgeted,
// serial and sharded — on every scene, at both widths.
func TestFloodGolden(t *testing.T) {
	eachWidth(t, func(t *testing.T) {
		for _, sc := range floodScenes(t) {
			for maxSteps, want := range floodGolden[sc.name] {
				for _, workers := range []int{1, 2, 8} {
					prev := parallel.SetWorkers(workers)
					mask, stats := sc.net.Segment(sc.img, sc.seeds, maxSteps)
					parallel.SetWorkers(prev)
					if got := floodDigest(mask, stats); got != want {
						t.Errorf("%s maxSteps=%d workers=%d: digest %s (%+v), want %s", sc.name, maxSteps, workers, got, stats, want)
					}
				}
			}
		}
	})
}

// fillSlots extracts the FOVs at seeds i mod len(seeds) into an f32
// scratch's input slots i < k.
func fillSlots(s *batchScratch, img *Volume, seeds [][3]int, k int) {
	for i := 0; i < k; i++ {
		p := seeds[i%len(seeds)]
		s.extract(i, img, Moments{0, 1}, fovPos{p[0], p[1], p[2]})
	}
}

// slotAt addresses batch slot i of one of a scratch's activation buffers:
// channel c at FOV position (z, y, x).
func (s *batchScratch) slotAt(buf []float32, i int) func(z, y, x, c int) *float32 {
	w := s.plan.width
	_, lx := s.net.cfg.floodLayouts(w)
	b := slot(buf, lx, i/w)
	return func(z, y, x, c int) *float32 { return &b[lx.Pos(z, y, x)+w*c+i%w] }
}

// forwardRef is the planar chain's forwardInto on the FOV at c: the
// logits every position of the FOV has.
func forwardRef(net *Network, ts *planarScratch, img *Volume, c [3]int) []float32 {
	extractFOVInto(ts.img, img, net.cfg.FOV, c[0], c[1], c[2])
	packInputInto(ts.in, ts.img, ts.pom)
	net.forwardInto(&ts.cache, ts.in, ts.delta)
	return ts.delta.Data
}

// TestForwardBatchMatchesForwardInto pins the f32 batched forward against
// the planar forwardInto slot by slot, on the logits the flood reads
// — 75 of 147 at 3x7x7, 79 of 405 at the default geometry — on every
// scene, at every batch size (odd ones leave a paired buffer half live)
// and both widths.
func TestForwardBatchMatchesForwardInto(t *testing.T) {
	for _, sc := range floodScenes(t) {
		reads := readPositions(sc.net.cfg)
		if len(reads) != sc.reads {
			t.Fatalf("%s: the flood reads %d logits, want %d", sc.name, len(reads), sc.reads)
		}
		for _, width := range []int{1, 2} {
			plan := sc.net.newFloodPlan(width)
			bs := sc.net.getBatchScratch(plan)
			ref := newPlanarScratch(sc.net)
			fovN := len(ref.delta.Data)
			for _, k := range []int{1, 3, DefaultFloodBatch} {
				fillSlots(bs, sc.img, sc.seeds, k)
				sc.net.forwardBatchInto(bs, k)
				for i := 0; i < k; i++ {
					want := forwardRef(sc.net, ref, sc.img, sc.seeds[i%len(sc.seeds)])
					got := bs.out[i*fovN:][:fovN]
					for _, j := range reads {
						if got[j] != want[j] {
							t.Fatalf("%s width %d batch %d slot %d logit %d: got %v, want %v (not bit-exact)", sc.name, width, k, i, j, got[j], want[j])
						}
					}
				}
			}
			ref.release()
			sc.net.putBatchScratch(bs)
			plan.release()
		}
	}
}

// TestFloodBatchScratchAllocFree pins the batched flood hot loop: with a
// warmed scratch, extract + batched forward + merge allocates nothing, at
// one worker and with the slots fanned out over two.
func TestFloodBatchScratchAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; alloc pins run in the non-race job")
	}
	net, img, seeds := batchScene(t)
	cfg := net.Config()
	fov := cfg.FOV
	fovN := fov[0] * fov[1] * fov[2]
	core, _ := cfg.floodReads()
	segLogit := logit(cfg.SegmentProb)
	mask := make([]uint32, (img.Size()+31)/32)
	for _, width := range []int{1, 2} {
		plan := net.newFloodPlan(width)
		bs := net.getBatchScratch(plan)
		k := cap(bs.pos)
		run := func() {
			fillSlots(bs, img, seeds, k)
			net.forwardBatchInto(bs, k)
			for i := 0; i < k; i++ {
				s := seeds[i]
				mergeCore(mask, img.H, img.W, fov, core, bs.out[i*fovN:][:fovN], segLogit, s[0], s[1], s[2])
			}
		}
		for _, workers := range []int{1, 2} {
			prev := parallel.SetWorkers(workers)
			run() // warm dispatch pools
			allocs := testing.AllocsPerRun(20, run)
			parallel.SetWorkers(prev)
			if allocs != 0 {
				t.Fatalf("width=%d workers=%d: batched flood steady-state allocs/op = %v, want 0", width, workers, allocs)
			}
		}
		net.putBatchScratch(bs)
		plan.release()
	}
}

// TestSegmentAllocBound pins the whole batched flood around that loop —
// seed shards, queues, visited set and the returned mask — on the 6x24x36 IVT
// scene with a warm free list.
func TestSegmentAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; alloc pins run in the non-race job")
	}
	img, _ := buildARScene(t, 6)
	cfg := DefaultConfig()
	cfg.FOV = [3]int{3, 7, 7}
	cfg.Features = 6
	cfg.MoveStep = [3]int{1, 2, 2}
	net, err := NewNetwork(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	seeds := GridSeeds(img, cfg.FOV, [3]int{1, 4, 4}, 1.0)
	net.Segment(img, seeds, 0)
	allocs := testing.AllocsPerRun(10, func() { net.Segment(img, seeds, 0) })
	t.Logf("Segment: %.0f allocs", allocs)
	const bound = 24 // measured 14-15
	if allocs > bound {
		t.Fatalf("Segment allocates %.0f objects per flood, want <= %d", allocs, bound)
	}
}

// TestSegmentReusesBatchScratch verifies repeated Segment calls recycle the
// batched scratch through the network's free list instead of rebuilding it.
// The free list is a mutex-guarded LIFO, not a sync.Pool, so reuse is
// deterministic and this test holds under the race detector too.
func TestSegmentReusesBatchScratch(t *testing.T) {
	net, img, seeds := batchScene(t)
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	net.Segment(img, seeds, 0)
	s1 := net.getBatchScratch(floodPlan{width: 1})
	data := &s1.in[0]
	net.putBatchScratch(s1)
	net.Segment(img, seeds, 0)
	s2 := net.getBatchScratch(floodPlan{width: 1})
	defer net.putBatchScratch(s2)
	if &s2.in[0] != data {
		t.Fatal("batched scratch was not recycled through the pool")
	}
}

// TestFloodWorkCount pins one application's conv work at the default
// geometry. Evaluating every layer at all 405 positions is 2,977,560 useful
// multiply-adds, and the planar span engine issued 477,360 8-lane vectors
// for them (13 per 9x9 output plane, per output channel, input channel and
// tap). The read set takes the last module's second conv to 79 positions
// and its first to 281, which leaves 2,197,352 multiply-adds, and output
// channels in lanes issue 274,590 8-lane vectors for them at width 1, and
// 137,295 16-lane vectors per application at width 2.
func TestFloodWorkCount(t *testing.T) {
	cfg := DefaultConfig()
	f, fovN, planes := cfg.Features, 5*9*9, 5*cfg.Features
	dense := fovN*f*2*27 + 2*cfg.Modules*fovN*f*f*27 + fovN*f
	planar := planes * 13 * 27 * (2 + 2*cfg.Modules*f)
	if dense != 2977560 || planar != 477360 {
		t.Fatalf("every position: %d multiply-adds, %d planar vectors; want 2977560 and 477360", dense, planar)
	}
	if macs, vectors := cfg.floodWork(1); macs != 2197352 || vectors != 274590 {
		t.Fatalf("floodWork(1) = %d multiply-adds, %d vectors; want 2197352 and 274590", macs, vectors)
	}
	if macs, vectors := cfg.floodWork(2); macs != 2197352 || vectors != 137295 {
		t.Fatalf("floodWork(2) = %d multiply-adds, %d vectors; want 2197352 and 137295", macs, vectors)
	}

	spans := make([]int32, cfg.readSpansLen())
	cfg.readSpans(spans)
	rows := 2 * cfg.FOV[0] * cfg.FOV[1]
	var got []int
	for s := spans; len(s) > 0; s = s[rows:] {
		n := 0
		for r := 0; r < rows; r += 2 {
			n += int(s[r+1] - s[r])
		}
		got = append(got, n)
	}
	if want := []int{79, 79, 281, 405, 405, 405}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("positions per depth, logits first: %v, want %v", got, want)
	}
	for _, sc := range floodScenes(t) {
		macs, v1 := sc.net.cfg.floodWork(1)
		_, v2 := sc.net.cfg.floodWork(2)
		t.Logf("%s: %d multiply-adds, %d 8-lane or %d 16-lane vectors per application", sc.name, macs, v1, v2)
	}
}

// TestTrainWorkCount pins one training example's conv work, every layer at
// every position (V positions, one lane group at 6 or 8 features, 27 taps):
// the forward pass 2+2*Modules*F input channels' worth, the input
// gradients 2*Modules*F (the input layer's is not computed), the weight
// gradients as many as the forward pass. The bench's net (3x7x7, 6
// features, 2 modules): 147*27*(26+24+26) = 301,644 8-lane vectors at width
// 1, and 150,822 16-lane vectors per example at width 2. DefaultConfig
// (5x9x9, 8 features): 405*27*(34+32+34) = 1,093,500 and 546,750.
func TestTrainWorkCount(t *testing.T) {
	bench := DefaultConfig()
	bench.FOV, bench.Features = [3]int{3, 7, 7}, 6
	for _, c := range []struct {
		name        string
		cfg         Config
		one, paired int
	}{{"bench net", bench, 301644, 150822}, {"DefaultConfig", DefaultConfig(), 1093500, 546750}} {
		one, paired := c.cfg.trainWork(1), c.cfg.trainWork(2)
		if one != c.one || paired != c.paired || 2*paired != one {
			t.Errorf("%s: trainWork(1) = %d, trainWork(2) = %d; want %d and %d", c.name, one, paired, c.one, c.paired)
		}
		t.Logf("%s: %d 8-lane vectors per example at width 1, %d 16-lane at width 2", c.name, one, paired)
	}
}

// inSpans reports whether interior position (z, y, x) is in one depth's
// read spans.
func inSpans(spans []int32, h, z, y, x int) bool {
	r := 2 * (z*h + y)
	return x >= int(spans[r]) && x < int(spans[r+1])
}

// TestFloodReadSetPoison proves the read set. Before each batch every
// activation interior position outside the positions its buffer's layers
// compute, and every logit the flood does not read, is set to NaN: the read
// logits must still equal forwardInto's bit for bit, and the poison must
// still be there afterwards. Then whole floods over scratch buffers that
// come back from the free list NaN throughout (this package's TestMain
// poisons every released buffer) must give the golden masks and statistics
// at workers 1/2/8.
func TestFloodReadSetPoison(t *testing.T) {
	eachWidth(t, func(t *testing.T) {
		nan := float32(math.NaN())
		for _, sc := range floodScenes(t) {
			cfg := sc.net.cfg
			d, h, w := cfg.FOV[0], cfg.FOV[1], cfg.FOV[2]
			rows := 2 * d * h
			spans := make([]int32, cfg.readSpansLen())
			cfg.readSpans(spans)
			depthSpans := func(depth int) []int32 { return spans[depth*rows:][:rows] }
			_, lx := cfg.floodLayouts(1)
			last := 2*cfg.Modules + 1
			plan := sc.net.newFloodPlan(floodWidth(0))
			bs := sc.net.getBatchScratch(plan)
			ref := newPlanarScratch(sc.net)
			fovN := d * h * w
			// The widest layer each buffer holds: the input layer's x0, module
			// 0's hidden and tail layers; the logits are read at depth 0.
			bufs := []struct {
				buf   []float32
				depth int
			}{{bs.x0, last}, {bs.hid, last - 1}, {bs.x1, last - 2}}
			// each visits every interior position outside a depth's spans.
			each := func(depth int, fn func(z, y, x int)) {
				s := depthSpans(depth)
				for z := 0; z < d; z++ {
					for y := 0; y < h; y++ {
						for x := 0; x < w; x++ {
							if !inSpans(s, h, z, y, x) {
								fn(z, y, x)
							}
						}
					}
				}
			}
			const k = DefaultFloodBatch
			for batch := 0; batch < 3; batch++ {
				for i := 0; i < k; i++ {
					for _, buf := range bufs {
						at := bs.slotAt(buf.buf, i)
						each(buf.depth, func(z, y, x int) {
							for c := range lx.C {
								*at(z, y, x, c) = nan
							}
						})
					}
					out := bs.out[i*fovN:][:fovN]
					each(0, func(z, y, x int) { out[(z*h+y)*w+x] = nan })
				}
				seeds := make([][3]int, k)
				for i := range seeds {
					seeds[i] = sc.seeds[(batch*k+i)%len(sc.seeds)]
				}
				fillSlots(bs, sc.img, seeds, k)
				sc.net.forwardBatchInto(bs, k)
				for i := 0; i < k; i++ {
					want := forwardRef(sc.net, ref, sc.img, seeds[i])
					out := bs.out[i*fovN:][:fovN]
					for _, j := range readPositions(cfg) {
						if out[j] != want[j] {
							t.Fatalf("%s batch %d slot %d logit %d: %v, want %v", sc.name, batch, i, j, out[j], want[j])
						}
					}
					for _, buf := range bufs {
						at := bs.slotAt(buf.buf, i)
						each(buf.depth, func(z, y, x int) {
							if v := *at(z, y, x, 0); v == v {
								t.Fatalf("%s slot %d: position (%d,%d,%d) outside depth %d was written", sc.name, i, z, y, x, buf.depth)
							}
						})
					}
					each(0, func(z, y, x int) {
						if v := out[(z*h+y)*w+x]; v == v {
							t.Fatalf("%s slot %d: unread logit (%d,%d,%d) was written", sc.name, i, z, y, x)
						}
					})
				}
			}
			ref.release()
			sc.net.putBatchScratch(bs)
			plan.release()

			sc.net.Segment(sc.img, sc.seeds, 0) // hands NaN-filled buffers to the free list
			for _, workers := range []int{1, 2, 8} {
				prev := parallel.SetWorkers(workers)
				mask, stats := sc.net.Segment(sc.img, sc.seeds, 0)
				parallel.SetWorkers(prev)
				if got := floodDigest(mask, stats); got != floodGolden[sc.name][0] {
					t.Errorf("%s workers=%d over poisoned scratch: digest %s (%+v), want %s", sc.name, workers, got, stats, floodGolden[sc.name][0])
				}
			}
		}
	})
}

// BenchmarkFloodForward times the f32 forward pass per application at the
// default geometry (connect_chain's net) and at the 3x7x7 nets with 6 and 4
// features, at both widths, for one slot and a full batch, at one worker
// and with the buffers fanned out over two.
func BenchmarkFloodForward(b *testing.B) {
	for _, geo := range []struct {
		name string
		fov  [3]int
		f    int
		step [3]int
	}{
		{"f8_5x9x9", [3]int{5, 9, 9}, 8, [3]int{1, 3, 3}},
		{"f6_3x7x7", [3]int{3, 7, 7}, 6, [3]int{1, 2, 2}},
		{"f4_3x7x7", [3]int{3, 7, 7}, 4, [3]int{1, 2, 2}},
	} {
		cfg := DefaultConfig()
		cfg.FOV, cfg.Features, cfg.MoveStep = geo.fov, geo.f, geo.step
		net, err := NewNetwork(cfg, 3)
		if err != nil {
			b.Fatal(err)
		}
		img := synthVolume(1, geo.fov[0]+2, 24, 24).Normalize()
		seeds := GridSeeds(img, geo.fov, [3]int{1, 3, 3}, -10)
		for _, width := range []int{1, 2} {
			for _, k := range []int{1, DefaultFloodBatch} {
				for _, workers := range []int{1, 2} {
					b.Run(fmt.Sprintf("%s/width=%d/batch=%d/workers=%d", geo.name, width, k, workers), func(b *testing.B) {
						prev := parallel.SetWorkers(workers)
						defer parallel.SetWorkers(prev)
						plan := net.newFloodPlan(width)
						defer plan.release()
						s := net.getBatchScratch(plan)
						defer net.putBatchScratch(s)
						fillSlots(s, img, seeds, k)
						net.forwardBatchInto(s, k)
						b.ReportAllocs()
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							net.forwardBatchInto(s, k)
						}
						b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*k), "ns/app")
					})
				}
			}
		}
	}
}
