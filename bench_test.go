// Package chaseci's root benchmark suite regenerates every table and figure
// of the paper's evaluation (go test -bench=.). Each benchmark runs the
// relevant experiment in virtual time and reports the paper-comparable
// quantities via b.ReportMetric:
//
//	BenchmarkTable1Workflow     Table I  (per-step times at full scale)
//	BenchmarkFig1StoragePlacement  Fig 1 (distributed storage + healing)
//	BenchmarkFig3Download       Fig 3    (10-worker download orchestration)
//	BenchmarkFig4Network        Fig 4    (network usage during download)
//	BenchmarkFig5Training       Fig 5    (prep + training phases)
//	BenchmarkFig6Inference      Fig 6    (50-GPU inference)
//	BenchmarkAblation*          extensions from Section III-E
//	BenchmarkBaselineConnect    CONNECT-vs-FFN real-compute comparison
//
// The rest time the kernels and substrates those experiments run on
// (convolution, FFN training, CONNECT labelling, IVT, object store,
// network, queue). Step times are read from the workflow's report, the
// same figures connectwf and benchtab print.
//
// EXPERIMENTS.md records paper-vs-measured for each.
package chaseci

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
	"time"

	"chaseci/internal/cluster"
	"chaseci/internal/connect"
	"chaseci/internal/core"
	"chaseci/internal/ffn"
	"chaseci/internal/gpusim"
	"chaseci/internal/merra"
	"chaseci/internal/parallel"
	"chaseci/internal/sim"
	"chaseci/internal/tensor"
	"chaseci/internal/workflow"
)

// stepReport returns a named step's report from the run.
func stepReport(run *core.ConnectRun, name string) workflow.StepReport {
	for _, s := range run.Workflow.Report().Steps {
		if s.Name == name {
			return s
		}
	}
	return workflow.StepReport{}
}

// runPaperWorkflow executes the case study and returns the run.
func runPaperWorkflow(b *testing.B, granules int, subset bool) *core.ConnectRun {
	b.Helper()
	cfg := core.PaperConnectConfig()
	cfg.Subset = subset
	if granules > 0 {
		cfg.Archive = merra.MERRA2().Slice(granules)
	}
	eco := core.Nautilus()
	run, err := eco.NewConnectWorkflow(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := run.Execute(); err != nil {
		b.Fatal(err)
	}
	return run
}

// BenchmarkTable1Workflow regenerates Table I: the full 4-step workflow at
// the paper's archive scale. Paper: 37m / 306m / 1133m / NA.
func BenchmarkTable1Workflow(b *testing.B) {
	var run *core.ConnectRun
	for i := 0; i < b.N; i++ {
		run = runPaperWorkflow(b, 0, true)
	}
	b.ReportMetric(stepReport(run, "1-download").Duration.Minutes(), "step1-vmin")
	b.ReportMetric(stepReport(run, "2-train").Duration.Minutes(), "step2-vmin")
	b.ReportMetric(stepReport(run, "3-inference").Duration.Minutes(), "step3-vmin")
	b.ReportMetric(run.BytesDownloaded.Value()/1e9, "downloaded-GB")
}

// BenchmarkFig1StoragePlacement regenerates Figure 1's claim: replicated
// distributed storage that heals. Reports re-replication virtual time after
// an OSD loss holding 1/13th of a 2 TB dataset.
func BenchmarkFig1StoragePlacement(b *testing.B) {
	var healVSec float64
	for i := 0; i < b.N; i++ {
		eco := core.Nautilus()
		for j := 0; j < 500; j++ {
			eco.Storage.Put("bench", fmt.Sprintf("obj-%04d", j), 4e9, nil)
		}
		start := eco.Clock.Now()
		if _, err := eco.Storage.FailOSD("ucsd-osd-00"); err != nil {
			b.Fatal(err)
		}
		eco.Clock.RunWhile(func() bool { return eco.Storage.Recovering() })
		healVSec = (eco.Clock.Now() - start).Seconds()
		if !eco.Storage.HealthReport().OK() {
			b.Fatal("storage did not heal")
		}
	}
	b.ReportMetric(healVSec, "heal-vsec")
}

// BenchmarkFig3Download regenerates Figure 3: the 10-worker Redis-fed
// download job. Paper: 37 minutes for 246 GB / 112,249 files.
func BenchmarkFig3Download(b *testing.B) {
	var run *core.ConnectRun
	for i := 0; i < b.N; i++ {
		run = runPaperWorkflow(b, 0, true)
	}
	b.ReportMetric(stepReport(run, "1-download").Duration.Minutes(), "download-vmin")
	b.ReportMetric(run.BytesDownloaded.Value()/1e9, "GB")
	b.ReportMetric(float64(run.Config.Archive.NumFiles()), "files")
}

// BenchmarkFig4Network regenerates Figure 4: peak and mean network rates
// during the download. Paper: max 593 MB/s bursts, 246 GB/37 min sustained
// (~111 MB/s); the fluid model reports the sustained plateau.
func BenchmarkFig4Network(b *testing.B) {
	var peak, mean float64
	for i := 0; i < b.N; i++ {
		run := runPaperWorkflow(b, 0, true)
		ss := run.Eco.Metrics.Select("connect_download_rate_bytes", nil)
		if len(ss) == 0 {
			b.Fatal("no rate series")
		}
		for _, s := range ss[0].Samples {
			if s.Value > peak {
				peak = s.Value
			}
		}
		sum, n := 0.0, 0
		for _, s := range ss[0].Samples {
			if s.Value > 0 {
				sum += s.Value
				n++
			}
		}
		if n > 0 {
			mean = sum / float64(n)
		}
	}
	b.ReportMetric(peak/1e6, "peak-MBps")
	b.ReportMetric(mean/1e6, "mean-MBps")
}

// BenchmarkFig5Training regenerates Figure 5: data prep followed by FFN
// training on the 576x361x240 volume. Paper: 306 minutes total.
func BenchmarkFig5Training(b *testing.B) {
	var d time.Duration
	for i := 0; i < b.N; i++ {
		run := runPaperWorkflow(b, 200, true) // small archive; train is fixed-size
		d = stepReport(run, "2-train").Duration
	}
	b.ReportMetric(d.Minutes(), "train-vmin")
}

// BenchmarkFig6Inference regenerates Figure 6: 50 single-GPU pods splitting
// 2.3e10 voxels. Paper: 1133 minutes.
func BenchmarkFig6Inference(b *testing.B) {
	var d time.Duration
	var maxGPU float64
	for i := 0; i < b.N; i++ {
		run := runPaperWorkflow(b, 0, true)
		d = stepReport(run, "3-inference").Duration
		for _, s := range run.Eco.Metrics.Select("k8s_gpus_in_use", nil)[0].Samples {
			if s.Value > maxGPU {
				maxGPU = s.Value
			}
		}
	}
	b.ReportMetric(d.Minutes(), "infer-vmin")
	b.ReportMetric(maxGPU, "peak-gpus")
}

// BenchmarkAblationSubsetting is extension X4: whole-granule vs THREDDS
// variable subsetting. The paper reduces 455 GB to 246 GB (1.85x).
func BenchmarkAblationSubsetting(b *testing.B) {
	var sub, full time.Duration
	for i := 0; i < b.N; i++ {
		sub = stepReport(runPaperWorkflow(b, 4000, true), "1-download").Duration
		full = stepReport(runPaperWorkflow(b, 4000, false), "1-download").Duration
	}
	b.ReportMetric(sub.Seconds(), "subset-vsec")
	b.ReportMetric(full.Seconds(), "full-vsec")
	b.ReportMetric(float64(full)/float64(sub), "speedup")
}

// BenchmarkAblationInferenceGPUs is extension X3: inference-time scaling
// with GPU count, including the single-CPU MATLAB-era baseline.
func BenchmarkAblationInferenceGPUs(b *testing.B) {
	gpu := gpusim.GTX1080Ti()
	cpu := gpusim.SingleCPU()
	w := gpusim.Paper()
	var t50 time.Duration
	for i := 0; i < b.N; i++ {
		for _, g := range []int{1, 2, 5, 10, 25, 50, 100, 200} {
			d := gpu.ShardedInferTime(w.InferVoxels, g)
			if g == 50 {
				t50 = d
			}
		}
	}
	b.ReportMetric(t50.Minutes(), "gpus50-vmin")
	b.ReportMetric(gpu.ShardedInferTime(w.InferVoxels, 1).Hours(), "gpus1-vhours")
	b.ReportMetric(cpu.InferTime(w.InferVoxels).Hours(), "cpu-vhours")
}

// BenchmarkAblationDistTraining is extension X2 (Section III-E2):
// data-parallel distributed training speedups over a ReplicaSet.
func BenchmarkAblationDistTraining(b *testing.B) {
	m := gpusim.GTX1080Ti()
	cfg := gpusim.DefaultDistTrain()
	w := gpusim.Paper()
	var s8, s64 float64
	for i := 0; i < b.N; i++ {
		t1 := m.DistTrainTime(w.TrainVoxels, 1, cfg)
		s8 = gpusim.Speedup(t1, m.DistTrainTime(w.TrainVoxels, 8, cfg))
		s64 = gpusim.Speedup(t1, m.DistTrainTime(w.TrainVoxels, 64, cfg))
	}
	b.ReportMetric(s8, "speedup-8gpu")
	b.ReportMetric(s64, "speedup-64gpu")
}

// BenchmarkAblationPrepWorkers is extension X1 (Section III-E1):
// distributing the protobuf data-preparation step over k8s worker pods.
func BenchmarkAblationPrepWorkers(b *testing.B) {
	w := gpusim.Paper()
	m := gpusim.GTX1080Ti()
	var t1, t8 time.Duration
	for i := 0; i < b.N; i++ {
		for _, workers := range []int{1, 2, 4, 8, 16} {
			clk := sim.NewClock()
			cl := cluster.New(clk, nil)
			cl.CreateNamespace("prep", nil)
			for n := 0; n < 4; n++ {
				cl.AddNode(fmt.Sprintf("n%d", n), "site", cluster.FIONA8Capacity(), nil)
			}
			shard := w.TrainVoxels / float64(workers)
			job, err := cl.CreateJob(cluster.JobSpec{
				Name: "prep", Namespace: "prep", Parallelism: workers,
				Template: cluster.PodTemplate{
					Requests: cluster.Resources{CPU: 2, Memory: 4e9},
					Run: func(pc *cluster.PodCtx) {
						pc.After(m.PrepTime(shard), pc.Succeed)
					},
				},
			})
			if err != nil {
				b.Fatal(err)
			}
			clk.Run()
			if !job.Done() {
				b.Fatal("prep job incomplete")
			}
			switch workers {
			case 1:
				t1 = clk.Now()
			case 8:
				t8 = clk.Now()
			}
		}
	}
	b.ReportMetric(t1.Minutes(), "workers1-vmin")
	b.ReportMetric(t8.Minutes(), "workers8-vmin")
	b.ReportMetric(gpusim.Speedup(t1, t8), "speedup-8")
}

// BenchmarkAblationNodeFailure is extension X5 (Section V): download
// completion despite losing two busy nodes mid-run.
func BenchmarkAblationNodeFailure(b *testing.B) {
	var d time.Duration
	for i := 0; i < b.N; i++ {
		cfg := core.PaperConnectConfig()
		cfg.Archive = merra.MERRA2().Slice(8000)
		eco := core.Nautilus()
		run, err := eco.NewConnectWorkflow(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := run.Workflow.Run(nil); err != nil {
			b.Fatal(err)
		}
		eco.Clock.RunFor(20 * time.Second)
		killed := 0
		for _, n := range eco.Cluster.Nodes() {
			if killed >= 2 {
				break
			}
			if n.Allocated().CPU > 0 {
				eco.Cluster.KillNode(n.Name)
				killed++
			}
		}
		eco.Clock.RunWhile(func() bool { return !run.Workflow.Done() })
		if run.Workflow.Failed() {
			b.Fatal("workflow failed under node loss")
		}
		d = stepReport(run, "1-download").Duration
	}
	b.ReportMetric(d.Seconds(), "download-vsec")
}

// BenchmarkBaselineConnect is extension X6: the real CONNECT baseline vs the
// real FFN on identical synthetic volumes — actual wall-clock Go compute,
// not virtual time. Reports agreement (IoU of FFN mask vs threshold labels)
// and the two algorithms' object counts.
func BenchmarkBaselineConnect(b *testing.B) {
	g := merra.Grid{NLon: 36, NLat: 24, NLev: 6}
	gen := merra.NewGenerator(g, 11)
	levels := merra.PressureLevels(g.NLev)
	const steps = 6
	vol := merra.IVTVolume(gen, levels, 20, steps)
	flat := merra.Field2D{NLon: len(vol.Data), NLat: 1, Data: vol.Data}
	th := flat.Quantile(0.90)
	img := &ffn.Volume{D: steps, H: g.NLat, W: g.NLon, Data: append([]float32(nil), vol.Data...)}
	img.Normalize()
	lbl := ffn.NewVolume(steps, g.NLat, g.NLon)
	for i, v := range vol.Data {
		if v >= th {
			lbl.Data[i] = 1
		}
	}
	cfg := ffn.DefaultConfig()
	cfg.FOV = [3]int{3, 7, 7}
	cfg.Features = 6
	cfg.MoveStep = [3]int{1, 2, 2}
	net, err := ffn.NewNetwork(cfg, 3)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := ffn.NewDistTrainer(net, 0.03, 0.9, img, lbl, 99, 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	for tr.RoundIndex() < 300 {
		if _, err := tr.Round(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
	tr.Release()
	seeds := ffn.GridSeeds(img, cfg.FOV, [3]int{1, 4, 4}, 1.0)

	var iou float64
	var connObjects, ffnObjects int
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mask, _, _ := net.SegmentCtx(context.Background(), img, seeds, 0, nil)
		res, err := connect.LabelCtx(ctx, connect.FromMask(steps, g.NLat, g.NLon, lbl.Data), connect.Conn26, 4, nil)
		if err != nil {
			b.Fatal(err)
		}
		ffnRes, err := connect.LabelCtx(ctx, connect.FromMask(steps, g.NLat, g.NLon, mask.Data), connect.Conn26, 4, nil)
		if err != nil {
			b.Fatal(err)
		}
		iou = ffn.IoU(mask, lbl)
		connObjects, ffnObjects = len(res.Objects), len(ffnRes.Objects)
	}
	b.ReportMetric(iou, "iou")
	b.ReportMetric(float64(connObjects), "connect-objects")
	b.ReportMetric(float64(ffnObjects), "ffn-objects")
}

// --- Substrate micro-benchmarks (real wall-clock, -benchmem) ----------------

// BenchmarkConv3DForward measures the pure-Go convolution kernel on an
// FFN-sized FOV, the unit of all real training/inference compute.
func BenchmarkConv3DForward(b *testing.B) {
	rng := sim.NewRNG(1)
	in := tensor.New(6, 3, 7, 7)
	w := tensor.New(6, 6, 3, 3, 3)
	w.Randomize(rng, 6*27)
	bias := make([]float32, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.Conv3D(in, w, bias)
	}
}

// BenchmarkConv3DInto measures the allocation-free convolution kernel
// writing into a reused output tensor: steady-state allocs/op must be 0.
func BenchmarkConv3DInto(b *testing.B) {
	rng := sim.NewRNG(1)
	in := tensor.New(6, 3, 7, 7)
	w := tensor.New(6, 6, 3, 3, 3)
	w.Randomize(rng, 6*27)
	bias := make([]float32, 6)
	out := tensor.New(6, 3, 7, 7)
	tensor.Conv3DInto(out, in, w, bias) // warm the task/waitgroup pools
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.Conv3DInto(out, in, w, bias)
	}
}

// followImageNet returns a network of cfg's geometry set by hand so that a
// flood moves exactly where the image says: one input tap copies the image
// into feature 0, the zero-weight residual modules pass it through, and the
// output layer maps image 1 to logit +4 and image 0 to logit -4. The
// arithmetic per application is that of any network of the geometry; only
// where the flood goes is designed. Built through the checkpoint API: the
// serialized model (a header followed by the flat parameter vector, wIn
// first, bOut last) follows the checkpoint's magic and its length.
func followImageNet(b *testing.B, cfg ffn.Config) *ffn.Network {
	b.Helper()
	blank, err := ffn.NewNetwork(cfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	ck := (&ffn.Checkpoint{Net: blank, Opt: tensor.NewSGD(0, 0), BatchPerRound: 1}).EncodeBytes()
	end := 12 + int(binary.LittleEndian.Uint32(ck[8:]))
	params := ck[end-blank.WeightBytes() : end]
	clear(params)
	n := len(params) / 4
	set := func(i int, v float32) { binary.LittleEndian.PutUint32(params[4*i:], math.Float32bits(v)) }
	set(13, 1)               // wIn: feature 0, image channel, center tap
	set(n-1-cfg.Features, 8) // wOut: feature 0
	set(n-1, -4)             // bOut
	net, err := ffn.DecodeCheckpointNet(ck)
	if err != nil {
		b.Fatal(err)
	}
	return net
}

// BenchmarkSegmentWorkers measures flood-fill inference at several worker
// counts (results are identical; only wall-clock changes) on two scenes.
// "ivt" is a synthetic IVT volume under a random 6-feature (3,7,7) network,
// grid-seeded. "imbalanced" is the default 8-feature (5,9,9) geometry over a
// scene built so that a split of the seeds cannot balance it: 24 seeds, 23
// of them isolated (one application, no move) and one reaching every lattice
// center of a block that is most of the volume — what a connect_chain flood
// looks like once its seeds' floods have merged. Each runs both ways of
// spending the workers: "lanes" (flood lanes sharing one frontier, every conv
// serial on its lane) and "one_goroutine" (one flood goroutine, every conv
// forked over the workers). steps/s is network applications per second of
// wall time.
func BenchmarkSegmentWorkers(b *testing.B) {
	g := merra.Grid{NLon: 36, NLat: 24, NLev: 6}
	const steps = 6
	vol := merra.IVTVolume(merra.NewGenerator(g, 11), merra.PressureLevels(g.NLev), 20, steps)
	ivt := &ffn.Volume{D: steps, H: g.NLat, W: g.NLon, Data: append([]float32(nil), vol.Data...)}
	ivt.Normalize()
	ivtCfg := ffn.DefaultConfig()
	ivtCfg.FOV = [3]int{3, 7, 7}
	ivtCfg.Features = 6
	ivtCfg.MoveStep = [3]int{1, 2, 2}
	ivtNet, err := ffn.NewNetwork(ivtCfg, 3)
	if err != nil {
		b.Fatal(err)
	}

	// The block is x >= 24 of a 12x48x72 volume (connect_chain's); the
	// isolated seeds sit in the margin left of it, their move targets
	// (x +/- 3) short of the block.
	cfg := ffn.DefaultConfig()
	block := ffn.NewVolume(12, 48, 72)
	for z := 0; z < block.D; z++ {
		for y := 0; y < block.H; y++ {
			for x := 24; x < block.W; x++ {
				block.Data[(z*block.H+y)*block.W+x] = 1
			}
		}
	}
	seeds := [][3]int{{6, 4, 24}}
	for i := 0; i < 23; i++ {
		seeds = append(seeds, [3]int{2 + i%8, 4 + 3*(i%13), 4 + 7*(i%3)})
	}

	for _, sc := range []struct {
		name  string
		net   *ffn.Network
		img   *ffn.Volume
		seeds [][3]int
	}{
		{"ivt_f6_3x7x7", ivtNet, ivt, ffn.GridSeeds(ivt, ivtCfg.FOV, [3]int{1, 4, 4}, 1.0)},
		{"imbalanced_f8_5x9x9", followImageNet(b, cfg), block, seeds},
	} {
		for _, workers := range []int{1, 2, 4, 8} {
			// A budget no flood reaches keeps the flood on one goroutine and
			// leaves the workers to each conv's fork-join: the other way to
			// spend them, same mask and statistics.
			for _, arm := range []struct {
				name   string
				budget int
			}{{"lanes", 0}, {"one_goroutine", math.MaxInt32}} {
				b.Run(fmt.Sprintf("%s/workers=%d/%s", sc.name, workers, arm.name), func(b *testing.B) {
					prev := parallel.SetWorkers(workers)
					defer parallel.SetWorkers(prev)
					applications := 0
					for i := 0; i < b.N; i++ {
						_, stats, _ := sc.net.SegmentCtx(context.Background(), sc.img, sc.seeds, arm.budget, nil)
						if stats.SeedsUsed != len(sc.seeds) {
							b.Fatalf("%d of %d seeds accepted", stats.SeedsUsed, len(sc.seeds))
						}
						applications += stats.Steps
					}
					b.ReportMetric(float64(applications)/b.Elapsed().Seconds(), "steps/s")
				})
			}
		}
	}
}

// BenchmarkFFNTrainStep measures one real SGD step (forward + backward +
// update) on the experiment-scale network: a batch-1 round on one worker,
// what a sweep candidate runs per step. A batch-1 round never pairs
// examples; a train_dist round's time is ffn's BenchmarkDistTrainRound.
func BenchmarkFFNTrainStep(b *testing.B) {
	cfg := ffn.DefaultConfig()
	cfg.FOV = [3]int{3, 7, 7}
	cfg.Features = 6
	net, err := ffn.NewNetwork(cfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	// A one-FOV volume: every round samples its only center.
	img, lbl := ffn.NewVolume(3, 7, 7), ffn.NewVolume(3, 7, 7)
	tr, err := ffn.NewDistTrainer(net, 0.01, 0.9, img, lbl, 1, 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	defer tr.Release()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Round(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConnectLabel measures the real CONNECT union-find labelling on a
// 16x64x64 volume with ~20% foreground.
func BenchmarkConnectLabel(b *testing.B) {
	rng := sim.NewRNG(2)
	data := make([]float32, 16*64*64)
	for i := range data {
		if rng.Float64() < 0.2 {
			data[i] = 1
		}
	}
	v := connect.FromMask(16, 64, 64, data)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := connect.LabelCtx(ctx, v, connect.Conn26, 0, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIVTComputation measures the real vertical-integration kernel on a
// 96x64x16 grid.
func BenchmarkIVTComputation(b *testing.B) {
	g := merra.Grid{NLon: 96, NLat: 64, NLev: 16}
	gen := merra.NewGenerator(g, 3)
	st := gen.State(0)
	levels := merra.PressureLevels(g.NLev)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		merra.IVT(st, levels)
	}
}

// BenchmarkIVTVolume measures what an ivt job computes: synthesizing the
// atmosphere and integrating it, step by step, into an IVT volume — at the
// connect chain's geometry (72x48x8, 12 steps) and the train_dist job's
// (36x24x4, 6 steps).
func BenchmarkIVTVolume(b *testing.B) {
	for _, c := range []struct {
		name  string
		g     merra.Grid
		steps int
	}{
		{"chain_72x48x8x12", merra.Grid{NLon: 72, NLat: 48, NLev: 8}, 12},
		{"train_36x24x4x6", merra.Grid{NLon: 36, NLat: 24, NLev: 4}, 6},
	} {
		b.Run(c.name, func(b *testing.B) {
			gen := merra.NewGenerator(c.g, 3)
			levels := merra.PressureLevels(c.g.NLev)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				merra.IVTVolume(gen, levels, 0, c.steps).Release()
			}
		})
	}
}

// BenchmarkObjstorePut measures metadata-path object writes with 3x
// replication over 13 OSDs.
func BenchmarkObjstorePut(b *testing.B) {
	eco := core.Nautilus()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eco.Storage.Put("bench", fmt.Sprintf("k-%d", i), 1e6, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNetsimFairShare measures the fluid-flow reallocation cost with
// 200 concurrent flows, the step-1 contention level.
func BenchmarkNetsimFairShare(b *testing.B) {
	for i := 0; i < b.N; i++ {
		clk := sim.NewClock()
		eco := core.Nautilus()
		_ = clk
		for f := 0; f < 200; f++ {
			eco.Net.Transfer("thredds-dtn", "ucsd", 1e9, nil)
		}
		eco.Clock.Run()
	}
}

// BenchmarkQueueThroughput measures in-process queue push/pop pairs.
func BenchmarkQueueThroughput(b *testing.B) {
	s := core.Nautilus().Queue
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.LPush("q", "msg")
		s.RPop("q")
	}
}

// BenchmarkAblationScienceDMZ measures download slowdown under heavy
// background tenant traffic: the Science DMZ overprovisioning claim.
func BenchmarkAblationScienceDMZ(b *testing.B) {
	run := func(load bool) time.Duration {
		eco := core.Nautilus()
		if load {
			for i := 0; i < 20; i++ {
				eco.Net.Transfer("ucsd", "calit2", 1e12, nil)
			}
			for i := 0; i < 20; i++ {
				eco.Net.Transfer("sdsc", "ucmerced", 1e12, nil)
			}
		}
		cfg := core.PaperConnectConfig()
		cfg.Archive = merra.MERRA2().Slice(4000)
		r, err := eco.NewConnectWorkflow(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := r.Workflow.Run(nil); err != nil {
			b.Fatal(err)
		}
		eco.Clock.RunWhile(func() bool {
			return stepReport(r, "1-download").Status != workflow.StatusSucceeded
		})
		return stepReport(r, "1-download").Duration
	}
	var quiet, busy time.Duration
	for i := 0; i < b.N; i++ {
		quiet = run(false)
		busy = run(true)
	}
	b.ReportMetric(quiet.Seconds(), "quiet-vsec")
	b.ReportMetric(busy.Seconds(), "busy-vsec")
	b.ReportMetric(float64(busy)/float64(quiet), "slowdown")
}
