package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"time"

	"chaseci/internal/api"
	"chaseci/internal/auth"
	"chaseci/internal/connect"
	"chaseci/internal/dataset"
	"chaseci/internal/ffn"
	"chaseci/internal/merra"
	"chaseci/internal/metrics"
	"chaseci/internal/objstore"
	"chaseci/internal/parallel"
	"chaseci/internal/queue"
	"chaseci/internal/sched"
	"chaseci/internal/service"
	"chaseci/internal/sim"
	"chaseci/internal/tensor"
	"chaseci/internal/workflow"
)

// Layer probes call the public functions a workload's handlers call,
// directly and on the workload's own inputs, and report the median of at
// least probeReps repetitions. A probe is reported as 0 on a workload whose
// job path never calls the function.
const probeReps = 30

type probeSet struct {
	vals map[string]float64
	reps int
}

// timed reports the median duration of fn over p.reps runs; prep, when
// non-nil, runs untimed before each.
func (p *probeSet) timed(prep, fn func()) time.Duration {
	ds := make([]time.Duration, p.reps)
	for i := range ds {
		if prep != nil {
			prep()
		}
		start := time.Now()
		fn()
		ds[i] = time.Since(start)
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}

// timedBatch is timed for calls too short to time singly: each repetition
// times batch back-to-back calls, and the result is ns per call.
func (p *probeSet) timedBatch(batch int, fn func()) float64 {
	d := p.timed(nil, func() {
		for i := 0; i < batch; i++ {
			fn()
		}
	})
	return float64(d) / float64(batch)
}

var probeSink any // keeps probe results alive so calls are not elided

// probeCommon measures what every job passes through whatever its kind:
// request decoding and validation, token validation, the job-record store,
// the serving-path metrics, and the parallel runtime.
func probeCommon(e *env, p *probeSet) {
	body := e.bodies[0]
	p.vals["api.decode_validate_us"] = p.timedBatch(20, func() {
		var req api.JobRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			panic(err)
		}
		if err := req.Validate(); err != nil {
			panic(err)
		}
	}) / 1e3

	fed := auth.NewFederation(sim.NewClock(), 12*time.Hour, e.seed|1)
	fed.RegisterProvider("UCSD", "ucsd.edu")
	tok, err := fed.Login(tenantUsers[0])
	if err != nil {
		panic(err)
	}
	p.vals["auth.validate_us"] = p.timedBatch(1000, func() {
		if _, err := fed.Validate(tok); err != nil {
			panic(err)
		}
	}) / 1e3

	store := queue.NewStore()
	record := string(mustJSON(api.JobStatus{ID: "job-000001", Kind: api.KindWorkflow, Owner: tenantUsers[0],
		State: api.StateSucceeded, SubmittedAt: 1, StartedAt: 2, FinishedAt: 3}))
	p.vals["queue.set_get_us"] = p.timedBatch(1000, func() {
		store.Set("job:job-000001", record)
		probeSink, _ = store.Get("job:job-000001")
	}) / 1e3

	// The serving path advances the registry's clock to wall time before
	// every touch, so each increment appends a sample; do the same.
	clk := sim.NewClock()
	epoch := time.Now()
	counter := metrics.NewRegistry(clk).Counter("jobs_submitted", metrics.Labels{"kind": "workflow"})
	p.vals["metrics.counter_inc_ns"] = p.timedBatch(1000, func() {
		clk.RunUntil(time.Since(epoch))
		counter.Inc()
	})
	hist := metrics.NewHistogram(1e-6, 10, 15)
	p.vals["metrics.hist_observe_ns"] = p.timedBatch(1000, func() { hist.Observe(0.00015) })

	p.vals["parallel.workers"] = float64(parallel.Workers())
	p.vals["parallel.invoke_us"] = p.timedBatch(100, func() { parallel.For(parallel.Workers(), func(int, int) {}) }) / 1e3
}

func probeCtlTiny(e *env, p *probeSet) {
	// The tiny job through the runner alone: Submit, spin to terminal,
	// Result — no HTTP, no JSON request decoding.
	runner := service.NewRunnerConfigured(service.DefaultRegistry(), queue.NewStore(), service.RunnerConfig{})
	defer runner.Close()
	reps := p.reps * 10
	ds := make([]time.Duration, reps)
	for i := range ds {
		start := time.Now()
		st, err := runner.Submit(tinyRequest(), tenantUsers[0])
		if err != nil {
			panic(err)
		}
		for !st.State.Terminal() {
			runtime.Gosched()
			st, _ = runner.Status(st.ID)
		}
		probeSink, _, _ = runner.Result(st.ID)
		ds[i] = time.Since(start)
	}
	p.vals["service.submit_direct_us"] = us(medianDur(ds))

	// The tiny workflow built and executed the way WorkflowHandler does.
	spec := tinyRequest().Workflow
	p.vals["workflow.execute_us"] = p.timedBatch(20, func() {
		wf := workflow.New(spec.Name, sim.NewClock())
		for _, st := range spec.Steps {
			st := st
			if err := wf.AddStep(workflow.StepSpec{Name: st.Name, DependsOn: st.DependsOn, Run: func(ctx *workflow.Ctx) {
				ctx.After(time.Duration(st.DurationMS)*time.Millisecond, func() { ctx.Done(nil) })
			}}); err != nil {
				panic(err)
			}
		}
		report, err := wf.ExecuteCtx(context.Background())
		if err != nil {
			panic(err)
		}
		probeSink = report.RenderTable()
	}) / 1e3
}

// netShape is the geometry the conv probes run at.
type netShape struct {
	fov      [3]int
	features int
}

// probeConv times one hidden-layer convolution at the net's shape: the
// batched fused forward kernel flood-fill inference runs (batch 8), and
// optionally the backward kernel training runs. Flops and bytes are
// computed from the shapes, not measured.
func probeConv(p *probeSet, ns netShape, backward bool) {
	const batch = ffn.DefaultFloodBatch
	f, d, h, w := ns.features, ns.fov[0], ns.fov[1], ns.fov[2]
	rng := sim.NewRNG(11)
	in := tensor.New(batch, f, d, h, w)
	in.Randomize(rng, 1)
	weight := tensor.New(f, f, 3, 3, 3)
	weight.Randomize(rng, f*27)
	bias := make([]float32, f)
	out := tensor.New(batch, f, d, h, w)
	p.vals["tensor.conv3d_fwd_us"] = us(p.timed(nil, func() { tensor.Conv3DBatchReLUInto(out, in, weight, bias, batch) }))
	p.vals["tensor.conv3d_fwd_flops"] = float64(2 * batch * f * f * 27 * d * h * w)
	p.vals["tensor.conv3d_fwd_bytes"] = float64(4 * (in.Size() + out.Size() + weight.Size()))
	if !backward {
		return
	}
	in1 := tensor.New(f, d, h, w)
	in1.Randomize(rng, 1)
	gradOut := tensor.New(f, d, h, w)
	gradOut.Randomize(rng, 1)
	gradIn := tensor.New(f, d, h, w)
	gradW := tensor.New(f, f, 3, 3, 3)
	gradB := make([]float32, f)
	p.vals["tensor.conv3d_bwd_us"] = us(p.timed(nil, func() {
		tensor.Conv3DBackwardInto(gradIn, gradW, gradB, in1, weight, gradOut)
	}))
}

func probeSegBurst(e *env, p *probeSet) {
	const n = segEdge
	ds := dataset.NewLocal()
	info, err := ds.PutVolume(n, n, n, e.vols[0], tenantUsers[0])
	if err != nil {
		panic(err)
	}
	blob, err := ds.Resolve(info.ID) // the one miss; every later resolve hits
	if err != nil {
		panic(err)
	}
	p.vals["dataset.resolve_hit_us"] = p.timedBatch(100, func() { probeSink, _ = ds.Resolve(info.ID) }) / 1e3
	p.vals["dataset.clone_us"] = us(p.timed(nil, func() { probeSink = blob.CloneData() }))

	var raw *ffn.Volume
	clone := func() { raw = &ffn.Volume{D: n, H: n, W: n, Data: blob.CloneData()} }
	p.vals["ffn.normalize_us"] = us(p.timed(clone, func() { raw.Normalize() }))

	cfg := ffn.DefaultConfig()
	net, err := ffn.NewNetwork(cfg, 3)
	if err != nil {
		panic(err)
	}
	clone()
	image := raw.Normalize()
	seeds := [][3]int{{n / 2, n / 2, n / 2}}
	var mask *ffn.Volume
	var stats ffn.InferenceStats
	p.vals["ffn.segment_ms"] = ms(p.timed(nil, func() {
		mask, stats, _ = net.SegmentCtx(context.Background(), image, seeds, 1, nil)
	}))
	p.vals["ffn.segment_steps"] = float64(stats.Steps)
	// The burst re-puts masks it has stored before: the idempotent path.
	if _, err := ds.PutMask(n, n, n, mask.Data, tenantUsers[0]); err != nil {
		panic(err)
	}
	p.vals["dataset.put_mask_us"] = us(p.timed(nil, func() { probeSink, _ = ds.PutMask(n, n, n, mask.Data, tenantUsers[0]) }))
	probeConv(p, netShape{cfg.FOV, cfg.Features}, false)
}

func ivtVolume(sy api.SynthSpec) *merra.Field3D {
	g := merra.Grid{NLon: sy.NLon, NLat: sy.NLat, NLev: sy.NLev}
	vol, err := merra.IVTVolumeCtx(context.Background(), merra.NewGenerator(g, sy.Seed),
		merra.PressureLevels(g.NLev), sy.Start, sy.Steps, nil)
	if err != nil {
		panic(err)
	}
	return vol
}

// probeChains is how many of the run's first chains the chain probes cycle
// through: one chain's flood can be several times another's, so a single
// chain would not stand for the workload.
const probeChains = 8

// chainInput is one chain's data at each stage of the spine.
type chainInput struct {
	synth api.SynthSpec
	field []float32   // the IVT volume
	seeds [][3]int    // grid seeds over the raw field
	image *ffn.Volume // the normalized field
	mask  *ffn.Volume // the flood's result
}

func probeConnectChain(e *env, p *probeSet) {
	cfg := ffn.DefaultConfig()
	net, err := ffn.NewNetwork(cfg, chainNetSeed)
	if err != nil {
		panic(err)
	}
	sy := chainSynth(e.seed, 0)
	d, h, w := sy.Steps, sy.NLat, sy.NLon
	volume := func(data []float32) *ffn.Volume {
		return &ffn.Volume{D: d, H: h, W: w, Data: append([]float32(nil), data...)}
	}
	n := min(probeChains, p.reps)
	inputs := make([]*chainInput, n)
	var steps, objects []float64
	for k := range inputs {
		in := &chainInput{synth: chainSynth(e.seed, k)}
		in.field = ivtVolume(in.synth).Data
		raw := volume(in.field)
		in.seeds = ffn.GridSeeds(raw, cfg.FOV, cfg.FOV, chainThreshold)
		in.image = raw.Normalize()
		var stats ffn.InferenceStats
		in.mask, stats, _ = net.SegmentCtx(context.Background(), in.image, in.seeds, 0, nil)
		steps = append(steps, float64(stats.Steps))
		inputs[k] = in
	}
	// Each repetition of a probe takes the next chain in turn.
	var cur *chainInput
	turn := 0
	next := func() { cur = inputs[turn%n]; turn++ }

	p.vals["merra.ivt_volume_ms"] = ms(p.timed(next, func() { probeSink = ivtVolume(cur.synth) }))
	var raw *ffn.Volume
	p.vals["ffn.grid_seeds_us"] = us(p.timed(func() { next(); raw = volume(cur.field) }, func() {
		probeSink = ffn.GridSeeds(raw, cfg.FOV, cfg.FOV, chainThreshold)
	}))
	p.vals["ffn.normalize_us"] = us(p.timed(func() { next(); raw = volume(cur.field) }, func() { raw.Normalize() }))
	p.vals["ffn.segment_ms"] = ms(p.timed(next, func() {
		probeSink, _, _ = net.SegmentCtx(context.Background(), cur.image, cur.seeds, 0, nil)
	}))
	p.vals["ffn.segment_steps"] = medianOf(steps).Median
	probeConv(p, netShape{cfg.FOV, cfg.Features}, false)
	var labelled *connect.Result
	p.vals["connect.label_ms"] = ms(p.timed(next, func() {
		// The handler thresholds the mask into a connect volume first.
		vol := connect.FromMask(d, h, w, cur.mask.Data)
		labelled, _ = connect.LabelCtx(context.Background(), vol, connect.Conn26, 0, nil)
		objects = append(objects, float64(len(labelled.Objects)))
	}))
	p.vals["connect.objects"] = medianOf(objects).Median

	// Every chain writes content the store has never seen and reads it back
	// cold, so each repetition perturbs one voxel to get a fresh address.
	ds := dataset.NewLocal()
	fresh := append([]float32(nil), inputs[0].field...)
	rep := 0
	perturb := func() { rep++; fresh[rep%len(fresh)] += 1e-3 }
	var info dataset.Info
	putVolume := func() {
		var err error
		if info, err = ds.PutVolume(d, h, w, fresh, tenantUsers[0]); err != nil {
			panic(err)
		}
	}
	p.vals["dataset.put_volume_us"] = us(p.timed(perturb, putVolume))
	var blob *dataset.Blob
	p.vals["dataset.resolve_miss_us"] = us(p.timed(func() { perturb(); putVolume() }, func() {
		var err error
		if blob, err = ds.Resolve(info.ID); err != nil {
			panic(err)
		}
	}))
	p.vals["dataset.clone_us"] = us(p.timed(nil, func() { probeSink = blob.CloneData() }))
	maskData := append([]float32(nil), inputs[0].mask.Data...)
	flip := func() { rep++; i := rep % len(maskData); maskData[i] = 1 - maskData[i] }
	p.vals["dataset.put_mask_us"] = us(p.timed(flip, func() {
		if _, err := ds.PutMask(d, h, w, maskData, tenantUsers[0]); err != nil {
			panic(err)
		}
	}))

	// A 1 MB object through a mount replicated like the fabric's.
	store := objstore.NewStore(sim.NewClock(), nil, objstore.Config{Replicas: 2})
	for i := 0; i < 3; i++ {
		store.AddOSD(fmt.Sprintf("osd-%d", i), "local", 1e12, 1)
	}
	mount := store.MountBucket("probe")
	object := make([]byte, 1<<20)
	p.vals["objstore.write_us"] = us(p.timed(nil, func() {
		if err := mount.WriteFile("object", object); err != nil {
			panic(err)
		}
	}))
	p.vals["objstore.read_us"] = us(p.timed(nil, func() { probeSink, _ = mount.ReadFile("object") }))

	// Placement of a segment job whose ref lives on the fabric.
	fab := sched.DefaultFabric()
	placed, err := fab.Datasets.PutVolume(d, h, w, inputs[0].field, tenantUsers[0])
	if err != nil {
		panic(err)
	}
	sc := sched.New(fab)
	wl := &sched.Workload{JobID: "job-000001", Kind: api.KindSegment, Owner: tenantUsers[0],
		Refs: []string{placed.ID}, Voxels: float64(d * h * w)}
	p.vals["sched.place_us"] = p.timedBatch(20, func() {
		if _, err := sc.Place(wl); err != nil {
			panic(err)
		}
		sc.Release(wl.JobID)
	}) / 1e3
}

func probeTrainDist(e *env, p *probeSet) {
	sy := trainSynth(e.seed)
	var field *merra.Field3D
	p.vals["merra.ivt_volume_ms"] = ms(p.timed(nil, func() { field = ivtVolume(sy) }))
	d, h, w := sy.Steps, sy.NLat, sy.NLon
	labels := ffn.NewVolume(d, h, w)
	for i, v := range field.Data {
		if v >= trainThreshold {
			labels.Data[i] = 1
		}
	}
	var work *ffn.Volume
	clone := func() { work = &ffn.Volume{D: d, H: h, W: w, Data: append([]float32(nil), field.Data...)} }
	p.vals["ffn.normalize_us"] = us(p.timed(clone, func() { work.Normalize() }))
	clone()
	image := work.Normalize()

	cfg := ffn.DefaultConfig()
	cfg.FOV, cfg.Features, cfg.MoveStep = trainNet.FOV, trainNet.Features, trainNet.MoveStep
	net, err := ffn.NewNetwork(cfg, trainNetSeed)
	if err != nil {
		panic(err)
	}
	tr, err := ffn.NewDistTrainer(net, trainLR, trainMomentum, image, labels, mix(e.seed, 6, 0), trainBatch, e.nproc)
	if err != nil {
		panic(err)
	}
	p.vals["ffn.comm_bytes_per_round"] = tr.CommBytesPerRound()
	ds := dataset.NewLocal()
	rounds := make([]time.Duration, p.reps)
	encodes := make([]time.Duration, p.reps)
	puts := make([]time.Duration, p.reps)
	for i := 0; i < p.reps; i++ {
		start := time.Now()
		if _, err := tr.Round(context.Background()); err != nil {
			panic(err)
		}
		rounds[i] = time.Since(start)
		start = time.Now()
		ck := tr.CheckpointBytes()
		encodes[i] = time.Since(start)
		start = time.Now()
		enc, err := dataset.EncodeCheckpoint(ck)
		if err != nil {
			panic(err)
		}
		if _, err := ds.Put(enc, tenantUsers[0]); err != nil {
			panic(err)
		}
		puts[i] = time.Since(start)
	}
	p.vals["ffn.train_round_ms"] = ms(medianDur(rounds))
	p.vals["ffn.checkpoint_encode_us"] = us(medianDur(encodes))
	p.vals["dataset.put_checkpoint_us"] = us(medianDur(puts))
	probeConv(p, netShape{cfg.FOV, cfg.Features}, true)
}
