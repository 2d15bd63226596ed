// Command benchjson runs the repository's kernel and service
// micro-benchmarks through testing.Benchmark and emits machine-readable
// JSON — the format BENCH_PR*.json files and the CI bench artifact use to
// track the performance trajectory across PRs.
//
//	benchjson                 run everything, JSON to stdout
//	benchjson -bench conv     substring filter on benchmark names
//	benchjson -out bench.json write to a file instead of stdout
//	benchjson -list           print benchmark names and exit
//
// Each benchmark runs with the testing package's default 1s target time;
// results carry ns/op, B/op, allocs/op, and any custom b.ReportMetric
// values (the pipeline entries report their segmentation step counts so
// divergence between modes is visible in the trajectory, not just time).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"chaseci/internal/api"
	"chaseci/internal/cluster"
	"chaseci/internal/connect"
	"chaseci/internal/dataset"
	"chaseci/internal/ffn"
	"chaseci/internal/gpusim"
	"chaseci/internal/loadtest"
	"chaseci/internal/merra"
	"chaseci/internal/netsim"
	"chaseci/internal/queue"
	"chaseci/internal/scenario"
	"chaseci/internal/sched"
	"chaseci/internal/service"
	"chaseci/internal/sim"
	"chaseci/internal/tensor"
)

// Result is one benchmark's machine-readable outcome.
type Result struct {
	Name        string             `json:"name"`
	Iterations  int                `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Report is the full output document.
type Report struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// CPU capability flags for the SIMD kernel series: benchgate skips
	// SIMD-dependent comparisons when baseline and current machine disagree.
	SpanKernels bool     `json:"span_kernels"`
	Int8VNNI    bool     `json:"int8_vnni"`
	Timestamp   string   `json:"timestamp"`
	Results     []Result `json:"results"`
}

type benchCase struct {
	name string
	fn   func(b *testing.B)
}

func main() {
	var (
		filter = flag.String("bench", "", "run only benchmarks whose name contains this substring")
		out    = flag.String("out", "", "write JSON to this file (default stdout)")
		list   = flag.Bool("list", false, "list benchmark names and exit")
	)
	flag.Parse()

	cases := benchCases()
	if *list {
		for _, c := range cases {
			fmt.Println(c.name)
		}
		return
	}

	rep := Report{
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		SpanKernels: tensor.SpanKernelsActive(),
		Int8VNNI:    tensor.QuantAsmActive(),
		Timestamp:   time.Now().UTC().Format(time.RFC3339),
	}
	for _, c := range cases {
		if *filter != "" && !strings.Contains(c.name, *filter) {
			continue
		}
		fmt.Fprintf(os.Stderr, "benchjson: running %s...\n", c.name)
		r := testing.Benchmark(c.fn)
		res := Result{
			Name:        c.name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		if len(r.Extra) > 0 {
			res.Metrics = make(map[string]float64, len(r.Extra))
			for k, v := range r.Extra {
				res.Metrics[k] = v
			}
		}
		rep.Results = append(rep.Results, res)
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// benchConvBatch8 is the shared batch-8 f32 conv workload behind the
// conv3d_span / conv3d_scalar pair.
func benchConvBatch8(b *testing.B) {
	rng := sim.NewRNG(1)
	in := tensor.New(8, 6, 3, 7, 7)
	in.Randomize(rng, 27)
	w := tensor.New(6, 6, 3, 3, 3)
	w.Randomize(rng, 6*27)
	bias := make([]float32, 6)
	out := tensor.New(8, 6, 3, 7, 7)
	tensor.Conv3DBatchInto(out, in, w, bias, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.Conv3DBatchInto(out, in, w, bias, 0)
	}
}

// segmentSceneInt8 is segmentScene with quantized inference enabled.
func segmentSceneInt8(floodBatch int) (*ffn.Network, *ffn.Volume, [][3]int) {
	net, img, seeds := segmentScene(floodBatch)
	cfg := net.Config()
	cfg.Precision = ffn.PrecisionInt8
	qnet, err := ffn.NewNetwork(cfg, 3)
	if err != nil {
		panic(err)
	}
	return qnet, img, seeds
}

// segmentScene builds the shared flood-fill benchmark scene (the same
// geometry bench_test.go's BenchmarkSegmentWorkers uses).
func segmentScene(floodBatch int) (*ffn.Network, *ffn.Volume, [][3]int) {
	g := merra.Grid{NLon: 36, NLat: 24, NLev: 6}
	gen := merra.NewGenerator(g, 11)
	vol := merra.IVTVolume(gen, merra.PressureLevels(g.NLev), 20, 6)
	img := &ffn.Volume{D: 6, H: g.NLat, W: g.NLon, Data: append([]float32(nil), vol.Data...)}
	img.Normalize()
	cfg := ffn.DefaultConfig()
	cfg.FOV = [3]int{3, 7, 7}
	cfg.Features = 6
	cfg.MoveStep = [3]int{1, 2, 2}
	cfg.FloodBatch = floodBatch
	net, err := ffn.NewNetwork(cfg, 3)
	if err != nil {
		panic(err)
	}
	seeds := ffn.GridSeeds(img, cfg.FOV, [3]int{1, 4, 4}, 1.0)
	return net, img, seeds
}

// pipelineRequest builds the overlap-vs-sequential pipeline benchmark job.
func pipelineRequest(sequential bool) *api.JobRequest {
	return &api.JobRequest{
		Kind: api.KindPipeline,
		Pipeline: &api.PipelineSpec{
			Synth:      api.SynthSpec{NLon: 72, NLat: 48, NLev: 24, Steps: 12, Seed: 11},
			SlabSteps:  3,
			Threshold:  120,
			Net:        &api.NetConfig{FOV: [3]int{3, 9, 9}, Features: 6, MoveProb: 0.6},
			SeedStride: [3]int{1, 4, 4},
			Sequential: sequential,
		},
	}
}

func benchCases() []benchCase {
	return []benchCase{
		{"conv3d_into", func(b *testing.B) {
			rng := sim.NewRNG(1)
			in := tensor.New(6, 3, 7, 7)
			w := tensor.New(6, 6, 3, 3, 3)
			w.Randomize(rng, 6*27)
			bias := make([]float32, 6)
			out := tensor.New(6, 3, 7, 7)
			tensor.Conv3DInto(out, in, w, bias)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tensor.Conv3DInto(out, in, w, bias)
			}
		}},
		{"conv3d_batch8_into", func(b *testing.B) {
			rng := sim.NewRNG(1)
			in := tensor.New(8, 6, 3, 7, 7)
			w := tensor.New(6, 6, 3, 3, 3)
			w.Randomize(rng, 6*27)
			bias := make([]float32, 6)
			out := tensor.New(8, 6, 3, 7, 7)
			tensor.Conv3DBatchInto(out, in, w, bias, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tensor.Conv3DBatchInto(out, in, w, bias, 0)
			}
		}},
		{"conv3d_batch8_relu_into", func(b *testing.B) {
			rng := sim.NewRNG(1)
			in := tensor.New(8, 6, 3, 7, 7)
			w := tensor.New(6, 6, 3, 3, 3)
			w.Randomize(rng, 6*27)
			bias := make([]float32, 6)
			out := tensor.New(8, 6, 3, 7, 7)
			tensor.Conv3DBatchReLUInto(out, in, w, bias, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tensor.Conv3DBatchReLUInto(out, in, w, bias, 0)
			}
		}},
		{"conv3d_span", func(b *testing.B) {
			// The batch8 workload with the SIMD span kernels pinned on: the
			// series PR 6's >=1.5x span-vs-scalar bar is measured against.
			if !tensor.SpanKernelsActive() {
				b.Skip("span kernels unavailable on this CPU")
			}
			benchConvBatch8(b)
		}},
		{"conv3d_scalar", func(b *testing.B) {
			// The same workload through the bit-exact scalar fallback — the
			// denominator of the span speedup, runnable on any machine.
			prev := tensor.SetSpanKernels(false)
			defer tensor.SetSpanKernels(prev)
			benchConvBatch8(b)
		}},
		{"conv3d_int8", func(b *testing.B) {
			if !tensor.QuantAsmActive() {
				b.Skip("int8 VNNI kernel unavailable on this CPU")
			}
			rng := sim.NewRNG(1)
			in := tensor.New(8, 6, 3, 7, 7)
			in.Randomize(rng, 27)
			w := tensor.New(6, 6, 3, 3, 3)
			w.Randomize(rng, 6*27)
			qw := tensor.QuantizeWeights(w)
			bias := make([]float32, 6)
			out := tensor.New(8, 6, 3, 7, 7)
			tensor.Conv3DBatchQInto(out, in, qw, bias, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tensor.Conv3DBatchQInto(out, in, qw, bias, 0)
			}
		}},
		{"ffn_train_step", func(b *testing.B) {
			cfg := ffn.DefaultConfig()
			cfg.FOV = [3]int{3, 7, 7}
			cfg.Features = 6
			net, err := ffn.NewNetwork(cfg, 1)
			if err != nil {
				b.Fatal(err)
			}
			opt := tensor.NewSGD(0.01, 0.9)
			img := tensor.New(1, 3, 7, 7)
			lab := tensor.New(1, 3, 7, 7)
			net.TrainStep(opt, img, lab)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.TrainStep(opt, img, lab)
			}
		}},
		{"segment_batch1", func(b *testing.B) {
			net, img, seeds := segmentScene(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.Segment(img, seeds, 0)
			}
		}},
		{"segment_batch8", func(b *testing.B) {
			net, img, seeds := segmentScene(8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.Segment(img, seeds, 0)
			}
		}},
		{"segment_int8", func(b *testing.B) {
			// The same flood as segment_batch8 with Precision int8: PR 6's
			// >=1.3x quantized-vs-f32 bar is segment_batch8 / segment_int8.
			if !tensor.QuantAsmActive() {
				b.Skip("int8 VNNI kernel unavailable on this CPU")
			}
			net, img, seeds := segmentSceneInt8(8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.Segment(img, seeds, 0)
			}
		}},
		{"ivt_computation", func(b *testing.B) {
			g := merra.Grid{NLon: 96, NLat: 64, NLev: 16}
			gen := merra.NewGenerator(g, 3)
			st := gen.State(0)
			levels := merra.PressureLevels(g.NLev)
			merra.IVT(st, levels)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				merra.IVT(st, levels)
			}
		}},
		{"connect_label", func(b *testing.B) {
			rng := sim.NewRNG(2)
			v := connect.NewVolume(16, 64, 64)
			for i := range v.Data {
				if rng.Float64() < 0.2 {
					v.Data[i] = 1
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				connect.Label(v, connect.Conn26, 0)
			}
		}},
		{"status_poll", func(b *testing.B) {
			r := service.NewRunnerConfigured(service.DefaultRegistry(), queue.NewStore(), service.RunnerConfig{Workers: 1})
			defer r.Close()
			st, err := r.Submit(&api.JobRequest{Kind: api.KindWorkflow, Workflow: &api.WorkflowSpec{
				Name:  "poll",
				Steps: []api.WorkflowStep{{Name: "s", DurationMS: 1}},
			}}, "")
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := r.Status(st.ID); !ok {
					b.Fatal("job disappeared")
				}
			}
		}},
		{"pipeline_overlapped", func(b *testing.B) {
			benchPipeline(b, pipelineRequest(false))
		}},
		{"pipeline_sequential", func(b *testing.B) {
			benchPipeline(b, pipelineRequest(true))
		}},
		{"job_submit_inline_64cubed", func(b *testing.B) {
			benchSubmit(b, false)
		}},
		{"job_submit_ref_64cubed", func(b *testing.B) {
			benchSubmit(b, true)
		}},
		{"sched_place_64cubed", benchSchedPlace},
		{"sched_requeue_nodeloss", benchSchedRequeue},
		{"train_dist_4w", benchTrainDist4w},
		{"sweep_grid8", benchSweepGrid8},
		{"scenario_nodeloss_pipeline", benchScenarioNodeLoss},
		{"serve_sustained_200rps", benchServeSustained},
		{"serve_overload_shed", benchServeOverload},
		{"registry_poll_parallel_sharded", func(b *testing.B) {
			benchRegistryPollParallel(b, 32)
		}},
		{"registry_poll_parallel_single", func(b *testing.B) {
			benchRegistryPollParallel(b, 1)
		}},
	}
}

// tinyWorkflowBody is the cheapest valid job the registry accepts — the
// sustained-serving payload (1ms of virtual step time).
func tinyWorkflowBody() []byte {
	body, _ := json.Marshal(&api.JobRequest{
		Kind: api.KindWorkflow,
		Name: "sustained",
		Workflow: &api.WorkflowSpec{
			Name:  "sustained",
			Steps: []api.WorkflowStep{{Name: "s", DurationMS: 1}},
		},
	})
	return body
}

// reportServe publishes a loadtest report as benchjson metrics. violations
// is the gate: a sustained run must never fail a request or lose an
// accepted job, and an overload run must actually shed.
func reportServe(b *testing.B, rep *loadtest.Report, violations float64) {
	b.ReportMetric(rep.AcceptedRPS, "accepted-rps")
	b.ReportMetric(float64(rep.Shed), "shed")
	b.ReportMetric(float64(rep.SubmitP50.Microseconds()), "submit-p50-us")
	b.ReportMetric(float64(rep.SubmitP99.Microseconds()), "submit-p99-us")
	b.ReportMetric(float64(rep.E2EP50.Microseconds()), "e2e-p50-us")
	b.ReportMetric(float64(rep.E2EP99.Microseconds()), "e2e-p99-us")
	b.ReportMetric(violations, "violations")
}

// benchServeSustained is the serving headline: an open-loop 200 RPS run
// with 4 tenant identities against the full in-process gateway, every
// accepted job polled to terminal. Its ns/op is just the window length;
// the payload is the latency-quantile metrics, and the violations metric
// pins "nothing failed, everything accepted completed".
func benchServeSustained(b *testing.B) {
	runner := service.NewRunnerConfigured(service.DefaultRegistry(), queue.NewStore(), service.RunnerConfig{Workers: 4})
	defer runner.Close()
	srv := httptest.NewServer(service.NewGateway(runner, service.GatewayOptions{
		Providers:    map[string]string{"ucsd.edu": "UCSD", "sdsc.edu": "SDSC"},
		TokenTTL:     time.Hour,
		PollInterval: 2 * time.Millisecond,
		TokenSeed:    1,
	}))
	defer srv.Close()
	tenants, err := loadtest.Login(srv.URL, nil,
		"a@ucsd.edu", "b@ucsd.edu", "c@sdsc.edu", "d@sdsc.edu")
	if err != nil {
		b.Fatal(err)
	}
	body := tinyWorkflowBody()

	var rep *loadtest.Report
	var violations float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err = loadtest.Run(context.Background(), loadtest.Config{
			BaseURL:      srv.URL,
			RPS:          200,
			Duration:     300 * time.Millisecond,
			Tenants:      tenants,
			Body:         body,
			WaitTerminal: true,
			PollInterval: 2 * time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		violations += float64(rep.Failed) + float64(rep.Accepted-rep.Completed)
	}
	b.StopTimer()
	reportServe(b, rep, violations)
}

// benchServeOverload floods a deliberately tiny deployment (1 worker, 8/16
// pending bounds, 5ms wall-time jobs) far past capacity: the gateway must
// shed with 429 while the pending queue stays at its bound. violations
// counts runs that failed a request, didn't shed, or let the queue grow
// past the bound.
func benchServeOverload(b *testing.B) {
	var rep *loadtest.Report
	var violations float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Fresh stack per iteration: leftover backlog must not leak into
		// the next window's shed profile.
		reg := service.NewRegistry()
		reg.Register(api.KindWorkflow, func(jc *service.JobContext) (any, error) {
			select {
			case <-time.After(5 * time.Millisecond):
				return nil, nil
			case <-jc.Ctx().Done():
				return nil, jc.Ctx().Err()
			}
		})
		runner := service.NewRunnerConfigured(reg, queue.NewStore(), service.RunnerConfig{
			Workers: 1, MaxPendingPerTenant: 8, MaxPending: 16,
		})
		srv := httptest.NewServer(service.NewGateway(runner, service.GatewayOptions{
			AllowAnonymous: true,
			PollInterval:   2 * time.Millisecond,
			TokenSeed:      1,
		}))
		var err error
		rep, err = loadtest.Run(context.Background(), loadtest.Config{
			BaseURL:  srv.URL,
			RPS:      500,
			Duration: 300 * time.Millisecond,
			Body:     tinyWorkflowBody(),
		})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Failed > 0 || rep.Shed == 0 || runner.PendingTotal() > 16 {
			violations++
		}
		srv.Close()
		runner.Close()
	}
	b.StopTimer()
	reportServe(b, rep, violations)
}

// benchRegistryPollParallel measures the status-poll fast path under
// parallel load (8 goroutines per GOMAXPROCS) for a given registry stripe
// count: the sharded/single pair quantifies the lock-striping win, and
// allocs/op pins the poll path at zero allocations even under contention.
func benchRegistryPollParallel(b *testing.B, shardCount int) {
	r := service.NewRunnerConfigured(service.DefaultRegistry(), queue.NewStore(), service.RunnerConfig{
		Workers: 2, Shards: shardCount,
	})
	defer r.Close()
	ids := make([]string, 256)
	for i := range ids {
		st, err := r.Submit(&api.JobRequest{Kind: api.KindWorkflow, Workflow: &api.WorkflowSpec{
			Name:  "seed",
			Steps: []api.WorkflowStep{{Name: "s", DurationMS: 1}},
		}}, "bench@ucsd.edu")
		if err != nil {
			b.Fatal(err)
		}
		ids[i] = st.ID
	}
	b.ReportAllocs()
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			i++
			if _, ok := r.Status(ids[(i*7)&255]); !ok {
				b.Fatal("job disappeared")
			}
		}
	})
}

// benchScenarioNodeLoss runs a full chaos replay per iteration: a pipeline
// job is held mid-execution, its node is killed and restored, and the engine
// verifies bit-exactness against an undisturbed baseline world. ns/op is the
// end-to-end recover-and-verify latency; violations/op must stay 0.
func benchScenarioNodeLoss(b *testing.B) {
	sc := scenario.Script{
		Name: "nodeloss_pipeline",
		Jobs: []scenario.JobSpec{{Kind: "pipeline", Deferred: true}},
		Events: []scenario.Action{
			{Kind: scenario.ActHoldNext, Count: 1},
			{Kind: scenario.ActSubmit, Job: 0},
			{Kind: scenario.ActAwaitHold},
			{Kind: scenario.ActKillNode, Job: 0},
			{Kind: scenario.ActRestoreNode},
		},
	}
	var violations float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := scenario.Run(sc, scenario.Options{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		violations += float64(len(res.Violations))
	}
	b.ReportMetric(violations, "violations")
}

// benchFabric builds the two-site/two-OSD fabric the scheduler benchmarks
// score against and uploads one 64^3 volume (replicated on both OSDs).
func benchFabric(b *testing.B) (*sched.Fabric, string) {
	b.Helper()
	f := sched.NewFabric(sched.FabricConfig{Replicas: 2})
	f.AddSite("ucsd")
	f.AddSite("sdsu")
	f.AddLink("ucsd", "sdsu", netsim.Gbps(40), 2*time.Millisecond)
	for i, site := range []string{"ucsd", "sdsu"} {
		err := f.AddNode(sched.NodeSpec{
			Name:     fmt.Sprintf("fiona-%d", i),
			Site:     site,
			Capacity: cluster.FIONA8Capacity(),
			Model:    gpusim.Powered1080Ti(),
			OSD:      "osd-" + site,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	const n = 64
	data := make([]float32, n*n*n)
	for i := range data {
		data[i] = float32(i%251) * 0.7
	}
	enc, err := dataset.EncodeVolume(n, n, n, data)
	if err != nil {
		b.Fatal(err)
	}
	info, err := f.Datasets.Put(enc, "")
	if err != nil {
		b.Fatal(err)
	}
	return f, info.ID
}

// benchSchedPlace measures one data-gravity placement decision for a 64^3
// ref-mode segment job: resolve replicas, score both nodes, claim, release.
// locality-hits/op pins that every decision stays replica-local.
func benchSchedPlace(b *testing.B) {
	f, ref := benchFabric(b)
	s := sched.New(f)
	w := &sched.Workload{
		JobID: "bench", Kind: api.KindSegment, Owner: "bench",
		Refs: []string{ref}, Voxels: 64 * 64 * 64,
	}
	var hits float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl, err := s.Place(w)
		if err != nil || pl == nil {
			b.Fatalf("place: %v %v", pl, err)
		}
		if pl.Locality == api.LocalityReplicaLocal {
			hits = 1
		}
		s.Release(w.JobID)
	}
	b.ReportMetric(hits, "locality-hits/op")
}

// benchSchedRequeue measures the full node-loss cycle: the bound node (and
// its OSD) fails, the job re-places against the surviving replica holder,
// and the dead node returns. ns/op is the requeue latency the EXPERIMENTS
// table tracks.
func benchSchedRequeue(b *testing.B) {
	f, ref := benchFabric(b)
	s := sched.New(f)
	s.OnDrain(func(string, []string) {}) // service-layer requeue is the Place below
	w := &sched.Workload{
		JobID: "bench", Kind: api.KindSegment, Owner: "bench",
		Refs: []string{ref}, Voxels: 64 * 64 * 64,
	}
	pl, err := s.Place(w)
	if err != nil || pl == nil {
		b.Fatalf("place: %v %v", pl, err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		victim := pl.Node
		if err := s.KillNode(victim); err != nil {
			b.Fatal(err)
		}
		pl, err = s.Place(w)
		if err != nil || pl == nil {
			b.Fatalf("requeue place: %v %v", pl, err)
		}
		if pl.Node == victim {
			b.Fatalf("requeued onto the dead node %s", victim)
		}
		if err := s.RestoreNode(victim); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSubmit measures the data plane's acceptance quantity: gateway bytes
// per 64^3 segment job submitted inline versus by content-addressed ref
// (the volume uploaded once, untimed). The wire-bytes/op metric is the
// ratio BENCH_PR4.json tracks; the bar is >= 5x fewer for ref.
func benchSubmit(b *testing.B, byRef bool) {
	runner := service.NewRunnerConfigured(service.DefaultRegistry(), queue.NewStore(), service.RunnerConfig{Workers: 2})
	defer runner.Close()
	gw := service.NewGateway(runner, service.GatewayOptions{AllowAnonymous: true, TokenSeed: 1})
	srv := httptest.NewServer(gw)
	defer srv.Close()

	const n = 64
	data := make([]float32, n*n*n)
	for i := range data {
		data[i] = float32(i%251) * 0.7
	}
	spec := &api.SegmentSpec{
		Seeds:      [][3]int{{32, 32, 32}},
		MaxSteps:   1,
		ReturnMask: true,
	}
	req := &api.JobRequest{Kind: api.KindSegment, Segment: spec}
	if byRef {
		enc, err := dataset.EncodeVolume(n, n, n, data)
		if err != nil {
			b.Fatal(err)
		}
		info, err := runner.Datasets().Put(enc, "")
		if err != nil {
			b.Fatal(err)
		}
		spec.Source = api.VolumeSource{Ref: info.ID}
		req.ResultMode = api.ResultModeRef
	} else {
		spec.Source = api.VolumeSource{D: n, H: n, W: n, Data: data}
	}
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}

	var wire int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wire = int64(len(body))
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		ack, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			b.Fatal(err)
		}
		wire += int64(len(ack))
		var sub api.SubmitResponse
		if err := json.Unmarshal(ack, &sub); err != nil || sub.ID == "" {
			b.Fatalf("submit failed: %s", ack)
		}
		st := waitTerminal(runner, sub.ID)
		if st.State != api.StateSucceeded {
			b.Fatalf("job %s: %s (%s)", sub.ID, st.State, st.Error)
		}
		resp, err = http.Get(srv.URL + "/v1/jobs/" + sub.ID + "/result")
		if err != nil {
			b.Fatal(err)
		}
		env, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			b.Fatal(err)
		}
		wire += int64(len(env))
	}
	b.ReportMetric(float64(wire), "wire-bytes/op")
}

// benchTrainDist4w runs one 4-worker data-parallel training job end to end
// per iteration — the EXPERIMENTS scaling row divides this against a
// 1-worker run of the same spec. loss-tail pins that the measured workload
// actually learns; comm-mbytes is the modeled ring all-reduce traffic.
func benchTrainDist4w(b *testing.B) {
	r := service.NewRunnerConfigured(service.DefaultRegistry(), queue.NewStore(), service.RunnerConfig{Workers: 4})
	defer r.Close()
	req := &api.JobRequest{
		Kind: api.KindTrainDist,
		TrainDist: &api.TrainDistSpec{
			Source:        api.VolumeSource{Synth: &api.SynthSpec{NLon: 36, NLat: 24, NLev: 4, Steps: 6, Seed: 11}},
			Threshold:     130,
			Workers:       4,
			Rounds:        12,
			BatchPerRound: 16,
			Net:           &api.NetConfig{FOV: [3]int{3, 7, 7}, Features: 6, MoveStep: [3]int{1, 2, 2}},
			NetSeed:       7,
			SampleSeed:    7,
		},
	}
	var res api.TrainDistResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := r.Submit(req, "")
		if err != nil {
			b.Fatal(err)
		}
		final := waitTerminal(r, st.ID)
		if final.State != api.StateSucceeded {
			b.Fatalf("train_dist state %s: %s", final.State, final.Error)
		}
		raw, _, _ := r.Result(st.ID)
		if err := json.Unmarshal(raw, &res); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.LossTail, "loss-tail")
	b.ReportMetric(res.CommBytes/1e6, "comm-mbytes")
}

// benchSweepGrid8 fans an 8-candidate hyperparameter grid through the fair
// queue per iteration (no early stop, so the workload is fixed); the
// EXPERIMENTS sweep-throughput row is 8 candidates divided by ns/op.
func benchSweepGrid8(b *testing.B) {
	r := service.NewRunnerConfigured(service.DefaultRegistry(), queue.NewStore(), service.RunnerConfig{Workers: 4})
	defer r.Close()
	req := &api.JobRequest{
		Kind: api.KindSweep,
		Sweep: &api.SweepSpec{
			Source:        api.VolumeSource{Synth: &api.SynthSpec{NLon: 36, NLat: 24, NLev: 4, Steps: 6, Seed: 11}},
			Threshold:     130,
			TrainFraction: 0.67,
			LRs:           []float32{0.01, 0.03},
			Momentums:     []float32{0.9},
			Features:      []int{4, 6},
			Modules:       []int{1, 2},
			TrainSteps:    []int{30},
			Parallel:      4,
			Seed:          5,
		},
	}
	var res api.SweepResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := r.Submit(req, "")
		if err != nil {
			b.Fatal(err)
		}
		final := waitTerminal(r, st.ID)
		if final.State != api.StateSucceeded {
			b.Fatalf("sweep state %s: %s", final.State, final.Error)
		}
		raw, _, _ := r.Result(st.ID)
		if err := json.Unmarshal(raw, &res); err != nil {
			b.Fatal(err)
		}
		if res.Candidates != 8 {
			b.Fatalf("sweep expanded %d candidates, want 8", res.Candidates)
		}
	}
	b.ReportMetric(float64(res.Candidates), "candidates")
	b.ReportMetric(res.Best.F1, "best-f1")
}

// benchPipeline runs a pipeline job end to end per iteration through an
// in-process runner and reports its segmentation step count so the
// overlapped/sequential entries are verifiably the same workload.
func benchPipeline(b *testing.B, req *api.JobRequest) {
	r := service.NewRunnerConfigured(service.DefaultRegistry(), queue.NewStore(), service.RunnerConfig{Workers: 4})
	defer r.Close()
	var segSteps float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := r.Submit(req, "")
		if err != nil {
			b.Fatal(err)
		}
		final := waitTerminal(r, st.ID)
		if final.State != api.StateSucceeded {
			b.Fatalf("pipeline state %s: %s", final.State, final.Error)
		}
		raw, _, _ := r.Result(st.ID)
		var res api.PipelineResult
		if err := json.Unmarshal(raw, &res); err != nil {
			b.Fatal(err)
		}
		segSteps = float64(res.SegSteps)
	}
	b.ReportMetric(segSteps, "seg-steps")
}

func waitTerminal(r *service.Runner, id string) api.JobStatus {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	for {
		st, ok := r.Status(id)
		if ok && st.State.Terminal() {
			return st
		}
		select {
		case <-ctx.Done():
			return st
		case <-time.After(2 * time.Millisecond):
		}
	}
}
