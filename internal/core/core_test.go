package core

import (
	"math"
	"strings"
	"testing"
	"time"

	"chaseci/internal/merra"
	"chaseci/internal/netsim"
	"chaseci/internal/objstore"
	"chaseci/internal/sched"
	"chaseci/internal/workflow"
)

func TestBuildNautilusShape(t *testing.T) {
	e := Nautilus()
	if got := e.TotalGPUs(); got != 192 {
		t.Fatalf("GPUs = %d, want 192 (24 FIONA8s)", got)
	}
	if got := e.StorageBytes(); got < 1e15 {
		t.Fatalf("storage = %v bytes, want PB+ as in Fig 1", got)
	}
	if e.Net.Path("ucsd", "ucmerced") == nil {
		t.Fatal("no network path between campuses")
	}
	if e.Net.Path("thredds-dtn", "ucsd") == nil {
		t.Fatal("no path from the THREDDS DTN")
	}
	nodes, osds := len(e.Cluster.Nodes()), len(e.Storage.OSDs())
	if nodes != 24 || osds != 13 || e.Sites() != 6 {
		t.Fatalf("build-out = %d nodes, %d OSDs, %d sites; want 24, 13, 6", nodes, osds, e.Sites())
	}
	if h := e.Storage.HealthReport(); h.PGsTotal != 512 || h.PGsActive != 512 || e.Storage.Replicas() != 3 {
		t.Fatalf("ceph = %d/%d PGs active, %dx replication; want 512/512, 3x",
			h.PGsActive, h.PGsTotal, e.Storage.Replicas())
	}
	// Every cluster node is registered with the fabric, at its labelled
	// site: GET /v1/nodes lists them so.
	fabric := sched.New(e.Fabric).Nodes()
	if got, want := len(fabric), len(e.Cluster.Nodes()); got != want {
		t.Fatalf("fabric has %d nodes, cluster %d", got, want)
	}
	for i, n := range e.Cluster.Nodes() {
		if st := fabric[i]; st.Name != n.Name || st.Site != n.Labels["site"] {
			t.Fatalf("node %s: fabric lists %s at %q, site label %q", n.Name, st.Name, st.Site, n.Labels["site"])
		}
	}
}

func TestNautilusAuthProviders(t *testing.T) {
	e := Nautilus()
	tok, err := e.Auth.Login("sellars@ucsd.edu")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Auth.Validate(tok); err != nil {
		t.Fatal(err)
	}
}

// scaledConfig returns a fast-running workflow at 1/56 archive scale.
func scaledConfig() ConnectConfig {
	cfg := PaperConnectConfig()
	cfg.Archive = merra.MERRA2().Slice(2000)
	return cfg
}

func TestWorkflowCompletesAtReducedScale(t *testing.T) {
	e := Nautilus()
	run, err := e.NewConnectWorkflow(scaledConfig())
	if err != nil {
		t.Fatal(err)
	}
	report, err := run.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Steps) != 4 {
		t.Fatalf("report has %d steps", len(report.Steps))
	}
	// Table I's resource rows, summed from each step's job requests.
	table1 := map[string][4]float64{ // pods, cpus, gpus, memory_bytes
		"1-download":  {14, 42, 0, 225e9},
		"2-train":     {1, 1, 1, 14.8e9},
		"3-inference": {50, 50, 50, 600e9},
		"4-visualize": {1, 1, 1, 12e9},
	}
	for _, s := range report.Steps {
		if s.Duration <= 0 {
			t.Fatalf("step %s has zero duration", s.Name)
		}
		m := s.Measurements
		if got := [4]float64{m["pods"], m["cpus"], m["gpus"], m["memory_bytes"]}; got != table1[s.Name] {
			t.Errorf("%s: pods/cpus/gpus/memory_bytes = %v, Table I %v", s.Name, got, table1[s.Name])
		}
	}
	// All queue messages consumed.
	if msg, ok := e.Queue.RPop(queueKey); ok {
		t.Fatalf("queue has leftover message %q", msg)
	}
	// Downloaded bytes match the subset archive slice.
	want := run.Config.Archive.TotalBytes(true)
	got := run.BytesDownloaded.Value()
	if math.Abs(got-want)/want > 0.01 {
		t.Fatalf("downloaded %v bytes, want %v", got, want)
	}
	// Merged data in Ceph matches too.
	if stored := e.Storage.BucketSize("connect-data"); math.Abs(stored-want)/want > 0.01 {
		t.Fatalf("stored %v bytes, want %v", stored, want)
	}
}

// A failed step ends the run with an error that names the step, the job
// and why its pod failed: here every OSD is down before the first merge's
// Put, so the download workers cannot store what they fetched.
func TestFailedStepNamesStepAndJob(t *testing.T) {
	e := Nautilus()
	run, err := e.NewConnectWorkflow(scaledConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range e.Storage.OSDs() {
		if _, err := e.Storage.FailOSD(o.ID); err != nil {
			t.Fatal(err)
		}
	}
	_, err = run.Execute()
	if err == nil {
		t.Fatal("workflow succeeded with every OSD down")
	}
	t.Log(err)
	for _, want := range []string{"step 1-download", "job download-worker failed", objstore.ErrNoOSDs.Error()} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not say %q", err, want)
		}
	}
	if got := stepByName(run.Workflow.Report(), "2-train").Status; got != workflow.StatusSkipped {
		t.Errorf("2-train is %v after the download failed, want Skipped", got)
	}
}

func TestWorkflowStepDurationsScaleSensibly(t *testing.T) {
	e := Nautilus()
	run, _ := e.NewConnectWorkflow(scaledConfig())
	report, err := run.Execute()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]time.Duration{}
	for _, s := range report.Steps {
		byName[s.Name] = s.Duration
	}
	// Training volume is fixed: full 306 minutes even in a sliced run.
	if d := byName["2-train"]; d < 300*time.Minute || d > 312*time.Minute {
		t.Fatalf("train = %v, want ~306m", d)
	}
	// Download and inference scale with the slice (2000/112249).
	if d := byName["1-download"]; d < 20*time.Second || d > 5*time.Minute {
		t.Fatalf("download = %v, want tens of seconds at 1/56 scale", d)
	}
	if d := byName["3-inference"]; d < 10*time.Minute || d > 40*time.Minute {
		t.Fatalf("inference = %v, want ~20m at 1/56 scale", d)
	}
}

func TestPaperScaleTable1(t *testing.T) {
	if testing.Short() {
		t.Skip("full-archive simulation")
	}
	e := Nautilus()
	run, err := e.NewConnectWorkflow(PaperConnectConfig())
	if err != nil {
		t.Fatal(err)
	}
	report, err := run.Execute()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]time.Duration{}
	for _, s := range report.Steps {
		byName[s.Name] = s.Duration
	}
	check := func(step string, want time.Duration, tolFrac float64) {
		got := byName[step]
		lo := time.Duration(float64(want) * (1 - tolFrac))
		hi := time.Duration(float64(want) * (1 + tolFrac))
		if got < lo || got > hi {
			t.Errorf("%s = %v, paper %v (tolerance %.0f%%)", step, got.Round(time.Minute), want, tolFrac*100)
		}
	}
	check("1-download", 37*time.Minute, 0.15)
	check("2-train", 306*time.Minute, 0.03)
	check("3-inference", 1133*time.Minute, 0.05)

	table := report.RenderTable()
	for _, want := range []string{"1-download", "246", "Total Time"} {
		if !strings.Contains(table, want) {
			t.Fatalf("table missing %q:\n%s", want, table)
		}
	}
}

func TestWorkflowSurvivesNodeFailure(t *testing.T) {
	e := Nautilus()
	run, _ := e.NewConnectWorkflow(scaledConfig())
	if err := run.Workflow.Run(nil); err != nil {
		t.Fatal(err)
	}
	// Let the download get going, then kill two nodes hosting workers.
	e.Clock.RunFor(10 * time.Second)
	killed := 0
	for _, n := range e.Cluster.Nodes() {
		if killed >= 2 {
			break
		}
		if n.Allocated().CPU > 0 {
			e.Cluster.KillNode(n.Name)
			killed++
		}
	}
	if killed == 0 {
		t.Fatal("no busy nodes to kill — test setup broken")
	}
	e.Clock.RunWhile(func() bool { return !run.Workflow.Done() })
	if run.Workflow.Failed() {
		t.Fatal("workflow failed after node loss")
	}
	// Every message processed exactly once despite the failure: stored
	// bytes equal the archive subset.
	want := run.Config.Archive.TotalBytes(true)
	stored := e.Storage.BucketSize("connect-data")
	if math.Abs(stored-want)/want > 0.01 {
		t.Fatalf("stored %v bytes after failures, want %v", stored, want)
	}
}

// TestRealComputeWorkflow runs the case study with its real-compute half on:
// the model a train_dist job leaves in the ecosystem's store segments the
// scene, and everything steps 2-4 produce is a replicated object of the
// simulated Ceph. The quality floor holds at five training seeds over that
// scene (measured: precision 0.92-0.99, recall 0.81-0.87).
func TestRealComputeWorkflow(t *testing.T) {
	e := Nautilus()
	cfg := scaledConfig()
	cfg.Archive = merra.MERRA2().Slice(500)
	cfg.Real = DefaultRealCompute()
	run, err := e.NewConnectWorkflow(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run.Execute(); err != nil {
		t.Fatal(err)
	}
	rr := run.RealResult
	if rr == nil {
		t.Fatal("no real-compute result")
	}
	if rr.FFNObjects == 0 || rr.CONNObjects == 0 {
		t.Fatalf("object counts: ffn=%d connect=%d", rr.FFNObjects, rr.CONNObjects)
	}
	// The model and the mask are objects of the ecosystem's own store.
	for what, ref := range map[string]string{"checkpoint": rr.CheckpointRef, "mask": rr.MaskRef} {
		if info, ok := e.Datasets.Stat(ref); !ok || info.Kind != what {
			t.Fatalf("%s ref %q is %+v in the dataset store", what, ref, info)
		}
		if locs := e.Storage.Locations("datasets", ref); len(locs) != 3 {
			t.Fatalf("%s replicas = %d, want 3", what, len(locs))
		}
	}
	// Real artifacts present in Ceph.
	if _, err := e.Storage.Get("connect-results", "real/report.txt"); err != nil {
		t.Fatal("report not stored:", err)
	}
	if _, err := e.Storage.Get("connect-results", "real/overlay-t0.ppm"); err != nil {
		t.Fatal("overlay not stored:", err)
	}
	// Real subset granules landed.
	got := 0
	for _, key := range e.Storage.List("connect-data") {
		if strings.HasPrefix(key, "real/") {
			got++
		}
	}
	if got != realGranuleCount {
		t.Fatalf("real granules stored = %d, want %d", got, realGranuleCount)
	}

	// The other four seeds train on the volume the run stored.
	scene := sceneSource(cfg.Real)
	vol, err := e.Datasets.PutVolume(scene.D, scene.H, scene.W, scene.Data, "core")
	if err != nil {
		t.Fatal(err)
	}
	seeds := []uint64{cfg.Real.Seed, 1, 3, 7, 1977}
	if raceEnabled {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		if seed != cfg.Real.Seed {
			rc := *cfg.Real
			rc.Seed = seed
			if rr, err = RunSegmentation(e.Datasets, vol.ID, &rc); err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("seed %d: loss %.3f -> %.3f, precision %.2f, recall %.2f, IoU %.2f",
			seed, rr.TrainLossHead, rr.TrainLossTail, rr.Precision, rr.Recall, rr.IoU)
		if rr.TrainLossTail >= rr.TrainLossHead {
			t.Fatalf("seed %d: real training did not converge: %v -> %v", seed, rr.TrainLossHead, rr.TrainLossTail)
		}
		if rr.Precision < 0.85 || rr.Recall < 0.6 {
			t.Fatalf("seed %d: real segmentation quality: precision=%.2f recall=%.2f, want >= 0.85 / 0.6", seed, rr.Precision, rr.Recall)
		}
	}
}

func TestSubsettingAblationDirection(t *testing.T) {
	// Full-file download must move ~1.85x the bytes and take ~1.85x longer.
	mk := func(subset bool) time.Duration {
		e := Nautilus()
		cfg := scaledConfig()
		cfg.Subset = subset
		run, _ := e.NewConnectWorkflow(cfg)
		report, err := run.Execute()
		if err != nil {
			t.Fatal(err)
		}
		return report.Steps[0].Duration
	}
	sub, full := mk(true), mk(false)
	ratio := float64(full) / float64(sub)
	if ratio < 1.6 || ratio > 2.1 {
		t.Fatalf("full/subset download ratio = %.2f, want ~1.85 (455/246)", ratio)
	}
}

func TestWorkflowPlanRendering(t *testing.T) {
	e := Nautilus()
	run, _ := e.NewConnectWorkflow(scaledConfig())
	plan := run.Workflow.RenderPlan()
	for _, want := range []string{"1-download", "2-train <- 1-download", "3-inference <- 2-train", "4-visualize <- 3-inference"} {
		if !strings.Contains(plan, want) {
			t.Fatalf("plan missing %q:\n%s", want, plan)
		}
	}
}

func TestFigureSeriesRecorded(t *testing.T) {
	e := Nautilus()
	run, _ := e.NewConnectWorkflow(scaledConfig())
	if _, err := run.Execute(); err != nil {
		t.Fatal(err)
	}
	// Fig 3: per-worker CPU series exist.
	workers := e.Metrics.Select("connect_worker_cpu", nil)
	if len(workers) != 10 {
		t.Fatalf("worker CPU series = %d, want 10", len(workers))
	}
	// Fig 4: download rate series has a nonzero peak.
	rate := e.Metrics.Select("connect_download_rate_bytes", nil)
	if len(rate) != 1 {
		t.Fatal("no download rate series")
	}
	peak := 0.0
	for _, s := range rate[0].Samples {
		if s.Value > peak {
			peak = s.Value
		}
	}
	if peak <= 0 {
		t.Fatal("download rate never sampled above zero")
	}
	// Fig 5: training phase marker hit both phases.
	phases := e.Metrics.Select("connect_train_phase", nil)[0]
	saw := map[float64]bool{}
	for _, s := range phases.Samples {
		saw[s.Value] = true
	}
	if !saw[1] || !saw[2] {
		t.Fatalf("train phases seen: %v, want prep(1) and train(2)", saw)
	}
	// Fig 6: cluster GPU gauge peaked at 50 during inference.
	gpus := e.Metrics.Select("k8s_gpus_in_use", nil)[0]
	maxGPU := 0.0
	for _, s := range gpus.Samples {
		if s.Value > maxGPU {
			maxGPU = s.Value
		}
	}
	if maxGPU < 50 {
		t.Fatalf("peak GPUs in use = %v, want >= 50", maxGPU)
	}
}

// Every campus in the build-out table lands as its FIONA8s, its OSDs and
// its backbone uplink; the THREDDS DTN hangs off the backbone at 0.94 Gbps.
func TestNautilusSiteTable(t *testing.T) {
	e := Nautilus()
	nodes := map[string]int{}
	for _, n := range e.Cluster.Nodes() {
		nodes[n.Site]++
	}
	osds := map[string]int{}
	for _, o := range e.Storage.OSDs() {
		if o.Capacity != osdCapacity {
			t.Fatalf("OSD %s capacity %g, want %g", o.ID, o.Capacity, float64(osdCapacity))
		}
		osds[o.Site]++
	}
	for _, s := range sites {
		if nodes[s.name] != s.fiona8s || osds[s.name] != s.osds {
			t.Fatalf("%s: %d nodes, %d OSDs; want %d, %d",
				s.name, nodes[s.name], osds[s.name], s.fiona8s, s.osds)
		}
		l := e.Net.Link(s.name, backbone)
		if l == nil || l.Capacity != netsim.Gbps(s.uplinkGbps) || l.Latency != s.latency {
			t.Fatalf("%s uplink = %+v, want %g Gbps at %v", s.name, l, s.uplinkGbps, s.latency)
		}
	}
	if l := e.Net.Link(threddsSite, backbone); l == nil || l.Capacity != netsim.Gbps(0.94) {
		t.Fatalf("THREDDS uplink = %+v, want 0.94 Gbps", l)
	}
	if got := len(e.Net.Links()); got != len(sites)+1 {
		t.Fatalf("%d links, want %d (one uplink per campus and the DTN's)", got, len(sites)+1)
	}
}

// The cluster, the network and the store run on the ecosystem's one clock
// and report to its one registry.
func TestNautilusOneClockOneRegistry(t *testing.T) {
	e := Nautilus()
	if e.Cluster.Clock() != e.Clock {
		t.Fatal("cluster runs on another clock")
	}
	for _, name := range []string{"k8s_pods_running", "net_link_bytes_per_sec", "ceph_pgs_degraded"} {
		if len(e.Metrics.Select(name, nil)) == 0 {
			t.Fatalf("no %s series in the ecosystem's registry", name)
		}
	}
	// A 1 GB pull from the DTN is bounded by its uplink, in the clock's time.
	const size = 1e9
	took := time.Duration(-1)
	e.Net.Transfer(threddsSite, "ucsd", size, func() { took = e.Clock.Now() })
	e.Clock.Run()
	if took < 0 {
		t.Fatal("transfer never finished")
	}
	min := time.Duration(size / netsim.Gbps(threddsUplinkGbps) * float64(time.Second))
	if took < min {
		t.Fatalf("transfer took %v, want at least %v", took, min)
	}
}
