package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"chaseci/internal/api"
	"chaseci/internal/cluster"
	"chaseci/internal/dataset"
	"chaseci/internal/gpusim"
	"chaseci/internal/netsim"
	"chaseci/internal/parallel"
	"chaseci/internal/sched"
)

// twoNodeFabric builds the smallest interesting fabric: two sites, one
// FIONA8 + OSD each, replication factor 2 — so every dataset is
// replica-local on both nodes and killing either leaves a full copy.
func twoNodeFabric(t *testing.T) *sched.Fabric {
	t.Helper()
	f := sched.NewFabric(sched.FabricConfig{Replicas: 2})
	f.AddSite("ucsd")
	f.AddSite("sdsu")
	f.AddLink("ucsd", "sdsu", netsim.Gbps(40), 2*time.Millisecond)
	for i, site := range []string{"ucsd", "sdsu"} {
		err := f.AddNode(sched.NodeSpec{
			Name:     fmt.Sprintf("node-%d", i),
			Site:     site,
			Capacity: cluster.FIONA8Capacity(),
			Model:    gpusim.Powered1080Ti(),
			OSD:      "osd-" + site,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// newClusterFixture is newGWFixture over a cluster runner.
func newClusterFixture(t *testing.T, reg *Registry, fab *sched.Fabric) *gwFixture {
	t.Helper()
	runner := NewClusterRunnerConfigured(reg, nil, fab, RunnerConfig{Workers: 2})
	t.Cleanup(runner.Close)
	gw := NewGateway(runner, GatewayOptions{AllowAnonymous: true})
	srv := httptest.NewServer(gw)
	t.Cleanup(srv.Close)
	return &gwFixture{t: t, runner: runner, srv: srv}
}

// clusterSegmentVolume is a small deterministic field with real structure.
func clusterSegmentVolume() (d, h, w int, data []float32) {
	d, h, w = 8, 12, 12
	data = make([]float32, d*h*w)
	for i := range data {
		data[i] = float32((i*7)%19) / 19
	}
	return
}

func refSegmentRequest(ref string) *api.JobRequest {
	return &api.JobRequest{
		Kind:       api.KindSegment,
		ResultMode: api.ResultModeRef,
		Segment: &api.SegmentSpec{
			Source:    api.VolumeSource{Ref: ref},
			Threshold: 0.5,
		},
	}
}

// baselineSegment runs the same request on a plain single-node runner and
// returns its result JSON — the bit-exactness reference.
func baselineSegment(t *testing.T, enc []byte) json.RawMessage {
	t.Helper()
	r := NewRunnerConfigured(DefaultRegistry(), nil, RunnerConfig{Workers: 2})
	defer r.Close()
	info, err := r.Datasets().Put(enc, "anonymous")
	if err != nil {
		t.Fatal(err)
	}
	st, err := r.Submit(refSegmentRequest(info.ID), "anonymous")
	if err != nil {
		t.Fatal(err)
	}
	if cur := waitState(t, r, st.ID, terminal); cur.State != api.StateSucceeded {
		t.Fatalf("baseline: %s (%s)", cur.State, cur.Error)
	}
	raw, _, _ := r.Result(st.ID)
	return raw
}

// TestClusterReplicaLocalPlacementE2E is the PR's acceptance path: a
// ref-mode segment job submitted over HTTP lands on a node holding an OSD
// replica of its input, the status reports the decision, and the result is
// bit-identical to the single-node baseline.
func TestClusterReplicaLocalPlacementE2E(t *testing.T) {
	d, h, w, data := clusterSegmentVolume()
	enc, err := dataset.EncodeVolume(d, h, w, data)
	if err != nil {
		t.Fatal(err)
	}
	want := baselineSegment(t, enc)

	f := newClusterFixture(t, DefaultRegistry(), twoNodeFabric(t))
	info := f.putDataset(enc)
	st, env := f.submitAndWait(refSegmentRequest(info.ID))
	if st.State != api.StateSucceeded {
		t.Fatalf("state = %s (%s)", st.State, st.Error)
	}
	if st.Placement == nil {
		t.Fatal("cluster-mode status missing placement")
	}
	if st.Placement.Locality != api.LocalityReplicaLocal {
		t.Fatalf("locality = %q, want %q", st.Placement.Locality, api.LocalityReplicaLocal)
	}
	if st.Placement.Node != "node-0" && st.Placement.Node != "node-1" {
		t.Fatalf("placed on unknown node %q", st.Placement.Node)
	}
	if st.Placement.EstJoules <= 0 {
		t.Fatal("placement missing energy estimate")
	}
	if string(env.Result) != string(want) {
		t.Fatalf("cluster result differs from single-node baseline:\n%s\nvs\n%s", env.Result, want)
	}
	if n := f.runner.Datasets().Pinned()[info.ID]; n != 0 {
		t.Fatalf("source ref still pinned %d times after terminal job", n)
	}
	assertNoLeaks(t, f.runner)
}

// TestClusterDrainRequeuesBitExact kills the bound node mid-run: the job
// must requeue onto the surviving replica holder and still produce the
// bit-identical result, with the source ref's pins balanced.
func TestClusterDrainRequeuesBitExact(t *testing.T) {
	d, h, w, data := clusterSegmentVolume()
	enc, err := dataset.EncodeVolume(d, h, w, data)
	if err != nil {
		t.Fatal(err)
	}
	want := baselineSegment(t, enc)

	// Gate the segment handler: the first run parks on its context (the
	// deterministic "mid-run" window), every later run is the real kernel.
	reg := DefaultRegistry()
	real, _ := reg.Handler(api.KindSegment)
	var runs atomic.Int32
	started := make(chan struct{}, 1)
	reg.Register(api.KindSegment, func(jc *JobContext) (any, error) {
		if runs.Add(1) == 1 {
			started <- struct{}{}
			<-jc.Ctx().Done()
			return nil, jc.Ctx().Err()
		}
		return real(jc)
	})

	f := newClusterFixture(t, reg, twoNodeFabric(t))
	info := f.putDataset(enc)
	var sub api.SubmitResponse
	if resp := f.do("POST", "/v1/jobs", refSegmentRequest(info.ID), &sub); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("first run never started")
	}
	var st api.JobStatus
	f.do("GET", "/v1/jobs/"+sub.ID, nil, &st)
	if st.Placement == nil {
		t.Fatal("no placement before drain")
	}
	victim := st.Placement.Node

	if resp := f.do("POST", "/v1/nodes/"+victim+"/drain", nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("drain status %d", resp.StatusCode)
	}
	waitState(t, f.runner, sub.ID, terminal)
	f.do("GET", "/v1/jobs/"+sub.ID, nil, &st)
	if st.State != api.StateSucceeded {
		t.Fatalf("state = %s (%s)", st.State, st.Error)
	}
	if st.Placement == nil || st.Placement.Node == victim {
		t.Fatalf("job did not move off the dead node: %+v", st.Placement)
	}
	if st.Placement.Requeues != 1 {
		t.Fatalf("requeues = %d, want 1", st.Placement.Requeues)
	}
	// The surviving OSD holds the only replica now, and the new node hosts
	// it — failover keeps the job replica-local.
	if st.Placement.Locality != api.LocalityReplicaLocal {
		t.Fatalf("post-failover locality = %q", st.Placement.Locality)
	}
	var env api.ResultEnvelope
	f.do("GET", "/v1/jobs/"+sub.ID+"/result", nil, &env)
	if string(env.Result) != string(want) {
		t.Fatalf("post-requeue result differs from baseline:\n%s\nvs\n%s", env.Result, want)
	}
	if n := f.runner.Datasets().Pinned()[info.ID]; n != 0 {
		t.Fatalf("source ref still pinned %d times after drain/requeue", n)
	}
	assertNoLeaks(t, f.runner)
	// Node inventory reflects the drain.
	var nodes []api.NodeStatus
	f.do("GET", "/v1/nodes", nil, &nodes)
	for _, n := range nodes {
		if n.Name == victim && (n.Ready || n.OSDUp) {
			t.Fatalf("victim still reported up: %+v", n)
		}
	}
	// Restore brings it back schedulable.
	if resp := f.do("POST", "/v1/nodes/"+victim+"/restore", nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("restore status %d", resp.StatusCode)
	}
	f.do("GET", "/v1/nodes", nil, &nodes)
	for _, n := range nodes {
		if n.Name == victim && !n.Ready {
			t.Fatalf("victim not restored: %+v", n)
		}
	}
}

// TestMetriczAgreesWithNodes drives one job through placement, a node kill
// that requeues it, the node's restore and the job's release, and at each
// step holds /metricz to GET /v1/nodes: every fabric node has its four
// sched_* lines, each equal to the inventory's field, and no virtual-time
// series (k8s_*, net_link_*) leaks onto the serving path.
func TestMetriczAgreesWithNodes(t *testing.T) {
	d, h, w, data := clusterSegmentVolume()
	enc, err := dataset.EncodeVolume(d, h, w, data)
	if err != nil {
		t.Fatal(err)
	}
	// The first run parks until the drain cancels it; the requeued run
	// parks until finish closes, so each step is observed at rest.
	reg := DefaultRegistry()
	real, _ := reg.Handler(api.KindSegment)
	var runs atomic.Int32
	started := make(chan struct{}, 2)
	finish := make(chan struct{})
	reg.Register(api.KindSegment, func(jc *JobContext) (any, error) {
		started <- struct{}{}
		if runs.Add(1) == 1 {
			<-jc.Ctx().Done()
			return nil, jc.Ctx().Err()
		}
		select {
		case <-finish:
		case <-jc.Ctx().Done():
			return nil, jc.Ctx().Err()
		}
		return real(jc)
	})
	f := newClusterFixture(t, reg, twoNodeFabric(t))

	// Each step is a subtest that reads both endpoints itself, so a failing
	// step is named and stops the walk.
	check := func(step string, wantBound int) {
		t.Helper()
		ok := t.Run(step, func(t *testing.T) {
			get := func(path string) string {
				t.Helper()
				resp, err := http.Get(f.srv.URL + path)
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				var body strings.Builder
				if _, err := io.Copy(&body, resp.Body); err != nil {
					t.Fatal(err)
				}
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("GET %s: status %d", path, resp.StatusCode)
				}
				return body.String()
			}
			text := get("/metricz")
			for _, line := range strings.Split(text, "\n") {
				if strings.HasPrefix(line, "k8s_") || strings.HasPrefix(line, "net_link_") {
					t.Fatalf("virtual-time series on /metricz: %q", line)
				}
			}
			lines := parseMetricLines(t, text)
			var nodes []api.NodeStatus
			if err := json.Unmarshal([]byte(get("/v1/nodes")), &nodes); err != nil {
				t.Fatal(err)
			}
			if len(nodes) != 2 {
				t.Fatalf("%d nodes, want 2", len(nodes))
			}
			bound := 0
			for _, n := range nodes {
				bound += n.BoundJobs
				for name, want := range map[string]float64{
					"sched_node_alloc_cpu":       float64(n.AllocCPU),
					"sched_node_alloc_mem_bytes": float64(n.AllocMemoryBytes),
					"sched_node_alloc_gpus":      float64(n.AllocGPUs),
					"sched_jobs_bound":           float64(n.BoundJobs),
				} {
					key := fmt.Sprintf("%s{node=%q}", name, n.Name)
					got, ok := lines[key]
					if !ok {
						t.Fatalf("/metricz has no %s:\n%s", key, text)
					}
					if got != want {
						t.Fatalf("%s = %g, GET /v1/nodes says %g", key, got, want)
					}
				}
			}
			if bound != wantBound {
				t.Fatalf("%d jobs bound, want %d", bound, wantBound)
			}
		})
		if !ok {
			t.FailNow()
		}
	}
	awaitRun := func(what string) {
		t.Helper()
		select {
		case <-started:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s never started", what)
		}
	}

	check("idle", 0)
	info := f.putDataset(enc)
	var sub api.SubmitResponse
	if resp := f.do("POST", "/v1/jobs", refSegmentRequest(info.ID), &sub); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	awaitRun("first run")
	check("placed", 1)

	var st api.JobStatus
	f.do("GET", "/v1/jobs/"+sub.ID, nil, &st)
	victim := st.Placement.Node
	if resp := f.do("POST", "/v1/nodes/"+victim+"/drain", nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("drain status %d", resp.StatusCode)
	}
	awaitRun("requeued run")
	check("requeued", 1)
	if got := metricLines(t, f.runner)["sched_requeues{}"]; got != 1 {
		t.Fatalf("sched_requeues = %g, want 1", got)
	}

	if resp := f.do("POST", "/v1/nodes/"+victim+"/restore", nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("restore status %d", resp.StatusCode)
	}
	check("restored", 1)

	close(finish)
	if cur := waitState(t, f.runner, sub.ID, terminal); cur.State != api.StateSucceeded {
		t.Fatalf("state = %s (%s)", cur.State, cur.Error)
	}
	waitFor(t, func() bool {
		for _, n := range f.runner.sched.Nodes() {
			if n.BoundJobs != 0 {
				return false
			}
		}
		return true
	}, "the job's release")
	check("released", 0)
}

// TestClusterPlacementDeterministicAcrossWorkers pins the determinism
// contract: placement and results are identical whatever
// parallel.SetWorkers says, and repeated submissions of the same request
// against the same cluster state pick the same node.
func TestClusterPlacementDeterministicAcrossWorkers(t *testing.T) {
	d, h, w, data := clusterSegmentVolume()
	enc, err := dataset.EncodeVolume(d, h, w, data)
	if err != nil {
		t.Fatal(err)
	}
	defer parallel.SetWorkers(parallel.SetWorkers(0))

	var firstNode string
	var firstResult string
	for _, workers := range []int{1, 2, 8} {
		parallel.SetWorkers(workers)
		f := newClusterFixture(t, DefaultRegistry(), twoNodeFabric(t))
		info := f.putDataset(enc)
		st, env := f.submitAndWait(refSegmentRequest(info.ID))
		if st.State != api.StateSucceeded {
			t.Fatalf("workers=%d: %s (%s)", workers, st.State, st.Error)
		}
		if st.Placement == nil {
			t.Fatalf("workers=%d: no placement", workers)
		}
		if firstNode == "" {
			firstNode, firstResult = st.Placement.Node, string(env.Result)
			continue
		}
		if st.Placement.Node != firstNode {
			t.Fatalf("workers=%d: node %q, want %q", workers, st.Placement.Node, firstNode)
		}
		if string(env.Result) != firstResult {
			t.Fatalf("workers=%d: result drifted", workers)
		}
	}
}

// TestClusterSubmitRejections covers the 409 mapping for placement errors.
func TestClusterSubmitRejections(t *testing.T) {
	fab := sched.NewFabric(sched.FabricConfig{
		Replicas:   1,
		OwnerQuota: &cluster.Resources{CPU: 4, Memory: cluster.GB(8), GPUs: 1},
	})
	fab.AddSite("s")
	if err := fab.AddNode(sched.NodeSpec{
		Name: "n0", Site: "s", Capacity: cluster.FIONA8Capacity(),
		Model: gpusim.Powered1080Ti(), OSD: "osd-0",
	}); err != nil {
		t.Fatal(err)
	}
	reg := DefaultRegistry()
	// Park the GPU slot: a handler that blocks until cancelled.
	block := make(chan struct{})
	reg.Register(api.KindSegment, func(jc *JobContext) (any, error) {
		select {
		case <-block:
		case <-jc.Ctx().Done():
		}
		return nil, jc.Ctx().Err()
	})
	f := newClusterFixture(t, reg, fab)
	defer close(block)

	seg := &api.JobRequest{Kind: api.KindSegment, Segment: &api.SegmentSpec{
		Source: api.VolumeSource{D: 2, H: 2, W: 2, Data: make([]float32, 8)}, Threshold: 0.5,
	}}
	var sub api.SubmitResponse
	if resp := f.do("POST", "/v1/jobs", seg, &sub); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit status %d", resp.StatusCode)
	}
	// Second GPU job from the same (anonymous) owner busts the quota -> 409.
	var apiErr api.ErrorResponse
	if resp := f.do("POST", "/v1/jobs", seg, &apiErr); resp.StatusCode != http.StatusConflict {
		t.Fatalf("quota submit status %d (%s)", resp.StatusCode, apiErr.Error)
	}
	if !strings.Contains(apiErr.Error, "quota") {
		t.Fatalf("error = %q", apiErr.Error)
	}
	// A pin to a nonexistent node is unschedulable -> 409.
	pinned := &api.JobRequest{Kind: api.KindLabel, Label: &api.LabelSpec{
		Source: api.VolumeSource{D: 2, H: 2, W: 2, Data: make([]float32, 8)}, Threshold: 0.5,
	}, Placement: &api.PlacementSpec{Node: "ghost"}}
	if resp := f.do("POST", "/v1/jobs", pinned, &apiErr); resp.StatusCode != http.StatusConflict {
		t.Fatalf("pinned submit status %d (%s)", resp.StatusCode, apiErr.Error)
	}
	// Rejected jobs must not leak into the index.
	var list []api.JobStatus
	f.do("GET", "/v1/jobs", nil, &list)
	if len(list) != 1 {
		t.Fatalf("job list = %d entries, want 1", len(list))
	}
}

// TestQueueDepthGauge pins the new pending metrics on a single-node runner:
// submits park behind a full worker pool, the gauges rise, and they return
// to zero when everything completes.
func TestQueueDepthGauge(t *testing.T) {
	reg := NewRegistry()
	gate := make(chan struct{})
	reg.Register(api.KindLabel, func(jc *JobContext) (any, error) {
		select {
		case <-gate:
			return &api.LabelResult{}, nil
		case <-jc.Ctx().Done():
			return nil, jc.Ctx().Err()
		}
	})
	r := NewRunnerConfigured(reg, nil, RunnerConfig{Workers: 1})
	defer r.Close()
	req := &api.JobRequest{Kind: api.KindLabel, Label: &api.LabelSpec{
		Source: api.VolumeSource{D: 2, H: 2, W: 2, Data: make([]float32, 8)}, Threshold: 0.5,
	}}
	var ids []string
	for i := 0; i < 3; i++ {
		st, err := r.Submit(req, "anonymous")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	// One job occupies the single worker; two sit queued.
	waitFor(t, func() bool {
		return strings.Contains(r.MetricsText(), "queue_depth{} 2")
	}, "queue_depth to reach 2")
	if txt := r.MetricsText(); !strings.Contains(txt, `jobs_pending{kind="label"} 2`) {
		t.Fatalf("missing per-kind pending gauge:\n%s", txt)
	}
	close(gate)
	for _, id := range ids {
		waitState(t, r, id, terminal)
	}
	waitFor(t, func() bool {
		txt := r.MetricsText()
		return strings.Contains(txt, "queue_depth{} 0") && strings.Contains(txt, `jobs_pending{kind="label"} 0`)
	}, "gauges to drain")
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
