package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"chaseci/internal/api"
	"chaseci/internal/queue"
)

// gwFixture is an HTTP-level test harness around a full gateway stack.
type gwFixture struct {
	t      *testing.T
	runner *Runner
	srv    *httptest.Server
	token  string
}

func newGWFixture(t *testing.T, anon bool) *gwFixture {
	t.Helper()
	runner := NewRunnerConfigured(DefaultRegistry(), queue.NewStore(), RunnerConfig{Workers: 2})
	t.Cleanup(runner.Close)
	gw := NewGateway(runner, GatewayOptions{
		Providers:      map[string]string{"ucsd.edu": "UCSD", "sdsc.edu": "SDSC"},
		TokenTTL:       time.Hour,
		AllowAnonymous: anon,
		TokenSeed:      1,
	})
	srv := httptest.NewServer(gw)
	t.Cleanup(srv.Close)
	return &gwFixture{t: t, runner: runner, srv: srv}
}

// do issues a request with the fixture's token (if any) and decodes the
// JSON reply into out (skipped when out is nil).
func (f *gwFixture) do(method, path string, body any, out any) *http.Response {
	f.t.Helper()
	var rd *bytes.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			f.t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, f.srv.URL+path, rd)
	if err != nil {
		f.t.Fatal(err)
	}
	if f.token != "" {
		req.Header.Set("Authorization", "Bearer "+f.token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		f.t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			f.t.Fatalf("%s %s: decode: %v", method, path, err)
		}
	}
	return resp
}

// submitAndWait submits over HTTP, waits for the terminal state, and reads
// status and result back over HTTP.
func (f *gwFixture) submitAndWait(req *api.JobRequest) (api.JobStatus, api.ResultEnvelope) {
	f.t.Helper()
	var sub api.SubmitResponse
	resp := f.do("POST", "/v1/jobs", req, &sub)
	if resp.StatusCode != http.StatusAccepted {
		f.t.Fatalf("submit: status %d", resp.StatusCode)
	}
	waitState(f.t, f.runner, sub.ID, terminal)
	var st api.JobStatus
	f.do("GET", "/v1/jobs/"+sub.ID, nil, &st)
	var env api.ResultEnvelope
	f.do("GET", "/v1/jobs/"+sub.ID+"/result", nil, &env)
	return st, env
}

// TestGatewayAllKernelsEndToEnd is the acceptance check: every kernel kind
// runs end to end through the HTTP gateway.
func TestGatewayAllKernelsEndToEnd(t *testing.T) {
	f := newGWFixture(t, true)

	t.Run("segment", func(t *testing.T) {
		st, env := f.submitAndWait(tinySegmentRequest())
		if st.State != api.StateSucceeded {
			t.Fatalf("state = %s (%s)", st.State, st.Error)
		}
		var res api.SegmentResult
		if err := json.Unmarshal(env.Result, &res); err != nil {
			t.Fatal(err)
		}
		if res.SeedsUsed != 1 || res.Steps != 1 {
			t.Fatalf("result = %+v", res)
		}
	})

	t.Run("label", func(t *testing.T) {
		st, env := f.submitAndWait(&api.JobRequest{
			Kind: api.KindLabel,
			Label: &api.LabelSpec{
				Source:    api.VolumeSource{Synth: &api.SynthSpec{NLon: 36, NLat: 24, NLev: 4, Steps: 8, Seed: 11}},
				Threshold: 130,
			},
		})
		if st.State != api.StateSucceeded {
			t.Fatalf("state = %s (%s)", st.State, st.Error)
		}
		var res api.LabelResult
		if err := json.Unmarshal(env.Result, &res); err != nil {
			t.Fatal(err)
		}
		if res.Objects == 0 || len(res.Top) == 0 {
			t.Fatalf("labelling found nothing: %+v", res)
		}
	})

	t.Run("ivt", func(t *testing.T) {
		st, env := f.submitAndWait(&api.JobRequest{
			Kind: api.KindIVT,
			IVT: &api.IVTSpec{
				Synth:     api.SynthSpec{NLon: 36, NLat: 24, NLev: 4, Steps: 6, Seed: 11},
				Threshold: 130,
			},
		})
		if st.State != api.StateSucceeded {
			t.Fatalf("state = %s (%s)", st.State, st.Error)
		}
		var res api.IVTResult
		if err := json.Unmarshal(env.Result, &res); err != nil {
			t.Fatal(err)
		}
		if res.Steps != 6 || len(res.PerStep) != 6 || res.Max <= res.Mean || res.Mean <= 0 {
			t.Fatalf("result = %+v", res)
		}
	})

	t.Run("train_dist", func(t *testing.T) {
		st, env := f.submitAndWait(&api.JobRequest{
			Kind: api.KindTrainDist,
			TrainDist: &api.TrainDistSpec{
				Source:        api.VolumeSource{Synth: &api.SynthSpec{NLon: 36, NLat: 24, NLev: 4, Steps: 8, Seed: 11}},
				Threshold:     130,
				Workers:       1,
				Rounds:        12,
				BatchPerRound: 1,
				HoldoutSteps:  2,
			},
		})
		if st.State != api.StateSucceeded {
			t.Fatalf("state = %s (%s)", st.State, st.Error)
		}
		var res api.TrainDistResult
		if err := json.Unmarshal(env.Result, &res); err != nil {
			t.Fatal(err)
		}
		if res.Rounds != 12 || res.LossHead == 0 || res.HoldoutSteps != 2 || res.CheckpointRef == "" {
			t.Fatalf("result = %+v", res)
		}
	})

	t.Run("workflow", func(t *testing.T) {
		st, env := f.submitAndWait(&api.JobRequest{
			Kind: api.KindWorkflow,
			Workflow: &api.WorkflowSpec{
				Name: "connect-segmentation",
				Steps: []api.WorkflowStep{
					{Name: "download", DurationMS: 2220000, Measurements: map[string]float64{"pods": 14}},
					{Name: "train", DependsOn: []string{"download"}, DurationMS: 18360000},
					{Name: "inference", DependsOn: []string{"train"}, DurationMS: 67980000},
					{Name: "visualize", DependsOn: []string{"inference"}, DurationMS: 600000},
				},
			},
		})
		if st.State != api.StateSucceeded {
			t.Fatalf("state = %s (%s)", st.State, st.Error)
		}
		var res api.WorkflowResult
		if err := json.Unmarshal(env.Result, &res); err != nil {
			t.Fatal(err)
		}
		if len(res.Steps) != 4 || res.Failed || !strings.Contains(res.Table, "pods") {
			t.Fatalf("result = %+v", res)
		}
	})

	// Metrics observed every kind.
	resp, err := http.Get(f.srv.URL + "/metricz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	for _, kind := range []string{"segment", "label", "ivt", "train_dist", "workflow"} {
		if !strings.Contains(buf.String(), fmt.Sprintf(`jobs_succeeded{kind=%q} 1`, kind)) {
			t.Fatalf("metricz missing %s success:\n%s", kind, buf.String())
		}
	}
}

func TestGatewayAuthRequired(t *testing.T) {
	f := newGWFixture(t, false)

	// No token -> 401.
	resp := f.do("POST", "/v1/jobs", tinySegmentRequest(), nil)
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("no token: status %d, want 401", resp.StatusCode)
	}
	// Unknown provider -> 401.
	resp = f.do("POST", "/v1/login", map[string]string{"user": "who@unknown.example"}, nil)
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unknown provider: status %d, want 401", resp.StatusCode)
	}
	// Registered provider -> token.
	var login struct {
		Token string `json:"token"`
	}
	resp = f.do("POST", "/v1/login", map[string]string{"user": "ialtintas@ucsd.edu"}, &login)
	if resp.StatusCode != http.StatusOK || login.Token == "" {
		t.Fatalf("login failed: status %d, token %q", resp.StatusCode, login.Token)
	}
	// Garbage token -> 401.
	f.token = "tok-bogus"
	if resp = f.do("GET", "/v1/jobs", nil, nil); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("garbage token: status %d, want 401", resp.StatusCode)
	}
	// Real token -> job runs, owner recorded.
	f.token = login.Token
	st, _ := f.submitAndWait(tinySegmentRequest())
	if st.State != api.StateSucceeded || st.Owner != "ialtintas@ucsd.edu" {
		t.Fatalf("status = %+v", st)
	}
}

// TestGatewayOwnershipEnforced: with auth on, one identity cannot poll,
// cancel, or read another identity's job.
func TestGatewayOwnershipEnforced(t *testing.T) {
	f := newGWFixture(t, false)
	login := func(user string) string {
		var out struct {
			Token string `json:"token"`
		}
		if resp := f.do("POST", "/v1/login", map[string]string{"user": user}, &out); resp.StatusCode != http.StatusOK {
			t.Fatalf("login %s: status %d", user, resp.StatusCode)
		}
		return out.Token
	}
	alice, bob := login("alice@ucsd.edu"), login("bob@sdsc.edu")

	f.token = alice
	st, _ := f.submitAndWait(tinySegmentRequest())
	if st.Owner != "alice@ucsd.edu" {
		t.Fatalf("owner = %q", st.Owner)
	}

	f.token = bob
	for _, probe := range []struct{ method, path string }{
		{"GET", "/v1/jobs/" + st.ID},
		{"GET", "/v1/jobs/" + st.ID + "/result"},
		{"GET", "/v1/jobs/" + st.ID + "/events"},
		{"POST", "/v1/jobs/" + st.ID + "/cancel"},
	} {
		if resp := f.do(probe.method, probe.path, nil, nil); resp.StatusCode != http.StatusForbidden {
			t.Fatalf("%s %s as bob: status %d, want 403", probe.method, probe.path, resp.StatusCode)
		}
	}
	f.token = alice
	if resp := f.do("GET", "/v1/jobs/"+st.ID+"/result", nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("owner read: status %d, want 200", resp.StatusCode)
	}
}

// TestGatewayTokenJobsProtectedInAnonMode: even with anonymous traffic
// allowed, a job submitted under a federated identity is not visible or
// cancellable to anonymous callers.
func TestGatewayTokenJobsProtectedInAnonMode(t *testing.T) {
	f := newGWFixture(t, true)
	var login struct {
		Token string `json:"token"`
	}
	if resp := f.do("POST", "/v1/login", map[string]string{"user": "alice@ucsd.edu"}, &login); resp.StatusCode != http.StatusOK {
		t.Fatalf("login: status %d", resp.StatusCode)
	}
	f.token = login.Token
	st, _ := f.submitAndWait(tinySegmentRequest())
	if st.Owner != "alice@ucsd.edu" {
		t.Fatalf("owner = %q", st.Owner)
	}

	f.token = "" // anonymous caller
	for _, probe := range []struct{ method, path string }{
		{"GET", "/v1/jobs/" + st.ID},
		{"POST", "/v1/jobs/" + st.ID + "/cancel"},
	} {
		if resp := f.do(probe.method, probe.path, nil, nil); resp.StatusCode != http.StatusForbidden {
			t.Fatalf("%s %s anonymously: status %d, want 403", probe.method, probe.path, resp.StatusCode)
		}
	}
	var list []api.JobStatus
	f.do("GET", "/v1/jobs", nil, &list)
	for _, s := range list {
		if s.ID == st.ID {
			t.Fatalf("token-owned job leaked into anonymous listing")
		}
	}
}

// TestGatewayRefusesOneRowSynth: a one-row synthetic grid makes every IVT
// value NaN, which a job would find only after all its compute, when its
// result failed to marshal. Each kind that synthesizes gets a 400 naming
// nlat at submit instead.
func TestGatewayRefusesOneRowSynth(t *testing.T) {
	f := newGWFixture(t, true)
	synth := api.SynthSpec{NLon: 8, NLat: 1, NLev: 3, Steps: 6}
	dist := distRequest(1, 2)
	dist.TrainDist.Source.Synth = &synth
	for _, req := range []*api.JobRequest{
		{Kind: api.KindIVT, IVT: &api.IVTSpec{Synth: synth}},
		dist,
		{Kind: api.KindSweep, Sweep: &api.SweepSpec{Source: api.VolumeSource{Synth: &synth}, Threshold: 1,
			LRs: []float32{0.03}, Momentums: []float32{0.9}, Features: []int{4}, TrainSteps: []int{10}}},
	} {
		var apiErr api.ErrorResponse
		resp := f.do("POST", "/v1/jobs", req, &apiErr)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(apiErr.Error, "nlat") {
			t.Errorf("%s over a one-row grid: status %d, err %q; want 400 naming nlat", req.Kind, resp.StatusCode, apiErr.Error)
		}
	}
}

func TestGatewayValidationAndRouting(t *testing.T) {
	f := newGWFixture(t, true)

	// Schema violation -> 400 with the api error.
	var apiErr api.ErrorResponse
	resp := f.do("POST", "/v1/jobs", &api.JobRequest{Kind: api.KindSegment}, &apiErr)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(apiErr.Error, "segment spec") {
		t.Fatalf("status %d, err %q", resp.StatusCode, apiErr.Error)
	}
	// A move_step over fov/2 would index outside the logit FOV mid-flood, on
	// a goroutine no handler recover covers -> 400 at submit, for every kind
	// that floods; the requests after this one show the gateway still serves.
	overstep := &api.NetConfig{MoveStep: [3]int{3, 3, 3}}
	seg := tinySegmentRequest()
	seg.Segment.Net = overstep
	synth := api.SynthSpec{NLon: 8, NLat: 6, NLev: 3, Steps: 6}
	for _, req := range []*api.JobRequest{
		seg,
		{Kind: api.KindTrainDist, TrainDist: &api.TrainDistSpec{Source: api.VolumeSource{Synth: &synth}, Threshold: 1,
			Workers: 1, Rounds: 2, BatchPerRound: 1, HoldoutSteps: 2, Net: overstep}},
	} {
		resp := f.do("POST", "/v1/jobs", req, &apiErr)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(apiErr.Error, "move_step") {
			t.Fatalf("%s with move_step over fov/2: status %d, err %q", req.Kind, resp.StatusCode, apiErr.Error)
		}
	}
	// batch_per_round and the net geometry each within their own cap, a
	// 14.6 GB gradient matrix together -> 400 at submit, not an allocation
	// in a worker that no recover survives.
	huge := distRequest(2, 2)
	huge.TrainDist.BatchPerRound = 4096
	huge.TrainDist.Net = &api.NetConfig{FOV: [3]int{3, 3, 3}, MoveStep: [3]int{1, 1, 1}, Features: 64, Modules: 4}
	resp = f.do("POST", "/v1/jobs", huge, &apiErr)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(apiErr.Error, "gradient matrix") {
		t.Fatalf("train_dist with a 4096 x 889k gradient matrix: status %d, err %q", resp.StatusCode, apiErr.Error)
	}
	// Unknown JSON field -> 400 naming the field (DisallowUnknownFields
	// catches typos, the retired pipeline kind's spec, and the net's
	// precision: there is one inference arithmetic).
	for _, c := range []struct{ body, field string }{
		{`{"kind":"segment","segmnt":{}}`, "segmnt"},
		{`{"kind":"pipeline","pipeline":{"synth":{"nlon":8,"nlat":6,"nlev":3,"steps":6},"threshold":1}}`, "pipeline"},
		{`{"kind":"segment","segment":{"source":{"synth":{"nlon":8,"nlat":6,"nlev":3,"steps":6}},"net":{"precision":"int8"}}}`, "precision"},
	} {
		raw, err := http.Post(f.srv.URL+"/v1/jobs", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		var body api.ErrorResponse
		err = json.NewDecoder(raw.Body).Decode(&body)
		raw.Body.Close()
		if err != nil || raw.StatusCode != http.StatusBadRequest || !strings.Contains(body.Error, `"`+c.field+`"`) {
			t.Fatalf("unknown field in %s: status %d, err %q (%v); want a 400 naming %q", c.body, raw.StatusCode, body.Error, err, c.field)
		}
	}
	// The train kind folded into train_dist{holdout_steps}, and pipeline is
	// one ivt -> segment -> label chain per slab: each is an unknown kind
	// like any other, and the error lists the kinds there are.
	for _, kind := range []api.Kind{"train", "pipeline"} {
		if resp := f.do("POST", "/v1/jobs", &api.JobRequest{Kind: kind}, &apiErr); resp.StatusCode != http.StatusBadRequest ||
			!strings.Contains(apiErr.Error, fmt.Sprintf("unknown kind %q", kind)) || !strings.Contains(apiErr.Error, fmt.Sprint(api.Kinds())) {
			t.Fatalf("kind %q: status %d, err %q, want a 400 listing %v", kind, resp.StatusCode, apiErr.Error, api.Kinds())
		}
	}
	// Unknown job -> 404 on status, result, cancel.
	for _, path := range []string{"/v1/jobs/job-999999", "/v1/jobs/job-999999/result"} {
		if resp := f.do("GET", path, nil, nil); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}
	if resp := f.do("POST", "/v1/jobs/job-999999/cancel", nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cancel unknown: status %d, want 404", resp.StatusCode)
	}
	// Kinds and health endpoints.
	var kinds []api.Kind
	f.do("GET", "/v1/kinds", nil, &kinds)
	if len(kinds) != len(api.Kinds()) {
		t.Fatalf("kinds = %v", kinds)
	}
}

// No program taints a node, so a placement names only a node or a site;
// tolerations are an unknown field like any other.
func TestGatewayRefusesPlacementTolerations(t *testing.T) {
	f := newGWFixture(t, true)
	const ivt = `{"kind":"ivt","ivt":{"synth":{"nlon":8,"nlat":6,"nlev":3,"steps":2}},"placement":{"site":"ucsd"%s}}`
	for _, c := range []struct {
		extra string
		code  int
	}{
		{``, http.StatusAccepted},
		{`,"tolerations":{"reserved":"viz"}`, http.StatusBadRequest},
	} {
		raw, err := http.Post(f.srv.URL+"/v1/jobs", "application/json", strings.NewReader(fmt.Sprintf(ivt, c.extra)))
		if err != nil {
			t.Fatal(err)
		}
		var body api.ErrorResponse
		json.NewDecoder(raw.Body).Decode(&body)
		raw.Body.Close()
		if raw.StatusCode != c.code {
			t.Fatalf("placement {site%s}: status %d (%q), want %d", c.extra, raw.StatusCode, body.Error, c.code)
		}
		if c.code == http.StatusBadRequest && !strings.Contains(body.Error, `"tolerations"`) {
			t.Fatalf("placement.tolerations: err %q, want it to name the field", body.Error)
		}
	}
}

func TestGatewayResultNotReady(t *testing.T) {
	f := newGWFixture(t, true)
	var sub api.SubmitResponse
	f.do("POST", "/v1/jobs", bigSegmentRequest(), &sub)
	// Immediately asking for the result must 409 while queued/running.
	resp := f.do("GET", "/v1/jobs/"+sub.ID+"/result", nil, nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("status %d, want 409", resp.StatusCode)
	}
	f.do("POST", "/v1/jobs/"+sub.ID+"/cancel", nil, nil)
}

func TestGatewayCancelEndpoint(t *testing.T) {
	f := newGWFixture(t, true)
	var sub api.SubmitResponse
	f.do("POST", "/v1/jobs", bigSegmentRequest(), &sub)

	waitState(t, f.runner, sub.ID, func(st api.JobStatus) bool {
		return st.Stage == "segment" && st.Done > 0 // mid-flight
	})
	var cres struct {
		Cancelled bool `json:"cancelled"`
	}
	f.do("POST", "/v1/jobs/"+sub.ID+"/cancel", nil, &cres)
	if !cres.Cancelled {
		t.Fatal("cancel endpoint reported cancelled=false")
	}
	waitState(t, f.runner, sub.ID, terminal)
	var st api.JobStatus
	f.do("GET", "/v1/jobs/"+sub.ID, nil, &st)
	if st.State != api.StateCancelled {
		t.Fatalf("state = %s, want cancelled", st.State)
	}
	var env api.ResultEnvelope
	f.do("GET", "/v1/jobs/"+sub.ID+"/result", nil, &env)
	var res api.SegmentResult
	if err := json.Unmarshal(env.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Steps == 0 {
		t.Fatalf("cancelled job lost its partial stats: %+v", res)
	}
}

// TestGatewayEventsStream reads the NDJSON progress stream to completion
// and requires a terminal final line.
func TestGatewayEventsStream(t *testing.T) {
	f := newGWFixture(t, true)
	var sub api.SubmitResponse
	f.do("POST", "/v1/jobs", tinySegmentRequest(), &sub)

	resp, err := http.Get(f.srv.URL + "/v1/jobs/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %s", ct)
	}
	var last api.JobStatus
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		lines++
	}
	if lines == 0 || !last.State.Terminal() {
		t.Fatalf("stream ended after %d lines in state %s", lines, last.State)
	}
}

// BenchmarkJobSubmit measures gateway submit -> complete overhead for a
// tiny segment job over real HTTP (satellite requirement: the measured
// end-to-end path should be dominated by the kernel, not the gateway).
func BenchmarkJobSubmit(b *testing.B) {
	runner := NewRunnerConfigured(DefaultRegistry(), queue.NewStore(), RunnerConfig{Workers: 2})
	defer runner.Close()
	gw := NewGateway(runner, GatewayOptions{AllowAnonymous: true, TokenSeed: 1})
	srv := httptest.NewServer(gw)
	defer srv.Close()

	body, err := json.Marshal(tinySegmentRequest())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		var sub api.SubmitResponse
		if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		for {
			st, ok := runner.Status(sub.ID)
			if !ok {
				b.Fatalf("job %s vanished", sub.ID)
			}
			if st.State.Terminal() {
				if st.State != api.StateSucceeded {
					b.Fatalf("job %s: %s (%s)", sub.ID, st.State, st.Error)
				}
				break
			}
		}
	}
}

// BenchmarkSubmitOverheadInProcess isolates the job-lifecycle overhead —
// validation, persistence, queue hop, worker scheduling, metrics — with a
// no-op handler, so it can be compared against kernel time directly.
func BenchmarkSubmitOverheadInProcess(b *testing.B) {
	reg := NewRegistry()
	reg.Register(api.KindWorkflow, func(jc *JobContext) (any, error) { return struct{}{}, nil })
	runner := NewRunnerConfigured(reg, queue.NewStore(), RunnerConfig{Workers: 1})
	defer runner.Close()
	req := blockingWorkflowRequest()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := runner.Submit(req, "bench")
		if err != nil {
			b.Fatal(err)
		}
		for {
			s, _ := runner.Status(st.ID)
			if s.State.Terminal() {
				break
			}
			runtime.Gosched()
		}
	}
}

// BenchmarkStatusPoll pins the satellite's alloc target: 0 allocs/op on
// the in-process status-poll path.
func BenchmarkStatusPoll(b *testing.B) {
	runner := NewRunnerConfigured(DefaultRegistry(), queue.NewStore(), RunnerConfig{Workers: 1})
	defer runner.Close()
	st, err := runner.Submit(tinySegmentRequest(), "bench")
	if err != nil {
		b.Fatal(err)
	}
	for {
		s, _ := runner.Status(st.ID)
		if s.State.Terminal() {
			break
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink api.JobStatus
	for i := 0; i < b.N; i++ {
		sink, _ = runner.Status(st.ID)
	}
	_ = sink
}
