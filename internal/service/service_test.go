package service

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chaseci/internal/api"
	"chaseci/internal/parallel"
	"chaseci/internal/queue"
	"chaseci/internal/tensor"
)

// waitState awaits pred(st); the test fails if the job ends (or 30 s pass)
// without it. A job already evicted to the store answers from its record.
func waitState(t *testing.T, r *Runner, id string, pred func(api.JobStatus) bool) api.JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := r.Await(ctx, id, pred)
	if err != nil || !pred(st) {
		t.Fatalf("waiting on job %s: %v (state %s, %d/%d %s)", id, err, st.State, st.Done, st.Total, st.Stage)
	}
	return st
}

func terminal(st api.JobStatus) bool { return st.State.Terminal() }

// tinySegmentRequest is a segment job sized to finish in a few
// milliseconds: a FOV-sized volume with one explicit center seed.
func tinySegmentRequest() *api.JobRequest {
	d, h, w := 5, 9, 9
	data := make([]float32, d*h*w)
	for i := range data {
		data[i] = float32(i%7) - 3
	}
	return &api.JobRequest{
		Kind: api.KindSegment,
		Name: "tiny-segment",
		Segment: &api.SegmentSpec{
			Source:   api.VolumeSource{D: d, H: h, W: w, Data: data},
			Seeds:    [][3]int{{2, 4, 4}},
			MaxSteps: 2,
		},
	}
}

// bigSegmentRequest is a segment job large enough to observe and cancel
// mid-flight: a synthetic scene with dense grid seeding and an unbounded
// flood (several thousand FOV applications).
func bigSegmentRequest() *api.JobRequest {
	return &api.JobRequest{
		Kind: api.KindSegment,
		Segment: &api.SegmentSpec{
			Source:     api.VolumeSource{Synth: &api.SynthSpec{NLon: 72, NLat: 48, NLev: 4, Steps: 12, Seed: 7}},
			Threshold:  1, // IVT magnitudes are O(100); nearly every voxel seeds
			SeedStride: [3]int{1, 3, 3},
			Net:        &api.NetConfig{MoveProb: 0.55},
		},
	}
}

func newTestRunner(t *testing.T, reg *Registry, workers int) (*Runner, *queue.Store) {
	t.Helper()
	store := queue.NewStore()
	r := NewRunnerConfigured(reg, store, RunnerConfig{Workers: workers})
	t.Cleanup(r.Close)
	return r, store
}

func TestSubmitRunsSegmentJob(t *testing.T) {
	// Submit's ack is a snapshot taken after the pool was woken, so it may
	// already read running. The gate keeps the handler from finishing until
	// the ack is checked, which makes "not yet terminal" deterministic.
	reg := DefaultRegistry()
	gate := make(chan struct{})
	open := sync.OnceFunc(func() { close(gate) })
	reg.Register(api.KindSegment, func(jc *JobContext) (any, error) {
		<-gate
		return SegmentHandler(jc)
	})
	r, store := newTestRunner(t, reg, 2)
	t.Cleanup(open) // runs before the runner's Close, which waits for the handler
	st, err := r.Submit(tinySegmentRequest(), "tester@ucsd.edu")
	if err != nil {
		t.Fatal(err)
	}
	if (st.State != api.StateQueued && st.State != api.StateRunning) || st.Owner != "tester@ucsd.edu" {
		t.Fatalf("submit status = %+v", st)
	}
	open()
	final := waitState(t, r, st.ID, terminal)
	if final.State != api.StateSucceeded {
		t.Fatalf("state = %s (%s)", final.State, final.Error)
	}

	raw, _, ok := r.Result(st.ID)
	if !ok || raw == nil {
		t.Fatal("missing result payload")
	}
	var res api.SegmentResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	// The FOV-sized volume admits exactly one application: every move
	// target falls out of bounds.
	if res.Steps != 1 || res.SeedsUsed != 1 || res.VoxelsTotal != 5*9*9 {
		t.Fatalf("result = %+v", res)
	}

	// Job state and result persist in the queue store, and are there before
	// the job reads terminal.
	if rec, ok := store.Get(JobKey(st.ID)); !ok || !strings.Contains(rec, `"succeeded"`) {
		t.Fatalf("store job record = %q, ok=%v", rec, ok)
	}
	if _, ok := store.Get(ResultKey(st.ID)); !ok {
		t.Fatal("store missing result record")
	}
	if got := r.MetricsText(); !strings.Contains(got, `jobs_succeeded{kind="segment"} 1`) {
		t.Fatalf("metrics missing success counter:\n%s", got)
	}
	assertNoLeaks(t, r)
}

func TestSubmitValidatesRequest(t *testing.T) {
	r, _ := newTestRunner(t, DefaultRegistry(), 1)
	_, err := r.Submit(&api.JobRequest{Kind: "nonsense"}, "")
	if !errors.Is(err, api.ErrInvalid) {
		t.Fatalf("err = %v, want ErrInvalid", err)
	}
}

func TestCancelRunningJobReportsPartialStats(t *testing.T) {
	r, _ := newTestRunner(t, DefaultRegistry(), 1)
	st, err := r.Submit(bigSegmentRequest(), "")
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the flood is genuinely mid-flight (progress ticking in the
	// segment stage), then cancel.
	waitState(t, r, st.ID, func(s api.JobStatus) bool {
		return s.Stage == "segment" && s.Done > 0
	})
	if !r.Cancel(st.ID) {
		t.Fatal("Cancel returned false for a running job")
	}
	final := waitState(t, r, st.ID, terminal)
	if final.State != api.StateCancelled {
		t.Fatalf("state = %s, want cancelled", final.State)
	}
	if final.FinishedAt == 0 || final.Error == "" {
		t.Fatalf("terminal status incomplete: %+v", final)
	}

	// Partial stats are recorded: the flood took some steps but was cut
	// short of covering the scene.
	raw, _, ok := r.Result(st.ID)
	if !ok || raw == nil {
		t.Fatal("cancelled segment job must record partial stats")
	}
	var res api.SegmentResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if res.Steps == 0 {
		t.Fatalf("partial result has no steps: %+v", res)
	}
	if got := r.MetricsText(); !strings.Contains(got, `jobs_cancelled{kind="segment"} 1`) {
		t.Fatalf("metrics missing cancel counter:\n%s", got)
	}
}

func TestCancelMidFlightLabelJob(t *testing.T) {
	r, _ := newTestRunner(t, DefaultRegistry(), 1)
	req := &api.JobRequest{
		Kind: api.KindLabel,
		Label: &api.LabelSpec{
			Source:    api.VolumeSource{Synth: &api.SynthSpec{NLon: 96, NLat: 64, NLev: 4, Steps: 48, Seed: 3}},
			Threshold: 120,
		},
	}
	st, err := r.Submit(req, "")
	if err != nil {
		t.Fatal(err)
	}
	// The synth stage dominates wall time here; cancelling during it (or
	// during labelling) must stop the job promptly either way.
	waitState(t, r, st.ID, func(s api.JobStatus) bool { return s.Done > 0 })
	if !r.Cancel(st.ID) {
		t.Fatal("Cancel returned false for a running job")
	}
	final := waitState(t, r, st.ID, terminal)
	if final.State != api.StateCancelled {
		t.Fatalf("state = %s, want cancelled", final.State)
	}
}

// blockingWorkflowRequest passes api validation for the workflow kind;
// tests pair it with a stub handler to control execution timing.
func blockingWorkflowRequest() *api.JobRequest {
	return &api.JobRequest{
		Kind:     api.KindWorkflow,
		Workflow: &api.WorkflowSpec{Name: "stub", Steps: []api.WorkflowStep{{Name: "a"}}},
	}
}

// goroutineID is the id in the current goroutine's stack header.
func goroutineID() string {
	var b [64]byte
	return strings.Fields(string(b[:runtime.Stack(b[:], false)]))[1]
}

// TestHandlerPanicBecomesFailure: a panic in a handler — on its own
// goroutine, or on a parallel lane under a kernel it called — fails that job
// under the retry budget, and the runner serves the next one.
func TestHandlerPanicBecomesFailure(t *testing.T) {
	prev := parallel.SetWorkers(2)
	defer parallel.SetWorkers(prev)
	for name, boom := range map[string]func(){
		"handler goroutine": func() { panic("kaboom") },
		"parallel lane": func() {
			// A chunk the lane is too busy to take runs inline; try until
			// one lands on the lane.
			for caller := goroutineID(); ; runtime.Gosched() {
				parallel.For(2, func(s, e int) {
					if goroutineID() != caller {
						panic("kaboom")
					}
				})
			}
		},
	} {
		t.Run(name, func(t *testing.T) {
			reg := NewRegistry()
			reg.Register(api.KindWorkflow, func(jc *JobContext) (any, error) {
				if jc.Request().Name == "boom" {
					boom()
				}
				return "fine", nil
			})
			r, _ := newTestRunner(t, reg, 1)
			for _, want := range []api.State{api.StateFailed, api.StateSucceeded} {
				req := blockingWorkflowRequest()
				if want == api.StateFailed {
					req.Name = "boom"
				}
				st, err := r.Submit(req, "")
				if err != nil {
					t.Fatal(err)
				}
				final := waitState(t, r, st.ID, terminal)
				if final.State != want || strings.Contains(final.Error, "kaboom") != (want == api.StateFailed) {
					t.Fatalf("status = %+v, want %s", final, want)
				}
			}
		})
	}
	t.Run("train_dist shard", trainDistShardPanic)
}

// scribbledAtRound overwrites idx with out-of-volume voxel indexes whenever
// the context is checked inside the named stage. A train_dist round checks
// its context on the handler's goroutine before it draws the batch, so the
// centers it then draws from idx send every shard's FOV extract out of range.
type scribbledAtRound struct {
	context.Context
	job   *job
	stage string
	idx   []int32
}

func (c scribbledAtRound) Err() error {
	if *c.job.stage.Load() == c.stage {
		for i := range c.idx {
			c.idx[i] = math.MaxInt32
		}
	}
	return c.Context.Err()
}

// trainDistShardPanic drives a panic from a shard goroutine of a real
// train_dist job's first round through TrainDistHandler: the job fails, the
// handler's deferred Release has returned the trainer's arrays exactly once,
// and the runner serves the next train_dist job. The test stays the second
// owner of the buffer it plants on the free list for the trainer's center
// index — the one array whose contents are indexes — and corrupts it between
// the fill and the first draw.
func trainDistShardPanic(t *testing.T) {
	req := distRequest(2, 3)
	synth, fov := req.TrainDist.Source.Synth, req.TrainDist.Net.FOV
	planted := make([]int32, (synth.Steps-fov[0]+1)*(synth.NLat-fov[1]+1)*(synth.NLon-fov[2]+1))

	var attempts atomic.Int32
	reg := DefaultRegistry()
	reg.Register(api.KindTrainDist, func(jc *JobContext) (any, error) {
		if jc.Request().Name != "boom" {
			return TrainDistHandler(jc)
		}
		attempts.Add(1)
		inner := *jc
		inner.ctx = scribbledAtRound{Context: jc.ctx, job: jc.job, stage: "round 0/3 (2w)", idx: planted}
		return TrainDistHandler(&inner)
	})
	r, _ := newTestRunner(t, reg, 1)
	tightRetries(r, 2)
	want := runJob(t, r, req)

	tensor.PutInt32s(planted) // on top of the stack for its length: the next borrow
	doomed := distRequest(2, 3)
	doomed.Name = "boom"
	st, err := r.Submit(doomed, "")
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, r, st.ID, terminal)
	if final.State != api.StateFailed || !strings.Contains(final.Error, "out of range") {
		t.Fatalf("status = %+v, want failed on an out-of-range extract", final)
	}
	if attempts.Load() != 2 {
		t.Fatalf("handler ran %d times, want 2 (a panic is retried)", attempts.Load())
	}
	// Each attempt borrowed the planted array and its unwinding handler put
	// it back: it is on the list once — not missing, not there twice.
	first, second := tensor.GetInt32s(len(planted)), tensor.GetInt32s(len(planted))
	if &first[0] != &planted[0] {
		t.Fatal("the panicked job's center index did not come back to the free list")
	}
	if &second[0] == &planted[0] {
		t.Fatal("the panicked job's center index was released twice")
	}
	if got := runJob(t, r, req); string(got) != string(want) {
		t.Fatalf("train_dist after the panicked job diverges:\n%s\nvs\n%s", got, want)
	}
	if err := r.LeakCheck(); err != nil {
		t.Fatal(err)
	}
}

func TestAllKindsEndToEndInProcess(t *testing.T) {
	r, _ := newTestRunner(t, DefaultRegistry(), 4)
	reqs := []*api.JobRequest{
		tinySegmentRequest(),
		{Kind: api.KindLabel, Label: &api.LabelSpec{
			Source:    api.VolumeSource{Synth: &api.SynthSpec{NLon: 24, NLat: 16, NLev: 3, Steps: 6, Seed: 2}},
			Threshold: 120,
		}},
		{Kind: api.KindIVT, IVT: &api.IVTSpec{
			Synth: api.SynthSpec{NLon: 24, NLat: 16, NLev: 3, Steps: 4, Seed: 2}, Threshold: 120,
		}},
		{Kind: api.KindTrainDist, TrainDist: &api.TrainDistSpec{
			Source:    api.VolumeSource{Synth: &api.SynthSpec{NLon: 24, NLat: 16, NLev: 3, Steps: 6, Seed: 2}},
			Threshold: 120, Workers: 1, Rounds: 10, BatchPerRound: 1,
		}},
		{Kind: api.KindWorkflow, Workflow: &api.WorkflowSpec{
			Name: "ppods",
			Steps: []api.WorkflowStep{
				{Name: "download", DurationMS: 37 * 60 * 1000, Measurements: map[string]float64{"pods": 14}},
				{Name: "train", DependsOn: []string{"download"}, DurationMS: 306 * 60 * 1000},
			},
		}},
	}
	for _, req := range reqs {
		st, err := r.Submit(req, "")
		if err != nil {
			t.Fatalf("%s: %v", req.Kind, err)
		}
		final := waitState(t, r, st.ID, terminal)
		if final.State != api.StateSucceeded {
			t.Fatalf("%s: state = %s (%s)", req.Kind, final.State, final.Error)
		}
		raw, _, _ := r.Result(st.ID)
		if len(raw) == 0 {
			t.Fatalf("%s: empty result", req.Kind)
		}
	}
	// The virtual-time workflow totals 343 minutes but must cost ~no wall
	// time; its report carries the measured durations.
	sts := r.List()
	last := sts[len(sts)-1]
	raw, _, _ := r.Result(last.ID)
	var wres api.WorkflowResult
	if err := json.Unmarshal(raw, &wres); err != nil {
		t.Fatal(err)
	}
	if wres.TotalMS != 343*60*1000 || wres.Failed {
		t.Fatalf("workflow result = %+v", wres)
	}
	assertNoLeaks(t, r)
}

// TestRunnerRestartOnSharedStore: a new runner generation over a store
// left behind by a crashed one (its seq counter, no Close) must not
// clobber the old records.
func TestRunnerRestartOnSharedStore(t *testing.T) {
	store := queue.NewStore()
	store.Incr(seqKey, 3)

	r := NewRunnerConfigured(DefaultRegistry(), store, RunnerConfig{Workers: 1})
	t.Cleanup(r.Close)
	// New ids continue from the store counter instead of overwriting the
	// previous generation's records.
	st, err := r.Submit(tinySegmentRequest(), "")
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "job-000004" {
		t.Fatalf("id = %s, want job-000004 (sequence continues)", st.ID)
	}
	waitState(t, r, st.ID, terminal)
}

// TestTerminalJobEviction: once the retention cap is exceeded, the
// oldest terminal jobs leave the in-memory index while their store
// records survive.
func TestTerminalJobEviction(t *testing.T) {
	r, store := newTestRunner(t, DefaultRegistry(), 1)
	r.retain.Store(2)
	// With retain=2 the sweep fires when the index exceeds 3 (10% slack
	// rounds to +1), so six jobs guarantee two prunes back down to 2.
	var ids []string
	for i := 0; i < 6; i++ {
		st, err := r.Submit(tinySegmentRequest(), "")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
		waitState(t, r, st.ID, terminal)
	}
	// The final execute's prune runs after it has published the terminal
	// state, so give it a beat, then the index must be at the cap.
	waitFor(t, func() bool { return r.Count() <= 2 }, "the last prune")
	if got := r.Count(); got != 2 {
		t.Fatalf("retained %d jobs, want 2", got)
	}
	if _, ok := r.Status(ids[0]); ok {
		t.Fatal("oldest job still in memory after eviction")
	}
	if rec, ok := store.Get(JobKey(ids[0])); !ok || !strings.Contains(rec, `"succeeded"`) {
		t.Fatalf("evicted job lost its store record: %q ok=%v", rec, ok)
	}
	// The read path falls back to the store, so the evicted job's id
	// stays resolvable with its full status and result.
	st, ok := r.Lookup(ids[0])
	if !ok || st.State != api.StateSucceeded || st.ID != ids[0] {
		t.Fatalf("Lookup after eviction = %+v, ok=%v", st, ok)
	}
	raw, st2, ok := r.Result(ids[0])
	if !ok || st2.State != api.StateSucceeded || len(raw) == 0 {
		t.Fatalf("Result after eviction: ok=%v st=%+v raw=%q", ok, st2, raw)
	}
	var res api.SegmentResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
}

// TestCancelDuringTrainKeepsPartialSteps: a train_dist job of the sweep
// child's shape cancelled mid-training still records the rounds taken.
func TestCancelDuringTrainKeepsPartialSteps(t *testing.T) {
	r, _ := newTestRunner(t, DefaultRegistry(), 1)
	st, err := r.Submit(&api.JobRequest{
		Kind: api.KindTrainDist,
		TrainDist: &api.TrainDistSpec{
			Source:        api.VolumeSource{Synth: &api.SynthSpec{NLon: 24, NLat: 16, NLev: 3, Steps: 6, Seed: 2}},
			Threshold:     120,
			Workers:       1,
			BatchPerRound: 1,
			HoldoutSteps:  2,
			Net:           &api.NetConfig{FOV: [3]int{3, 7, 7}, MoveStep: [3]int{1, 2, 2}},
			Rounds:        100000, // hours of training; cancelled almost immediately
		},
	}, "")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, r, st.ID, func(s api.JobStatus) bool { return strings.HasPrefix(s.Stage, "round ") && s.Done > 0 })
	r.Cancel(st.ID)
	final := waitState(t, r, st.ID, terminal)
	if final.State != api.StateCancelled {
		t.Fatalf("state = %s", final.State)
	}
	raw, _, _ := r.Result(st.ID)
	var res api.TrainDistResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("missing partial result: %v (raw %q)", err, raw)
	}
	if res.Rounds == 0 || res.Rounds >= 100000 || len(res.Losses) != res.Rounds {
		t.Fatalf("partial train rounds = %d with %d losses", res.Rounds, len(res.Losses))
	}
	if res.HoldoutSteps != 0 || res.F1 != 0 || res.CheckpointRef != "" {
		t.Fatalf("cancelled run was scored or kept a checkpoint: %+v", res)
	}
	assertNoLeaks(t, r)
}

// TestStatusPollAllocFree pins the satellite requirement: the in-process
// status-poll path performs zero allocations.
func TestStatusPollAllocFree(t *testing.T) {
	r, _ := newTestRunner(t, DefaultRegistry(), 1)
	st, err := r.Submit(tinySegmentRequest(), "")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, r, st.ID, terminal)
	var sink api.JobStatus
	allocs := testing.AllocsPerRun(1000, func() {
		sink, _ = r.Status(st.ID)
	})
	if allocs != 0 {
		t.Fatalf("Status allocates %.1f objects per call, want 0", allocs)
	}
	_ = sink
}

func TestWorkflowJobFailurePropagates(t *testing.T) {
	r, _ := newTestRunner(t, DefaultRegistry(), 1)
	st, err := r.Submit(&api.JobRequest{
		Kind: api.KindWorkflow,
		Workflow: &api.WorkflowSpec{
			Name: "failing",
			Steps: []api.WorkflowStep{
				{Name: "boom", DurationMS: 10, Fail: "disk melted"},
				{Name: "after", DependsOn: []string{"boom"}, DurationMS: 10},
			},
		},
	}, "")
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, r, st.ID, terminal)
	if final.State != api.StateFailed || !strings.Contains(final.Error, "disk melted") {
		t.Fatalf("status = %+v", final)
	}
	raw, _, _ := r.Result(st.ID)
	var res api.WorkflowResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Failed || res.Steps[1].Status != "Skipped" {
		t.Fatalf("result = %+v", res)
	}
}

// TestCancelledSegmentStopsPromptly times the stop: cancelling a large
// flood must terminate orders of magnitude faster than letting it finish,
// proving the handler really threads the job context into the kernel.
func TestCancelledSegmentStopsPromptly(t *testing.T) {
	r, _ := newTestRunner(t, DefaultRegistry(), 1)
	st, err := r.Submit(bigSegmentRequest(), "")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, r, st.ID, func(s api.JobStatus) bool { return s.State == api.StateRunning })
	r.Cancel(st.ID)
	start := time.Now()
	final := waitState(t, r, st.ID, terminal)
	if final.State != api.StateCancelled {
		t.Fatalf("state = %s", final.State)
	}
	// "Promptly": a cancelled big job must terminate orders of magnitude
	// faster than the full multi-second flood.
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}
