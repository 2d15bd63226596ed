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
	"chaseci/internal/tensor"
)

// waitState awaits pred(st); the test fails if the job ends (or 30 s pass)
// without it.
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

func newTestRunner(t *testing.T, reg *Registry, workers int) *Runner {
	t.Helper()
	r := NewRunnerConfigured(reg, nil, RunnerConfig{Workers: workers})
	t.Cleanup(r.Close)
	return r
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
	r := newTestRunner(t, reg, 2)
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

	// The result is recorded before the job reads terminal.
	raw, rst, ok := r.Result(st.ID)
	if !ok || raw == nil || rst.State != api.StateSucceeded {
		t.Fatalf("Result = %q, %+v, ok=%v", raw, rst, ok)
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

	if got := r.MetricsText(); !strings.Contains(got, `jobs_succeeded{kind="segment"} 1`) {
		t.Fatalf("metrics missing success counter:\n%s", got)
	}
	assertNoLeaks(t, r)
}

func TestSubmitValidatesRequest(t *testing.T) {
	r := newTestRunner(t, DefaultRegistry(), 1)
	_, err := r.Submit(&api.JobRequest{Kind: "nonsense"}, "")
	if !errors.Is(err, api.ErrInvalid) {
		t.Fatalf("err = %v, want ErrInvalid", err)
	}
}

func TestCancelRunningJobReportsPartialStats(t *testing.T) {
	r := newTestRunner(t, DefaultRegistry(), 1)
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
	r := newTestRunner(t, DefaultRegistry(), 1)
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
			r := newTestRunner(t, reg, 1)
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
	r := newTestRunner(t, reg, 1)
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
	r := newTestRunner(t, DefaultRegistry(), 4)
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

// TestTerminalJobEviction: once the retention cap is exceeded, the
// earliest-finished terminal jobs leave the index, status and result
// together, and the newest ones keep both.
func TestTerminalJobEviction(t *testing.T) {
	r := newTestRunner(t, DefaultRegistry(), 1)
	r.retain.Store(2)
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
	for _, id := range ids[:4] {
		if _, ok := r.Status(id); ok {
			t.Fatalf("evicted job %s still has a status", id)
		}
		if _, _, ok := r.Result(id); ok {
			t.Fatalf("evicted job %s still has a result", id)
		}
	}
	for _, id := range ids[4:] {
		raw, st, ok := r.Result(id)
		if !ok || st.State != api.StateSucceeded || st.ID != id {
			t.Fatalf("Result of retained %s = %+v, ok=%v", id, st, ok)
		}
		var res api.SegmentResult
		if err := json.Unmarshal(raw, &res); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEvictionFollowsFinishOrder: a job that runs long enough for later
// submits to finish before it is, once it ends, among the most recently
// finished, and outlives the short jobs that finished first — eviction goes
// by finish order, not by submit order.
func TestEvictionFollowsFinishOrder(t *testing.T) {
	const retain = 3
	release := make(chan struct{})
	started := make(chan struct{})
	reg := NewRegistry()
	reg.Register(api.KindWorkflow, func(jc *JobContext) (any, error) {
		if jc.Request().Name == "held" {
			close(started)
			<-release
		}
		return jc.Request().Name, nil
	})
	r := NewRunnerConfigured(reg, nil, RunnerConfig{Workers: 2})
	t.Cleanup(r.Close)
	r.retain.Store(retain)
	submit := func(name string) string {
		t.Helper()
		req := blockingWorkflowRequest()
		req.Name = name
		st, err := r.Submit(req, "")
		if err != nil {
			t.Fatal(err)
		}
		return st.ID
	}
	finishShort := func(n int) []string {
		t.Helper()
		ids := make([]string, n)
		for i := range ids {
			ids[i] = submit("short")
			waitState(t, r, ids[i], terminal)
		}
		return ids
	}

	held := submit("held")
	<-started
	early := finishShort(retain + 2) // held runs on while these finish
	close(release)
	waitState(t, r, held, terminal)
	late := finishShort(2)
	r.Close() // every execute, and so every prune, has returned

	// Finish order: early..., held, late... — the newest three are the
	// held job and the two late ones.
	if _, ok := r.Status(held); !ok {
		t.Fatal("the held job was evicted before jobs that finished ahead of it")
	}
	if raw, st, ok := r.Result(held); !ok || st.State != api.StateSucceeded || string(raw) != `"held"` {
		t.Fatalf("held job's result = %q, %+v, ok=%v", raw, st, ok)
	}
	for _, id := range late {
		if _, ok := r.Status(id); !ok {
			t.Fatalf("late job %s was evicted", id)
		}
	}
	for _, id := range early {
		if _, ok := r.Status(id); ok {
			t.Fatalf("early job %s is still retained", id)
		}
	}
	if got := r.Count(); got != retain {
		t.Fatalf("retained %d jobs, want %d", got, retain)
	}
}

// TestEvictionTakesEveryTerminalState: however a job ends — a result, an
// error, a cancel while it runs, or a cancel before it ever runs (which
// ends it outside execute) — it joins the eviction queue when it ends, and
// a job that finishes after it outlives it.
func TestEvictionTakesEveryTerminalState(t *testing.T) {
	reg := NewRegistry()
	reg.Register(api.KindWorkflow, func(jc *JobContext) (any, error) {
		switch jc.Request().Name {
		case "fail":
			return nil, errors.New("handler error")
		case "hold":
			<-jc.Ctx().Done()
			return nil, jc.Ctx().Err()
		}
		return jc.Request().Name, nil
	})
	running := func(st api.JobStatus) bool { return st.State == api.StateRunning }
	cases := []struct {
		name string
		want api.State
		// end brings a job to the wanted state, and every job it started
		// to an end, and returns the first job's id.
		end func(t *testing.T, r *Runner, submit func(string) string) string
	}{
		{"succeeded", api.StateSucceeded, func(t *testing.T, r *Runner, submit func(string) string) string {
			return submit("ok")
		}},
		{"failed", api.StateFailed, func(t *testing.T, r *Runner, submit func(string) string) string {
			return submit("fail")
		}},
		{"cancelled running", api.StateCancelled, func(t *testing.T, r *Runner, submit func(string) string) string {
			id := submit("hold")
			waitState(t, r, id, running)
			r.Cancel(id)
			return id
		}},
		{"cancelled queued", api.StateCancelled, func(t *testing.T, r *Runner, submit func(string) string) string {
			hold := submit("hold") // takes the only worker
			waitState(t, r, hold, running)
			id := submit("ok")
			r.Cancel(id)
			r.Cancel(hold)
			waitState(t, r, hold, terminal)
			return id
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := newTestRunner(t, reg, 1)
			submit := func(name string) string {
				t.Helper()
				req := blockingWorkflowRequest()
				req.Name = name
				st, err := r.Submit(req, "")
				if err != nil {
					t.Fatal(err)
				}
				return st.ID
			}
			first := c.end(t, r, submit)
			if st := waitState(t, r, first, terminal); st.State != c.want {
				t.Fatalf("first job ended %s (%s), want %s", st.State, st.Error, c.want)
			}
			r.retain.Store(1) // from here on the index keeps only the newest
			last := submit("last")
			waitState(t, r, last, terminal)
			r.Close() // every execute, and so every prune, has returned

			if _, ok := r.Status(first); ok {
				t.Fatalf("the %s job outlived a job that finished after it", c.want)
			}
			if raw, st, ok := r.Result(last); !ok || st.State != api.StateSucceeded || string(raw) != `"last"` {
				t.Fatalf("last job's result = %q, %+v, ok=%v", raw, st, ok)
			}
			if got := r.Count(); got != 1 {
				t.Fatalf("retained %d jobs, want 1", got)
			}
		})
	}
}

// TestConcurrentFinishesKeepIndexAndQueueInStep: jobs that finish on four
// workers at once, each pushing onto the eviction queue and pruning, leave
// the index and the queue holding the same retain jobs, each once.
func TestConcurrentFinishesKeepIndexAndQueueInStep(t *testing.T) {
	const retain, total = 8, 400
	var ran sync.WaitGroup
	ran.Add(total)
	reg := NewRegistry()
	reg.Register(api.KindWorkflow, func(jc *JobContext) (any, error) {
		defer ran.Done()
		return nil, nil
	})
	r := NewRunnerConfigured(reg, nil, RunnerConfig{
		Workers: 4, MaxPending: -1, MaxPendingPerTenant: -1,
	})
	t.Cleanup(r.Close)
	r.retain.Store(retain)
	var submitters sync.WaitGroup
	for g := 0; g < 4; g++ {
		submitters.Add(1)
		go func() {
			defer submitters.Done()
			for i := 0; i < total/4; i++ {
				if _, err := r.Submit(blockingWorkflowRequest(), anonOwner); err != nil {
					t.Error(err)
					ran.Done()
				}
			}
		}()
	}
	submitters.Wait()
	ran.Wait() // every handler has returned, so no job is left queued
	r.Close()  // and every execute, with its prune, has returned

	r.evictMu.Lock()
	queued := append([]string(nil), r.evictOrder.buf[r.evictOrder.head:]...)
	r.evictMu.Unlock()
	if len(queued) != retain || r.Count() != retain {
		t.Fatalf("index holds %d jobs and queues %d terminal ids, want %d and %d",
			r.Count(), len(queued), retain, retain)
	}
	seen := make(map[string]bool, retain)
	for _, id := range queued {
		st, ok := r.Status(id)
		if seen[id] || !ok || st.State != api.StateSucceeded {
			t.Fatalf("queued id %s: repeated=%v, in index=%v, state %s", id, seen[id], ok, st.State)
		}
		seen[id] = true
	}
}

// TestCancelDuringTrainKeepsPartialSteps: a train_dist job of the sweep
// child's shape cancelled mid-training still records the rounds taken.
func TestCancelDuringTrainKeepsPartialSteps(t *testing.T) {
	r := newTestRunner(t, DefaultRegistry(), 1)
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
	r := newTestRunner(t, DefaultRegistry(), 1)
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
	r := newTestRunner(t, DefaultRegistry(), 1)
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
	r := newTestRunner(t, DefaultRegistry(), 1)
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
