package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"chaseci/internal/api"
	"chaseci/internal/dataset"
	"chaseci/internal/parallel"
	"chaseci/internal/tensor"
)

// distRequest builds a small but real train_dist job over a seeded synthetic
// IVT volume — every test that wants comparable loss curves must use the
// same source seed and training seeds.
func distRequest(workers, rounds int) *api.JobRequest {
	return &api.JobRequest{
		Kind: api.KindTrainDist,
		Name: "dist",
		TrainDist: &api.TrainDistSpec{
			Source:        api.VolumeSource{Synth: &api.SynthSpec{NLon: 36, NLat: 24, NLev: 4, Steps: 6, Seed: 11}},
			Threshold:     130,
			Workers:       workers,
			Rounds:        rounds,
			BatchPerRound: 8,
			Net:           &api.NetConfig{FOV: [3]int{3, 7, 7}, Features: 4, MoveStep: [3]int{1, 2, 2}},
			NetSeed:       7,
			SampleSeed:    7,
		},
	}
}

func distResult(t *testing.T, f *gwFixture, req *api.JobRequest) api.TrainDistResult {
	t.Helper()
	st, env := f.submitAndWait(req)
	if st.State != api.StateSucceeded {
		t.Fatalf("state = %s (%s)", st.State, st.Error)
	}
	var res api.TrainDistResult
	if err := json.Unmarshal(env.Result, &res); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestGatewayTrainDistWorkerInvariance is the acceptance check for the
// tentpole: end to end through the HTTP gateway, the loss sequence is
// bit-identical at 1, 2, and 4 workers, and only the modeled all-reduce
// traffic changes.
func TestGatewayTrainDistWorkerInvariance(t *testing.T) {
	f := newGWFixture(t, true)
	base := distResult(t, f, distRequest(1, 8))
	if len(base.Losses) != 8 || base.Workers != 1 || base.Rounds != 8 {
		t.Fatalf("baseline result = %+v", base)
	}
	if base.CommBytes != 0 {
		t.Fatalf("single worker modeled %v comm bytes, want 0", base.CommBytes)
	}
	for _, w := range []int{2, 4} {
		res := distResult(t, f, distRequest(w, 8))
		if len(res.Losses) != len(base.Losses) {
			t.Fatalf("workers=%d: %d losses, want %d", w, len(res.Losses), len(base.Losses))
		}
		for r := range res.Losses {
			if res.Losses[r] != base.Losses[r] {
				t.Fatalf("workers=%d round %d: loss %v != single-worker %v", w, r, res.Losses[r], base.Losses[r])
			}
		}
		want := float64(8*2*(w-1)) * res.GradBytes
		if res.CommBytes != want {
			t.Fatalf("workers=%d: comm bytes %v, want %v", w, res.CommBytes, want)
		}
		// Identical final state -> identical content-addressed checkpoint.
		if res.CheckpointRef != base.CheckpointRef {
			t.Fatalf("workers=%d checkpoint %s != baseline %s", w, res.CheckpointRef, base.CheckpointRef)
		}
	}
	blob, err := f.runner.Datasets().Resolve(base.CheckpointRef)
	if err != nil {
		t.Fatalf("final checkpoint unresolvable: %v", err)
	}
	if blob.Kind != dataset.KindCheckpoint {
		t.Fatalf("checkpoint ref resolves to a %s dataset", blob.Kind)
	}
	// The payload is a view of the stored frame, which the trainer
	// serialized into directly: one allocation of exactly frame size, not a
	// checkpoint copied into a grown buffer.
	if len(blob.Raw) == 0 || cap(blob.Raw) != len(blob.Raw) {
		t.Fatalf("stored checkpoint frame has %d spare bytes after a %d-byte payload", cap(blob.Raw)-len(blob.Raw), len(blob.Raw))
	}
	if err := f.runner.LeakCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestTrainDistRefsHoldAtEveryConvWidth: the kernels' fan-out width is not an
// input. The same train_dist request under parallel.SetWorkers 1, 2 and 8
// returns the same losses, the same periodic checkpoint refs and the same
// final checkpoint ref. Six features, so the conv backward shards.
func TestTrainDistRefsHoldAtEveryConvWidth(t *testing.T) {
	defer parallel.SetWorkers(parallel.SetWorkers(0))
	r := newTestRunner(t, DefaultRegistry(), 1)
	var base api.TrainDistResult
	for _, lanes := range []int{1, 2, 8} {
		parallel.SetWorkers(lanes)
		req := distRequest(2, 6)
		req.TrainDist.Net.Features = 6
		req.TrainDist.CheckpointEvery = 2
		var res api.TrainDistResult
		if err := json.Unmarshal(runJob(t, r, req), &res); err != nil {
			t.Fatal(err)
		}
		if lanes == 1 {
			base = res
			if len(base.Checkpoints) != 2 || base.CheckpointRef == "" {
				t.Fatalf("baseline result = %+v", base)
			}
			continue
		}
		for i := range base.Losses {
			if res.Losses[i] != base.Losses[i] {
				t.Fatalf("%d lanes round %d: loss %v, want %v", lanes, i, res.Losses[i], base.Losses[i])
			}
		}
		for i := range base.Checkpoints {
			if res.Checkpoints[i] != base.Checkpoints[i] {
				t.Fatalf("%d lanes: checkpoint %+v, want %+v", lanes, res.Checkpoints[i], base.Checkpoints[i])
			}
		}
		if res.CheckpointRef != base.CheckpointRef {
			t.Fatalf("%d lanes: checkpoint_ref %s, want %s", lanes, res.CheckpointRef, base.CheckpointRef)
		}
	}
}

// TestGatewayTrainDistElastic: an elastic schedule that grows and shrinks
// the worker pool mid-run leaves the losses untouched.
func TestGatewayTrainDistElastic(t *testing.T) {
	f := newGWFixture(t, true)
	base := distResult(t, f, distRequest(2, 9))

	req := distRequest(1, 9)
	req.TrainDist.Elastic = []api.ElasticStep{{Round: 3, Workers: 4}, {Round: 6, Workers: 2}}
	res := distResult(t, f, req)
	if res.Workers != 2 {
		t.Fatalf("final width = %d, want 2 after the last elastic step", res.Workers)
	}
	for r := range res.Losses {
		if res.Losses[r] != base.Losses[r] {
			t.Fatalf("elastic round %d: loss %v != steady %v", r, res.Losses[r], base.Losses[r])
		}
	}
}

// TestGatewayTrainDistCheckpointResume drives the full recovery story over
// HTTP: run with periodic checkpoints, then start a second job from the
// round-6 checkpoint and require the continued curve — and even the final
// checkpoint ref — to match the undisturbed run bit for bit.
func TestGatewayTrainDistCheckpointResume(t *testing.T) {
	f := newGWFixture(t, true)
	req := distRequest(2, 10)
	req.TrainDist.CheckpointEvery = 3
	full := distResult(t, f, req)
	if len(full.Checkpoints) != 3 {
		t.Fatalf("checkpoints = %+v, want rounds 3, 6, 9", full.Checkpoints)
	}
	for i, want := range []int{3, 6, 9} {
		if full.Checkpoints[i].Round != want || full.Checkpoints[i].Ref == "" {
			t.Fatalf("checkpoint[%d] = %+v, want round %d", i, full.Checkpoints[i], want)
		}
	}

	resume := &api.JobRequest{
		Kind: api.KindTrainDist,
		Name: "dist-resume",
		TrainDist: &api.TrainDistSpec{
			Source:     api.VolumeSource{Synth: &api.SynthSpec{NLon: 36, NLat: 24, NLev: 4, Steps: 6, Seed: 11}},
			Threshold:  130,
			Workers:    4,
			Rounds:     10,
			ResumeFrom: full.Checkpoints[1].Ref,
		},
	}
	res := distResult(t, f, resume)
	if res.StartRound != 6 || res.ResumedFrom != full.Checkpoints[1].Ref {
		t.Fatalf("resume started at %d from %q", res.StartRound, res.ResumedFrom)
	}
	if len(res.Losses) != len(full.Losses) {
		t.Fatalf("resumed history has %d losses, want %d", len(res.Losses), len(full.Losses))
	}
	for r := range res.Losses {
		if res.Losses[r] != full.Losses[r] {
			t.Fatalf("resumed round %d: loss %v != undisturbed %v", r, res.Losses[r], full.Losses[r])
		}
	}
	if res.CheckpointRef != full.CheckpointRef {
		t.Fatalf("resumed final checkpoint %s != undisturbed %s", res.CheckpointRef, full.CheckpointRef)
	}
	if err := f.runner.LeakCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestGatewayTrainDistResumeRejections: a dangling resume ref and a ref of
// the wrong dataset kind both die at submit with a 400.
func TestGatewayTrainDistResumeRejections(t *testing.T) {
	f := newGWFixture(t, true)
	req := &api.JobRequest{
		Kind: api.KindTrainDist,
		TrainDist: &api.TrainDistSpec{
			Source:     api.VolumeSource{Synth: &api.SynthSpec{NLon: 36, NLat: 24, NLev: 4, Steps: 6, Seed: 11}},
			Threshold:  130,
			Workers:    1,
			Rounds:     2,
			ResumeFrom: strings.Repeat("ab", 32),
		},
	}
	var apiErr api.ErrorResponse
	resp := f.do("POST", "/v1/jobs", req, &apiErr)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(apiErr.Error, "dataset store") {
		t.Fatalf("dangling resume ref: status %d, err %q", resp.StatusCode, apiErr.Error)
	}

	// A real ref of the wrong kind: a segment mask.
	seg := tinySegmentRequest()
	seg.ResultMode = api.ResultModeRef
	seg.Segment.ReturnMask = true
	st, env := f.submitAndWait(seg)
	if st.State != api.StateSucceeded {
		t.Fatalf("segment: %s (%s)", st.State, st.Error)
	}
	var segRes api.SegmentResult
	if err := json.Unmarshal(env.Result, &segRes); err != nil {
		t.Fatal(err)
	}
	if segRes.MaskRef == "" {
		t.Fatal("segment in ref mode returned no mask ref")
	}
	req.TrainDist.ResumeFrom = segRes.MaskRef
	resp = f.do("POST", "/v1/jobs", req, &apiErr)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(apiErr.Error, "want checkpoint") {
		t.Fatalf("wrong-kind resume ref: status %d, err %q", resp.StatusCode, apiErr.Error)
	}
	if err := f.runner.LeakCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestGatewayTrainDistHoldoutDepth: a holdout that leaves nothing to train
// on is refused before anything is built — at submit, with a 400 naming the
// field, when the request states its depth; for a ref, by the job from the
// store's record, before the volume is resolved.
func TestGatewayTrainDistHoldoutDepth(t *testing.T) {
	f := newGWFixture(t, true)
	req := distRequest(1, 2)
	req.TrainDist.HoldoutSteps = 6 // the whole synthetic source
	var apiErr api.ErrorResponse
	if resp := f.do("POST", "/v1/jobs", req, &apiErr); resp.StatusCode != http.StatusBadRequest || !strings.Contains(apiErr.Error, "holdout_steps") {
		t.Fatalf("holdout of a 6-step synth source: status %d, err %q, want a 400 naming holdout_steps", resp.StatusCode, apiErr.Error)
	}

	d, h, w, data := testIVTField(4)
	vol, err := f.runner.Datasets().PutVolume(d, h, w, data, "")
	if err != nil {
		t.Fatal(err)
	}
	req.TrainDist.Source = api.VolumeSource{Ref: vol.ID}
	req.TrainDist.HoldoutSteps = 4
	st, _ := f.submitAndWait(req)
	if st.State != api.StateFailed || !strings.Contains(st.Error, "holdout_steps") || st.Stage != "" {
		t.Fatalf("holdout of a 4-step ref: %s at stage %q (%s), want failed before resolving, naming holdout_steps", st.State, st.Stage, st.Error)
	}
	if err := f.runner.LeakCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestGatewaySweepLeaderboard runs a 4-candidate sweep through the gateway
// and checks leaderboard shape, ordering, and early-stop accounting, and the
// board itself, recorded when the candidates were train jobs.
func TestGatewaySweepLeaderboard(t *testing.T) {
	f := newGWFixture(t, true)
	req := &api.JobRequest{
		Kind: api.KindSweep,
		Name: "hp",
		Sweep: &api.SweepSpec{
			Source:        api.VolumeSource{Synth: &api.SynthSpec{NLon: 36, NLat: 24, NLev: 4, Steps: 6, Seed: 11}},
			Threshold:     130,
			TrainFraction: 0.67,
			LRs:           []float32{0.01, 0.03},
			Momentums:     []float32{0.9},
			Features:      []int{4, 6},
			TrainSteps:    []int{40},
			Seed:          5,
		},
	}
	st, env := f.submitAndWait(req)
	if st.State != api.StateSucceeded {
		t.Fatalf("state = %s (%s)", st.State, st.Error)
	}
	var res api.SweepResult
	if err := json.Unmarshal(env.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Candidates != 4 || len(res.Leaderboard) != 4 {
		t.Fatalf("candidates = %d, leaderboard = %d, want 4/4", res.Candidates, len(res.Leaderboard))
	}
	if res.EarlyStopped != 0 {
		t.Fatalf("early stopped %d candidates without early_stop", res.EarlyStopped)
	}
	for i, e := range res.Leaderboard {
		if e.JobID == "" || e.Params.TrainSteps != 40 {
			t.Fatalf("leaderboard[%d] = %+v", i, e)
		}
		if i > 0 && e.Better(res.Leaderboard[i-1]) {
			t.Fatalf("leaderboard out of order at %d", i)
		}
	}
	if res.Best != res.Leaderboard[0] {
		t.Fatalf("best %+v != leaderboard head %+v", res.Best, res.Leaderboard[0])
	}
	sameBoard(t, res.Leaderboard, []api.SweepEntry{
		{Params: api.SweepParams{LR: 0.01, Momentum: 0.9, Features: 4, Modules: 2, TrainSteps: 40}, TrainLoss: 0.6868189801108064},
		{Params: api.SweepParams{LR: 0.01, Momentum: 0.9, Features: 6, Modules: 2, TrainSteps: 40}, TrainLoss: 0.6239410328611449},
		{Params: api.SweepParams{LR: 0.03, Momentum: 0.9, Features: 4, Modules: 2, TrainSteps: 40}, TrainLoss: 0.7092790560821829},
		{Params: api.SweepParams{LR: 0.03, Momentum: 0.9, Features: 6, Modules: 2, TrainSteps: 40}, TrainLoss: 0.6870958795407904},
	})
	if err := f.runner.LeakCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestSweepEarlyStopHalvesBudgets: with early_stop, losers keep their
// half-budget rung metrics and only survivors post full-budget entries. On
// this scene every rung-1 F1 ties, so all four are promoted and resume from
// their rung checkpoints: the board is the one recorded when each survivor
// retrained from round 0.
func TestSweepEarlyStopHalvesBudgets(t *testing.T) {
	f := newGWFixture(t, true)
	req := &api.JobRequest{
		Kind: api.KindSweep,
		Sweep: &api.SweepSpec{
			Source:        api.VolumeSource{Synth: &api.SynthSpec{NLon: 36, NLat: 24, NLev: 4, Steps: 6, Seed: 11}},
			Threshold:     130,
			TrainFraction: 0.67,
			LRs:           []float32{0.001, 0.01, 0.03, 0.05},
			Momentums:     []float32{0.9},
			Features:      []int{4},
			TrainSteps:    []int{40},
			EarlyStop:     true,
			Seed:          5,
		},
	}
	st, env := f.submitAndWait(req)
	if st.State != api.StateSucceeded {
		t.Fatalf("state = %s (%s)", st.State, st.Error)
	}
	var res api.SweepResult
	if err := json.Unmarshal(env.Result, &res); err != nil {
		t.Fatal(err)
	}
	stopped := 0
	for _, e := range res.Leaderboard {
		if e.EarlyStopped {
			stopped++
			if e.Params.TrainSteps != 20 {
				t.Fatalf("early-stopped candidate ran %d steps, want the 20-step rung", e.Params.TrainSteps)
			}
		} else if e.Params.TrainSteps != 40 {
			t.Fatalf("survivor ran %d steps, want the full 40", e.Params.TrainSteps)
		}
	}
	if stopped != res.EarlyStopped {
		t.Fatalf("flags count %d, result says %d", stopped, res.EarlyStopped)
	}
	if res.Leaderboard[0].EarlyStopped {
		t.Fatal("the winner was early-stopped")
	}
	sameBoard(t, res.Leaderboard, []api.SweepEntry{
		{Params: api.SweepParams{LR: 0.001, Momentum: 0.9, Features: 4, Modules: 2, TrainSteps: 40}, TrainLoss: 0.7352380301389903},
		{Params: api.SweepParams{LR: 0.01, Momentum: 0.9, Features: 4, Modules: 2, TrainSteps: 40}, TrainLoss: 0.6868189801108064},
		{Params: api.SweepParams{LR: 0.03, Momentum: 0.9, Features: 4, Modules: 2, TrainSteps: 40}, TrainLoss: 0.7092790560821829},
		{Params: api.SweepParams{LR: 0.05, Momentum: 0.9, Features: 4, Modules: 2, TrainSteps: 40}, TrainLoss: 0.7396075889605375},
	})
}

// TestSweepSingleWorkerNoDeadlock: a sweep occupying the only pool worker
// runs its children in its own lanes instead of deadlocking on them.
func TestSweepSingleWorkerNoDeadlock(t *testing.T) {
	runner := NewRunnerConfigured(DefaultRegistry(), nil, RunnerConfig{Workers: 1})
	defer runner.Close()
	st, err := runner.Submit(&api.JobRequest{
		Kind: api.KindSweep,
		Sweep: &api.SweepSpec{
			Source:        api.VolumeSource{Synth: &api.SynthSpec{NLon: 36, NLat: 24, NLev: 4, Steps: 6, Seed: 11}},
			Threshold:     130,
			TrainFraction: 0.67,
			LRs:           []float32{0.01, 0.03},
			Momentums:     []float32{0.9},
			Features:      []int{4},
			TrainSteps:    []int{20},
			Seed:          5,
		},
	}, "solo")
	if err != nil {
		t.Fatal(err)
	}
	if status := waitState(t, runner, st.ID, terminal); status.State != api.StateSucceeded {
		t.Fatalf("state = %s (%s)", status.State, status.Error)
	}
	raw, _, _ := runner.Result(st.ID)
	var res api.SweepResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if res.Candidates != 2 || len(res.Leaderboard) != 2 {
		t.Fatalf("result = %+v", res)
	}
}

// cancelledFrom is a context that reports cancellation from the moment the
// job enters the named stage — a cancel that lands, deterministically,
// inside that stage's first cancellation check.
type cancelledFrom struct {
	context.Context
	job   *job
	stage string
}

func (c cancelledFrom) Err() error {
	if *c.job.stage.Load() == c.stage {
		return context.Canceled
	}
	return c.Context.Err()
}

// TestTrainHoldoutCancelledFloodFailsCandidate: a train_dist job with
// holdout_steps — the unit a sweep fans out — whose context is cancelled
// during the held-out flood must not succeed with the aborted flood's
// partial mask scored as a legitimate (if terrible) model, and keeps no
// checkpoint.
func TestTrainHoldoutCancelledFloodFailsCandidate(t *testing.T) {
	reg := DefaultRegistry()
	reg.Register(api.KindTrainDist, func(jc *JobContext) (any, error) {
		inner := *jc
		inner.ctx = cancelledFrom{Context: jc.ctx, job: jc.job, stage: "validate"}
		return TrainDistHandler(&inner)
	})
	r := newTestRunner(t, reg, 1)
	spec := &api.SweepSpec{Source: distRequest(1, 1).TrainDist.Source, Threshold: 130, Seed: 5}
	h := api.SweepParams{LR: 0.03, Momentum: 0.9, Features: 4, Modules: 1, TrainSteps: 20}
	st, err := r.Submit(&api.JobRequest{Kind: api.KindTrainDist, TrainDist: spec.Child(h, 2, "")}, "")
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, r, st.ID, terminal)
	if final.State != api.StateCancelled || !strings.Contains(final.Error, "held-out segmentation") {
		t.Fatalf("state = %s (%q), want cancelled in the held-out segmentation", final.State, final.Error)
	}
	raw, _, _ := r.Result(st.ID)
	var res api.TrainDistResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 20 || res.LossTail <= 0 {
		t.Fatalf("training before the flood did not run to completion: %+v", res)
	}
	if res.HoldoutSteps != 0 || res.Precision != 0 || res.Recall != 0 || res.F1 != 0 || res.IoU != 0 {
		t.Fatalf("aborted flood was scored: %+v", res)
	}
	if res.CheckpointRef != "" || len(r.Datasets().List()) != 0 {
		t.Fatalf("a failed candidate kept its checkpoint: ref %q, store %v", res.CheckpointRef, r.Datasets().List())
	}
	assertNoLeaks(t, r)
}

// cancelledAfterShards reports cancellation from the second check inside
// the named stage. A train_dist round checks its context twice — before it
// draws the batch, and after its shards have filled the gradient matrix —
// so this cancel lands mid-round, with the borrowed arrays freshly written.
type cancelledAfterShards struct {
	context.Context
	job    *job
	stage  string
	checks *atomic.Int32
}

func (c cancelledAfterShards) Err() error {
	if *c.job.stage.Load() == c.stage && c.checks.Add(1) >= 2 {
		return context.Canceled
	}
	return c.Context.Err()
}

// TestTrainDistCancelThenResumeAndElasticOnReleasedArrays: a train_dist job
// cancelled mid-round hands its gradient matrix, center index and scratch
// back to the free list; a resume job and an elastic-grow job then run at
// once on the same runner, borrow those arrays, and still produce the
// undisturbed run's losses and content-addressed checkpoint. An array
// released twice would be lent to both jobs at once; one used after release
// is NaN under this package's TestMain. The final checkpoint id is the one
// recorded before training borrowed its memory.
func TestTrainDistCancelThenResumeAndElasticOnReleasedArrays(t *testing.T) {
	const goldenRef = "26674293a387531196b882b7584f923e1348ff105a98c1a46efbe8251d162b1f"
	reg := DefaultRegistry()
	reg.Register(api.KindTrainDist, func(jc *JobContext) (any, error) {
		if jc.Request().Name != "cancel-me" {
			return TrainDistHandler(jc)
		}
		inner := *jc
		inner.ctx = cancelledAfterShards{Context: jc.ctx, job: jc.job, stage: "round 4/10 (2w)", checks: new(atomic.Int32)}
		return TrainDistHandler(&inner)
	})
	r := newTestRunner(t, reg, 2)
	result := func(id string) (res api.TrainDistResult) {
		t.Helper()
		raw, _, _ := r.Result(id)
		if err := json.Unmarshal(raw, &res); err != nil {
			t.Fatal(err)
		}
		return res
	}
	sameCurve := func(name string, got, want []float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d losses, want %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s round %d: loss %v != undisturbed %v", name, i, got[i], want[i])
			}
		}
	}

	req := distRequest(2, 10)
	req.TrainDist.CheckpointEvery = 3
	var full api.TrainDistResult
	if err := json.Unmarshal(runJob(t, r, req), &full); err != nil {
		t.Fatal(err)
	}
	if full.CheckpointRef != goldenRef {
		t.Errorf("final checkpoint id %s, want %s: the checkpoint bytes changed", full.CheckpointRef, goldenRef)
	}

	doomed := distRequest(2, 10)
	doomed.Name = "cancel-me"
	st, err := r.Submit(doomed, "")
	if err != nil {
		t.Fatal(err)
	}
	if final := waitState(t, r, st.ID, terminal); final.State != api.StateCancelled {
		t.Fatalf("cancelled job: %s (%s)", final.State, final.Error)
	}
	sameCurve("cancelled", result(st.ID).Losses, full.Losses[:4])

	resume := distRequest(4, 10)
	resume.TrainDist = &api.TrainDistSpec{
		Source: req.TrainDist.Source, Threshold: req.TrainDist.Threshold,
		Workers: 4, Rounds: 10, ResumeFrom: full.Checkpoints[1].Ref,
	}
	grow := distRequest(1, 10)
	grow.TrainDist.Elastic = []api.ElasticStep{{Round: 2, Workers: 3}, {Round: 5, Workers: 6}}
	var ids []string
	for _, next := range []*api.JobRequest{resume, grow} {
		st, err := r.Submit(next, "")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	for i, name := range []string{"resumed", "elastic"} {
		if final := waitState(t, r, ids[i], terminal); final.State != api.StateSucceeded {
			t.Fatalf("%s job: %s (%s)", name, final.State, final.Error)
		}
		res := result(ids[i])
		sameCurve(name, res.Losses, full.Losses)
		if res.CheckpointRef != full.CheckpointRef {
			t.Fatalf("%s final checkpoint %s != undisturbed %s", name, res.CheckpointRef, full.CheckpointRef)
		}
	}
	if got := result(ids[0]).StartRound; got != 6 {
		t.Fatalf("resume started at round %d, want 6", got)
	}
	if err := r.LeakCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestTrainDistModelOnReleasedMemory: a train_dist job's network and
// momentum live on arrays borrowed from the free list, the ones the last
// job of the same geometry released. Two identical jobs and a resume from
// the first's round-6 checkpoint return the same losses and checkpoint refs
// with released arrays poisoned to NaN as with them left holding the last
// job's model: every borrowed model array is written before it is read.
func TestTrainDistModelOnReleasedMemory(t *testing.T) {
	defer tensor.PoisonReleased(true) // the package's TestMain setting
	run := func(poison bool) []api.TrainDistResult {
		tensor.PoisonReleased(poison)
		r := newTestRunner(t, DefaultRegistry(), 1)
		req := distRequest(2, 10)
		req.TrainDist.CheckpointEvery = 3
		var out []api.TrainDistResult
		for i := 0; i < 3; i++ {
			if i == 2 {
				req = &api.JobRequest{Kind: api.KindTrainDist, TrainDist: &api.TrainDistSpec{
					Source: req.TrainDist.Source, Threshold: req.TrainDist.Threshold,
					Workers: 4, Rounds: 10, ResumeFrom: out[0].Checkpoints[1].Ref,
				}}
			}
			var res api.TrainDistResult
			if err := json.Unmarshal(runJob(t, r, req), &res); err != nil {
				t.Fatal(err)
			}
			out = append(out, res)
		}
		return out
	}
	plain, poisoned := run(false), run(true)
	for i, name := range []string{"first", "second", "resumed"} {
		got, want := poisoned[i], plain[i]
		if got.CheckpointRef != want.CheckpointRef || fmt.Sprint(got.Checkpoints) != fmt.Sprint(want.Checkpoints) {
			t.Fatalf("%s job: checkpoints %v then %s poisoned, %v then %s not", name,
				got.Checkpoints, got.CheckpointRef, want.Checkpoints, want.CheckpointRef)
		}
		if fmt.Sprint(got.Losses) != fmt.Sprint(want.Losses) {
			t.Fatalf("%s job: losses %v poisoned, %v not", name, got.Losses, want.Losses)
		}
		if got.CheckpointRef != plain[0].CheckpointRef || fmt.Sprint(got.Losses) != fmt.Sprint(plain[0].Losses) {
			t.Fatalf("%s job: final checkpoint %s, want the first job's %s", name, got.CheckpointRef, plain[0].CheckpointRef)
		}
	}
}

// blockingChildren registers a sweep handler and a train_dist handler that
// reports each child's start on started and then holds until release is
// closed (or its context dies).
func blockingChildren(started chan<- string, release <-chan struct{}) *Registry {
	reg := NewRegistry()
	reg.Register(api.KindSweep, SweepHandler)
	reg.Register(api.KindTrainDist, func(jc *JobContext) (any, error) {
		started <- jc.Request().Name
		select {
		case <-release:
			return api.TrainDistResult{}, nil
		case <-jc.Ctx().Done():
			return nil, jc.Ctx().Err()
		}
	})
	reg.Register(api.KindWorkflow, func(*JobContext) (any, error) { return nil, nil })
	return reg
}

// awaitStarts receives n children's starts, or fails the test when they do
// not all start within 10 s: a child that can never start is a failure, not
// a hang.
func awaitStarts(t *testing.T, started <-chan string, n int) {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for i := range n {
		select {
		case <-started:
		case <-deadline:
			t.Fatalf("%d of %d children started within 10 s", i, n)
		}
	}
}

// blockingSweep is a four-candidate sweep spec run parallel wide.
func blockingSweep(parallel int) *api.JobRequest {
	return &api.JobRequest{Kind: api.KindSweep, Sweep: &api.SweepSpec{
		Source:     api.VolumeSource{Synth: &api.SynthSpec{NLon: 36, NLat: 24, NLev: 4, Steps: 6, Seed: 11}},
		Threshold:  130,
		LRs:        []float32{0.01, 0.03},
		Momentums:  []float32{0.9},
		Features:   []int{4, 6},
		TrainSteps: []int{20},
		Parallel:   parallel,
	}}
}

// TestSweepHoldsOneWorker pins work conservation: a sweep holds one pool
// worker however many children it runs. Its four children all run at once
// and block, yet the runner's second worker runs each of twenty jobs queued
// after them, one after another, to its end.
func TestSweepHoldsOneWorker(t *testing.T) {
	started, release := make(chan string, 4), make(chan struct{})
	r := newTestRunner(t, blockingChildren(started, release), 2)
	parent, err := r.Submit(blockingSweep(4), "solo")
	if err != nil {
		t.Fatal(err)
	}
	awaitStarts(t, started, 4)
	for i := 0; i < 20; i++ {
		late, err := r.Submit(blockingWorkflowRequest(), "solo")
		if err != nil {
			t.Fatal(err)
		}
		if st := waitState(t, r, late.ID, terminal); st.State != api.StateSucceeded {
			t.Fatalf("late job %d: %s (%s)", i, st.State, st.Error)
		}
	}
	close(release)
	if st := waitState(t, r, parent.ID, terminal); st.State != api.StateSucceeded {
		t.Fatalf("sweep ended %s (%s)", st.State, st.Error)
	}
	assertNoLeaks(t, r)
}

// TestSweepChildrenRunInLanes: on a runner of one worker, which the sweep
// itself holds, a sweep of parallel 2 has two children running at once, and
// neither passed through the fair queue.
func TestSweepChildrenRunInLanes(t *testing.T) {
	started, release := make(chan string, 4), make(chan struct{})
	r := newTestRunner(t, blockingChildren(started, release), 1)
	parent, err := r.Submit(blockingSweep(2), "solo")
	if err != nil {
		t.Fatal(err)
	}
	awaitStarts(t, started, 2)
	running := 0
	for _, st := range r.List() {
		if st.Kind == api.KindTrainDist && st.State == api.StateRunning {
			running++
		}
	}
	if q := r.disp.(localDispatch).pool.fq.Len(); running != 2 || q != 0 {
		t.Fatalf("%d children running and %d jobs queued, want 2 and 0", running, q)
	}
	close(release)
	if st := waitState(t, r, parent.ID, terminal); st.State != api.StateSucceeded {
		t.Fatalf("sweep ended %s (%s)", st.State, st.Error)
	}
	assertNoLeaks(t, r)
}
