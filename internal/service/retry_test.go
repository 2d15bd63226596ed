package service

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"chaseci/internal/api"
	"chaseci/internal/cluster"
	"chaseci/internal/gpusim"
	"chaseci/internal/netsim"
	"chaseci/internal/sched"
)

// assertNoLeaks is LeakCheck once every job reads terminal: execute gives
// back a job's pins and node claim before it publishes the terminal state,
// so there is nothing left to wait for.
func assertNoLeaks(t *testing.T, r *Runner) {
	t.Helper()
	if err := r.LeakCheck(); err != nil {
		t.Fatalf("leak check: %v", err)
	}
}

// parkedRelease is a dispatcher whose release (of job only, when that is
// set) reports that it was entered and then parks until told to go on.
type parkedRelease struct {
	dispatcher
	entered, resume chan struct{}
	only            string
}

func (d parkedRelease) release(id string) {
	if d.only == "" || id == d.only {
		d.entered <- struct{}{}
		<-d.resume
	}
	d.dispatcher.release(id)
}

// TestTerminalStateFollowsRelease pins the order LeakCheck's quiescence rule
// rests on: a job must not read terminal while its node claim is still on
// its way back. With the worker parked inside release, the job's pins are
// already gone, the claim is still held, the job still reads running, and
// LeakCheck refuses to judge; once release returns the job goes terminal
// and the check passes at once. (Publishing the state first let a LeakCheck
// that saw the last job succeed find its claim still held: the
// "leaked node claims: node-0:[job-000001]" flake.)
func TestTerminalStateFollowsRelease(t *testing.T) {
	r := NewClusterRunnerConfigured(DefaultRegistry(), nil, threeNodeFabric(t), RunnerConfig{Workers: 2})
	defer r.Close()
	park := parkedRelease{r.disp, make(chan struct{}), make(chan struct{}), ""}
	r.disp = park

	d, h, w, data := clusterSegmentVolume()
	info, err := r.Datasets().PutVolume(d, h, w, data, "anonymous")
	if err != nil {
		t.Fatal(err)
	}
	st, err := r.Submit(refSegmentRequest(info.ID), "anonymous")
	if err != nil {
		t.Fatal(err)
	}

	<-park.entered // the handler has returned; execute is inside release
	if now, _ := r.Status(st.ID); now.State != api.StateRunning {
		t.Errorf("job reads %s while its node claim is being released, want running", now.State)
	}
	if pinned := r.Datasets().Pinned(); len(pinned) != 0 {
		t.Errorf("pins outlive the handler into release: %v", pinned)
	}
	if claims := r.disp.liveClaims(); len(claims) != 1 {
		t.Errorf("live claims while release is parked: %v, want the job's one", claims)
	}
	if err := r.LeakCheck(); err == nil || !strings.Contains(err.Error(), "before quiescence") {
		t.Errorf("LeakCheck with the job still releasing = %v, want a before-quiescence refusal", err)
	}

	close(park.resume)
	r.Close() // waits for the worker to leave execute
	if final, _ := r.Status(st.ID); final.State != api.StateSucceeded {
		t.Fatalf("state = %s (%s), want succeeded", final.State, final.Error)
	}
	assertNoLeaks(t, r)
}

// TestEndedQueuedJobReadsTerminalAfterRelease is the same order for a job
// that never runs: while Cancel is still inside release the job reads queued
// and LeakCheck refuses to judge; it reads cancelled once everything is back.
// (With the state flipped first, a waiter woken by the requeue that led to a
// failed re-placement saw the job failed with its scheduler record still
// there.)
func TestEndedQueuedJobReadsTerminalAfterRelease(t *testing.T) {
	r, _ := blockedRunner(t, RunnerConfig{}, nil)
	st, err := r.Submit(blockingWorkflowRequest(), "a@ucsd.edu")
	if err != nil {
		t.Fatal(err)
	}
	park := parkedRelease{r.disp, make(chan struct{}), make(chan struct{}), st.ID}
	r.disp = park

	cancelled := make(chan bool)
	go func() { cancelled <- r.Cancel(st.ID) }()
	<-park.entered
	if now, _ := r.Status(st.ID); now.State != api.StateQueued {
		t.Errorf("job reads %s while Cancel is still releasing it, want queued", now.State)
	}
	if err := r.LeakCheck(); err == nil || !strings.Contains(err.Error(), "before quiescence") {
		t.Errorf("LeakCheck with the job still releasing = %v, want a before-quiescence refusal", err)
	}
	close(park.resume)
	if !<-cancelled {
		t.Fatal("Cancel of a queued job returned false")
	}
	if now, _ := r.Status(st.ID); now.State != api.StateCancelled || now.Error != "cancelled before start" {
		t.Fatalf("after Cancel returned: %s (%s), want cancelled", now.State, now.Error)
	}
}

func tightRetries(r *Runner, attempts int) {
	r.SetRetryPolicy(RetryPolicy{
		MaxAttempts: attempts, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond,
	})
}

func TestTransientErrorRetriesToSuccess(t *testing.T) {
	var calls atomic.Int32
	reg := NewRegistry()
	reg.Register(api.KindWorkflow, func(jc *JobContext) (any, error) {
		if calls.Add(1) < 3 {
			return nil, fmt.Errorf("store briefly unavailable: %w", ErrTransient)
		}
		return map[string]int{"ok": 1}, nil
	})
	r := newTestRunner(t, reg, 1)
	tightRetries(r, 4)
	st, err := r.Submit(blockingWorkflowRequest(), "")
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, r, st.ID, terminal)
	if final.State != api.StateSucceeded {
		t.Fatalf("want succeeded after retries, got %s (%s)", final.State, final.Error)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("handler ran %d times, want 3", got)
	}
	if !strings.Contains(r.MetricsText(), `jobs_retried{kind="workflow"} 2`) {
		t.Fatalf("jobs_retried metric missing:\n%s", r.MetricsText())
	}
	assertNoLeaks(t, r)
}

func TestTransientErrorExhaustsAttempts(t *testing.T) {
	var calls atomic.Int32
	reg := NewRegistry()
	reg.Register(api.KindWorkflow, func(jc *JobContext) (any, error) {
		calls.Add(1)
		return nil, fmt.Errorf("always flaky: %w", ErrTransient)
	})
	r := newTestRunner(t, reg, 1)
	tightRetries(r, 3)
	st, err := r.Submit(blockingWorkflowRequest(), "")
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, r, st.ID, terminal)
	if final.State != api.StateFailed {
		t.Fatalf("want failed, got %s", final.State)
	}
	if !strings.Contains(final.Error, "gave up after 3 attempts") {
		t.Fatalf("error should report exhaustion: %q", final.Error)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("handler ran %d times, want 3", got)
	}
	assertNoLeaks(t, r)
}

func TestNonTransientErrorFailsFirstAttempt(t *testing.T) {
	var calls atomic.Int32
	reg := NewRegistry()
	reg.Register(api.KindWorkflow, func(jc *JobContext) (any, error) {
		calls.Add(1)
		return nil, fmt.Errorf("bad input, retrying cannot help")
	})
	r := newTestRunner(t, reg, 1)
	tightRetries(r, 5)
	st, err := r.Submit(blockingWorkflowRequest(), "")
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, r, st.ID, terminal)
	if final.State != api.StateFailed || calls.Load() != 1 {
		t.Fatalf("want 1 failed attempt, got state=%s calls=%d", final.State, calls.Load())
	}
	assertNoLeaks(t, r)
}

func TestRetryBackoffInterruptedByCancel(t *testing.T) {
	started := make(chan struct{}, 16)
	reg := NewRegistry()
	reg.Register(api.KindWorkflow, func(jc *JobContext) (any, error) {
		started <- struct{}{}
		if jc.Ctx().Err() != nil {
			return nil, jc.Ctx().Err()
		}
		return nil, fmt.Errorf("flaky: %w", ErrTransient)
	})
	r := newTestRunner(t, reg, 1)
	// Long delays: without the context-aware sleep the cancel below would
	// stall behind a multi-second backoff.
	r.SetRetryPolicy(RetryPolicy{MaxAttempts: 50, BaseDelay: 10 * time.Second, MaxDelay: 30 * time.Second})
	st, err := r.Submit(blockingWorkflowRequest(), "")
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if !r.Cancel(st.ID) {
		t.Fatal("cancel refused")
	}
	if cur := waitState(t, r, st.ID, terminal); cur.State != api.StateCancelled {
		t.Fatalf("want cancelled, got %s (%s)", cur.State, cur.Error)
	}
	assertNoLeaks(t, r)
}

// threeNodeFabric is twoNodeFabric plus a storage-less third site: when both
// OSD-bearing nodes die, node-2 still has compute but no replica of anything
// — the ErrNoReplicas geometry.
func threeNodeFabric(t *testing.T) *sched.Fabric {
	t.Helper()
	f := sched.NewFabric(sched.FabricConfig{Replicas: 2})
	f.AddSite("ucsd")
	f.AddSite("sdsu")
	f.AddSite("uci")
	f.AddLink("ucsd", "sdsu", netsim.Gbps(40), 2*time.Millisecond)
	f.AddLink("ucsd", "uci", netsim.Gbps(10), 3*time.Millisecond)
	f.AddLink("sdsu", "uci", netsim.Gbps(10), 3*time.Millisecond)
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
	if err := f.AddNode(sched.NodeSpec{
		Name: "node-2", Site: "uci", Capacity: cluster.FIONA8Capacity(),
		Model: gpusim.Powered1080Ti(),
	}); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestPlacementFailsTerminalWhenAllReplicasLost drains every node holding a
// replica of the job's input while the job runs: re-placement must reach
// terminal failed with a descriptive ErrNoReplicas message, not requeue
// forever against data that no longer exists.
func TestPlacementFailsTerminalWhenAllReplicasLost(t *testing.T) {
	reg := NewRegistry()
	reg.Register(api.KindSegment, func(jc *JobContext) (any, error) {
		<-jc.Ctx().Done()
		return nil, jc.Ctx().Err()
	})
	fab := threeNodeFabric(t)
	r := NewClusterRunnerConfigured(reg, nil, fab, RunnerConfig{Workers: 2})
	defer r.Close()
	tightRetries(r, 2)

	d, h, w, data := clusterSegmentVolume()
	info, err := r.Datasets().PutVolume(d, h, w, data, "anonymous")
	if err != nil {
		t.Fatal(err)
	}
	st, err := r.Submit(refSegmentRequest(info.ID), "anonymous")
	if err != nil {
		t.Fatal(err)
	}

	// Kill whichever OSD-bearing node the job is on, twice: the second kill
	// leaves no up replica anywhere, so re-placement goes terminal.
	for kills := 0; kills < 2; kills++ {
		var node string
		waitState(t, r, st.ID, func(api.JobStatus) bool { // bound to a replica holder
			node = r.Scheduler().BoundNode(st.ID)
			return node == "node-0" || node == "node-1"
		})
		if err := r.DrainNode(node); err != nil {
			t.Fatal(err)
		}
	}
	final := waitState(t, r, st.ID, terminal)
	if final.State != api.StateFailed {
		t.Fatalf("want terminal failed, got %s (%s)", final.State, final.Error)
	}
	if !strings.Contains(final.Error, "none up") {
		t.Fatalf("error should describe the replica loss: %q", final.Error)
	}
	assertNoLeaks(t, r)
}

// TestPlacementRetryBudgetExhausted bounces one node-pinned job through six
// kill/restore cycles: requeue 6 exceeds the budget of 5 and the job goes
// terminal failed instead of looping forever.
func TestPlacementRetryBudgetExhausted(t *testing.T) {
	reg := NewRegistry()
	reg.Register(api.KindSegment, func(jc *JobContext) (any, error) {
		<-jc.Ctx().Done()
		return nil, jc.Ctx().Err()
	})
	fab := twoNodeFabric(t)
	r := NewClusterRunnerConfigured(reg, nil, fab, RunnerConfig{Workers: 2})
	defer r.Close()

	d, h, w, data := clusterSegmentVolume()
	info, err := r.Datasets().PutVolume(d, h, w, data, "anonymous")
	if err != nil {
		t.Fatal(err)
	}
	req := refSegmentRequest(info.ID)
	req.Placement = &api.PlacementSpec{Node: "node-0"}
	st, err := r.Submit(req, "anonymous")
	if err != nil {
		t.Fatal(err)
	}
	for cycle := 1; cycle <= maxPlacementRetries+1; cycle++ {
		waitState(t, r, st.ID, func(api.JobStatus) bool {
			return r.Scheduler().BoundNode(st.ID) == "node-0"
		})
		if err := r.DrainNode("node-0"); err != nil {
			t.Fatal(err)
		}
		if cycle > maxPlacementRetries {
			break // over budget: no restore needed, the job must fail now
		}
		// The pinned job parks while its only eligible node is down.
		waitState(t, r, st.ID, func(cur api.JobStatus) bool {
			return cur.State == api.StateQueued && r.Scheduler().BoundNode(st.ID) == ""
		})
		if err := r.RestoreNode("node-0"); err != nil {
			t.Fatal(err)
		}
	}
	final := waitState(t, r, st.ID, terminal)
	if final.State != api.StateFailed {
		t.Fatalf("want terminal failed, got %s (%s)", final.State, final.Error)
	}
	if !strings.Contains(final.Error, "placement retry budget exhausted") {
		t.Fatalf("error should name the budget: %q", final.Error)
	}
	if got := r.Scheduler().Requeues(st.ID); got != 0 {
		t.Fatalf("requeue accounting should clear at terminal, got %d", got)
	}
	assertNoLeaks(t, r)
}
