package service

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"chaseci/internal/api"
)

// follow reports, in order and until the terminal one, every state Await
// shows for the job. The channel is unbuffered: a test that holds each state
// until it has received it sees every transition.
func follow(t *testing.T, r *Runner, id string) <-chan api.State {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	ch := make(chan api.State)
	go func() {
		defer close(ch)
		var last api.State
		for {
			st, err := r.Await(ctx, id, func(st api.JobStatus) bool { return st.State != last })
			if err != nil {
				t.Errorf("Await(%s) after %q: %v", id, last, err)
				return
			}
			ch <- st.State
			if st.State.Terminal() {
				return
			}
			last = st.State
		}
	}()
	return ch
}

func expectState(t *testing.T, ch <-chan api.State, want api.State) {
	t.Helper()
	if got, ok := <-ch; !ok || got != want {
		t.Fatalf("observed state %q (open=%v), want %q", got, ok, want)
	}
}

// assertNoWatches is the waiter-leak check: nothing is still registered
// with the runner or reachable from the job.
func assertNoWatches(t *testing.T, r *Runner, ids ...string) {
	t.Helper()
	if n := r.watches.Load(); n != 0 {
		t.Errorf("%d watch(es) still open", n)
	}
	for _, id := range ids {
		if j := r.lookupJob(id); j != nil && j.watchers.p.Load() != nil {
			t.Errorf("job %s still holds %d watcher(s)", id, len(*j.watchers.p.Load()))
		}
	}
}

// TestAwaitObservesLocalTransitions: queued → running → succeeded, and
// queued → cancelled for a job cancelled before it runs.
func TestAwaitObservesLocalTransitions(t *testing.T) {
	started, finish := make(chan struct{}), make(chan struct{})
	r, release := blockedRunner(t, RunnerConfig{}, nil)
	r.reg.Register(api.KindLabel, func(jc *JobContext) (any, error) {
		close(started)
		<-finish
		return nil, nil
	})
	run, err := r.Submit(tinyLabelRequest(), "a@ucsd.edu")
	if err != nil {
		t.Fatal(err)
	}
	doomed, err := r.Submit(blockingWorkflowRequest(), "a@ucsd.edu")
	if err != nil {
		t.Fatal(err)
	}
	runStates, doomedStates := follow(t, r, run.ID), follow(t, r, doomed.ID)
	expectState(t, runStates, api.StateQueued)
	expectState(t, doomedStates, api.StateQueued)

	if !r.Cancel(doomed.ID) {
		t.Fatal("Cancel of a queued job returned false")
	}
	expectState(t, doomedStates, api.StateCancelled)

	close(release) // the blocker ends; the only worker takes the label job
	<-started
	expectState(t, runStates, api.StateRunning)
	close(finish)
	expectState(t, runStates, api.StateSucceeded)
	if _, open := <-runStates; open {
		t.Fatal("a state after the terminal one")
	}
	assertNoWatches(t, r, run.ID, doomed.ID)
	assertNoLeaks(t, r)
}

func tinyLabelRequest() *api.JobRequest {
	return &api.JobRequest{
		Kind: api.KindLabel,
		Label: &api.LabelSpec{
			Source:    api.VolumeSource{D: 1, H: 2, W: 2, Data: []float32{0, 1, 1, 0}},
			Threshold: 0.5,
		},
	}
}

// TestAwaitObservesClusterRequeue: running → queued → running → succeeded.
// The fabric has one node, so between its loss and its return the requeued
// job has nowhere to go and stays queued until it has been seen there.
func TestAwaitObservesClusterRequeue(t *testing.T) {
	started, finish := make(chan struct{}, 2), make(chan struct{})
	reg := NewRegistry()
	reg.Register(api.KindLabel, func(jc *JobContext) (any, error) {
		started <- struct{}{}
		select {
		case <-finish:
			return nil, nil
		case <-jc.Ctx().Done():
			return nil, jc.Ctx().Err()
		}
	})
	r := newModeRunner(t, true, reg)
	st, err := r.Submit(tinyLabelRequest(), "anonymous")
	if err != nil {
		t.Fatal(err)
	}
	<-started
	states := follow(t, r, st.ID)
	expectState(t, states, api.StateRunning)
	if err := r.DrainNode("node-0"); err != nil {
		t.Fatal(err)
	}
	expectState(t, states, api.StateQueued)
	if err := r.RestoreNode("node-0"); err != nil {
		t.Fatal(err)
	}
	<-started
	expectState(t, states, api.StateRunning)
	close(finish)
	expectState(t, states, api.StateSucceeded)
	assertNoWatches(t, r, st.ID)
	assertNoLeaks(t, r)
}

// TestAwaitAnswersAtOnce covers the ids nothing will ever change for — a
// terminal job, one evicted from the index, one never seen — and a waiter
// that gives up.
func TestAwaitAnswersAtOnce(t *testing.T) {
	r, release := blockedRunner(t, RunnerConfig{}, nil)
	never := func(api.JobStatus) bool { return false }
	ctx := context.Background()

	if st, err := r.Await(ctx, "job-999999", never); err == nil {
		t.Errorf("Await on an unknown id = %+v, want an error", st)
	}

	// A waiter that gives up gets the last status and its context's error,
	// and leaves nothing behind on the job.
	blocker := r.List()[0].ID
	gone, cancel := context.WithCancel(ctx)
	cancel()
	if st, err := r.Await(gone, blocker, never); err != context.Canceled || st.State != api.StateRunning {
		t.Errorf("Await with a cancelled context = %s, %v; want running, context.Canceled", st.State, err)
	}
	assertNoWatches(t, r, blocker)

	close(release)
	if st, err := r.Await(ctx, blocker, never); err != nil || st.State != api.StateSucceeded {
		t.Fatalf("Await to the end = %s, %v", st.State, err)
	}
	if st, err := r.Await(ctx, blocker, never); err != nil || st.State != api.StateSucceeded {
		t.Errorf("Await on a terminal job = %s, %v", st.State, err)
	}

	// Push the blocker out of memory: retention 1, and enough later jobs
	// for a prune to run.
	r.retain.Store(1)
	for i := 0; i < 3; i++ {
		st, err := r.Submit(blockingWorkflowRequest(), "a@ucsd.edu")
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, r, st.ID, terminal)
	}
	r.Close() // the last prune has run once the worker has exited
	if _, inMemory := r.Status(blocker); inMemory {
		t.Fatal("the blocker was not evicted")
	}
	if st, err := r.Await(ctx, blocker, never); err == nil || !strings.Contains(err.Error(), "unknown job") {
		t.Errorf("Await on an evicted job = %+v, %v; want an unknown-job error", st, err)
	}
	assertNoWatches(t, r)
}

// TestAwaitWakesOnClose: Close ends every job, so it wakes the waiters of a
// running and of a queued one with their terminal status.
func TestAwaitWakesOnClose(t *testing.T) {
	r, _ := blockedRunner(t, RunnerConfig{}, nil)
	queued, err := r.Submit(blockingWorkflowRequest(), "a@ucsd.edu")
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{r.List()[0].ID, queued.ID}
	answers := make(chan api.JobStatus, len(ids))
	for _, id := range ids {
		go func() {
			st, err := r.Await(context.Background(), id, func(api.JobStatus) bool { return false })
			if err != nil {
				t.Errorf("Await(%s) across Close: %v", id, err)
			}
			answers <- st
		}()
	}
	waitFor(t, func() bool { return r.watches.Load() == int64(len(ids)) }, "both waiters to register")
	r.Close()
	for range ids {
		if st := <-answers; st.State != api.StateCancelled {
			t.Errorf("waiter woken by Close saw %s %s, want cancelled", st.ID, st.State)
		}
	}
	assertNoWatches(t, r, ids...)
}

// TestProgressDoesNotAllocate: the kernel-side cost of being watchable is
// nil with nobody watching and with a stream attached.
func TestProgressDoesNotAllocate(t *testing.T) {
	r := newTestRunner(t, NewRegistry(), 1)
	j := &job{id: "job-000001"}
	jc := &JobContext{job: j, runner: r}
	report := func() { jc.Progress(3, 10, "flood") }
	if n := testing.AllocsPerRun(1000, report); n != 0 {
		t.Errorf("Progress with no watcher: %v allocs/op, want 0", n)
	}
	w := r.watch(&j.watchers)
	defer w.close()
	if n := testing.AllocsPerRun(1000, report); n != 0 {
		t.Errorf("Progress with a watcher: %v allocs/op, want 0", n)
	}
	if len(w.ch) != 1 {
		t.Error("Progress did not wake the watcher")
	}
}

// TestEventsPaceNothingButCounters raises the counter floor to an hour: the
// stream must still write every state and stage change, the first
// counters-only change and the terminal line the moment they happen, and
// must write nothing for a second counters-only change.
func TestEventsPaceNothingButCounters(t *testing.T) {
	defer func(d time.Duration) { eventsCounterFloor = d }(eventsCounterFloor)
	eventsCounterFloor = time.Hour

	reported, step := make(chan struct{}), make(chan struct{})
	reg := NewRegistry()
	reg.Register(api.KindWorkflow, func(jc *JobContext) (any, error) {
		for done := int64(1); done <= 3; done++ {
			jc.Progress(done, 10, "work")
			reported <- struct{}{}
			<-step
		}
		return nil, nil
	})
	r := newTestRunner(t, reg, 1)
	srv := httptest.NewServer(NewGateway(r, GatewayOptions{AllowAnonymous: true}))
	defer srv.Close()
	st, err := r.Submit(blockingWorkflowRequest(), "")
	if err != nil {
		t.Fatal(err)
	}
	<-reported // parked after Progress(1, 10, "work")

	resp, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	next := func() api.JobStatus {
		t.Helper()
		if !sc.Scan() {
			t.Fatalf("stream ended early: %v", sc.Err())
		}
		var line api.JobStatus
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		return line
	}
	if line := next(); line.State != api.StateRunning || line.Stage != "work" || line.Done != 1 {
		t.Fatalf("first line = %+v, want the current snapshot (running, work, 1/10)", line)
	}
	step <- struct{}{}
	<-reported // Progress(2, ...): the first counters-only change is not held back
	if line := next(); line.State != api.StateRunning || line.Done != 2 {
		t.Fatalf("second line = %+v, want running 2/10", line)
	}
	step <- struct{}{}
	<-reported // Progress(3, ...): counters only, inside the floor
	// Let the stream take the wake-up and decide before the job ends, so
	// that what it decided is in the stream ahead of the terminal line.
	ws := r.lookupJob(st.ID).watchers.p.Load()
	if ws == nil || len(*ws) != 1 {
		t.Fatalf("the stream's watch is not registered with the job")
	}
	for len((*ws)[0].ch) != 0 {
		runtime.Gosched()
	}
	step <- struct{}{}
	if line := next(); line.State != api.StateSucceeded || line.Done != 3 {
		t.Fatalf("line after a held-back counter change = %+v, want the terminal snapshot with 3/10", line)
	}
	if sc.Scan() {
		t.Fatalf("line after the terminal one: %s", sc.Text())
	}
	waitFor(t, func() bool { return r.streams.Load() == 0 && r.watches.Load() == 0 }, "the stream to let go")
	assertNoWatches(t, r, st.ID)
	assertNoLeaks(t, r)
}

// lineSink is an events stream's response writer that signals each line.
type lineSink struct {
	header http.Header
	lines  chan struct{}
}

func (s *lineSink) Header() http.Header { return s.header }
func (s *lineSink) WriteHeader(int)     {}
func (s *lineSink) Write(p []byte) (int, error) {
	s.lines <- struct{}{}
	return len(p), nil
}

// TestEventsLineAllocatesNothing: with no counter floor, so that no line is
// held back and no timer runs, each progress report and the events line it
// wakes allocate nothing. The stream encodes its one kept status, not a
// boxed copy per line. The race detector's sync.Pool drops json's pooled
// encoders on purpose, so the pin holds only without it.
func TestEventsLineAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops entries: a race build allocates what the pools save")
	}
	defer func(d time.Duration) { eventsCounterFloor = d }(eventsCounterFloor)
	eventsCounterFloor = 0

	started, step := make(chan struct{}), make(chan int64)
	reg := NewRegistry()
	reg.Register(api.KindWorkflow, func(jc *JobContext) (any, error) {
		jc.Progress(0, 1<<40, "work")
		close(started)
		for done := range step {
			jc.Progress(done, 1<<40, "work")
		}
		return nil, nil
	})
	r := newTestRunner(t, reg, 1)
	g := NewGateway(r, GatewayOptions{AllowAnonymous: true})
	st, err := r.Submit(blockingWorkflowRequest(), "")
	if err != nil {
		t.Fatal(err)
	}
	<-started
	// Room for what the stream writes once the test stops reading: the
	// terminal line, and a counters line ahead of it if one is pending.
	w := &lineSink{header: http.Header{}, lines: make(chan struct{}, 4)}
	ended := make(chan struct{})
	go func() {
		defer close(ended)
		g.ServeHTTP(w, httptest.NewRequest("GET", "/v1/jobs/"+st.ID+"/events", nil))
	}()
	<-w.lines // the running snapshot
	done := int64(0)
	if n := testing.AllocsPerRun(200, func() {
		done++
		step <- done
		<-w.lines
	}); n != 0 {
		t.Errorf("an events line allocates %v times, want 0", n)
	}
	close(step) // the job ends; its terminal line fits the sink's buffer
	<-ended
	waitFor(t, func() bool { return r.streams.Load() == 0 && r.watches.Load() == 0 }, "the stream to let go")
	assertNoLeaks(t, r)
}
