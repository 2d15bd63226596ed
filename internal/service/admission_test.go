package service

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"chaseci/internal/api"
)

// blockedRunner builds a 1-worker runner whose only worker is stuck inside
// a job named "blocker" until release is closed; every later submit piles
// up in the pending queue, which is exactly the state admission control
// and fair dispatch are about.
func blockedRunner(t *testing.T, cfg RunnerConfig, onRun func(owner string)) (*Runner, chan struct{}) {
	t.Helper()
	release := make(chan struct{})
	reg := NewRegistry()
	started := make(chan struct{}, 1)
	reg.Register(api.KindWorkflow, func(jc *JobContext) (any, error) {
		if jc.Request().Name == "blocker" {
			started <- struct{}{}
			select {
			case <-release:
			case <-jc.Ctx().Done():
				return nil, jc.Ctx().Err()
			}
			return nil, nil
		}
		if onRun != nil {
			onRun(jc.Owner())
		}
		return nil, nil
	})
	cfg.Workers = 1
	r := NewRunnerConfigured(reg, nil, cfg)
	t.Cleanup(func() {
		select {
		case <-release:
		default:
			close(release)
		}
		r.Close()
	})
	blocker := blockingWorkflowRequest()
	blocker.Name = "blocker"
	if _, err := r.Submit(blocker, "flood@ucsd.edu"); err != nil {
		t.Fatal(err)
	}
	<-started // the only worker is now parked inside the blocker
	return r, release
}

func TestSubmitShedsWhenQueuesFull(t *testing.T) {
	r, _ := blockedRunner(t, RunnerConfig{MaxPendingPerTenant: 3, MaxPending: 5}, nil)

	// Tenant A fills its per-tenant bound.
	for i := 0; i < 3; i++ {
		if _, err := r.Submit(blockingWorkflowRequest(), "a@ucsd.edu"); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	_, err := r.Submit(blockingWorkflowRequest(), "a@ucsd.edu")
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("4th tenant submit: err = %v, want ErrOverloaded", err)
	}
	var ov *OverloadError
	if !errors.As(err, &ov) || ov.Scope != "tenant" || ov.Limit != 3 || ov.RetryAfter <= 0 {
		t.Fatalf("overload detail = %+v", ov)
	}

	// Tenant B can still get in until the global bound trips.
	for i := 0; i < 2; i++ {
		if _, err := r.Submit(blockingWorkflowRequest(), "b@sdsc.edu"); err != nil {
			t.Fatalf("tenant b submit %d: %v", i, err)
		}
	}
	_, err = r.Submit(blockingWorkflowRequest(), "b@sdsc.edu")
	if !errors.As(err, &ov) || ov.Scope != "global" || ov.Limit != 5 {
		t.Fatalf("global overload: err = %v, detail %+v", err, ov)
	}

	if got := r.adm.totalPending(); got != 5 {
		t.Fatalf("PendingTotal = %d, want 5 (bounded)", got)
	}
	if got := r.adm.tenantPending("a@ucsd.edu"); got != 3 {
		t.Fatalf("TenantPending(a) = %d, want 3", got)
	}
	if got := r.adm.shedCount(); got != 2 {
		t.Fatalf("ShedCount = %d, want 2", got)
	}
	text := r.MetricsText()
	if !strings.Contains(text, "jobs_shed") || !strings.Contains(text, "queue_depth") {
		t.Fatalf("metrics missing shed/depth series:\n%s", text)
	}
}

// TestFairDispatchNoStarvation pins the fairness acceptance criterion: a
// tenant flooding the queue cannot starve a light tenant. With start-time
// weighted fair dispatch the light tenant's 5 jobs interleave with the
// flood instead of waiting behind all 20 of its jobs.
func TestFairDispatchNoStarvation(t *testing.T) {
	var mu sync.Mutex
	var order []string
	r, release := blockedRunner(t, RunnerConfig{}, func(owner string) {
		mu.Lock()
		order = append(order, owner)
		mu.Unlock()
	})

	const floods, lights = 20, 5
	var ids []string
	submit := func(owner string, n int) {
		for i := 0; i < n; i++ {
			st, err := r.Submit(blockingWorkflowRequest(), owner)
			if err != nil {
				t.Fatalf("submit %s %d: %v", owner, i, err)
			}
			ids = append(ids, st.ID)
		}
	}
	submit("flood@ucsd.edu", floods) // entire flood queued first
	submit("light@sdsc.edu", lights)

	close(release)
	for _, id := range ids {
		waitState(t, r, id, terminal) // a terminal job has already recorded its turn
	}

	lastLight := -1
	for i, owner := range order {
		if owner == "light@sdsc.edu" {
			lastLight = i
		}
	}
	// Equal weights alternate the two tenants, so the light tenant's last
	// job lands around position 2*lights; FIFO would leave it at the very
	// end behind the whole flood.
	if lastLight > 2*lights+2 {
		t.Fatalf("light tenant starved: last job at position %d of %d (order %v)",
			lastLight, len(order), order)
	}
}

// TestWeightedTenantsShareByWeight checks the fair queue end to end: a
// weight-2 tenant drains twice as fast as a weight-1 tenant.
func TestWeightedTenantsShareByWeight(t *testing.T) {
	var mu sync.Mutex
	var order []string
	r, release := blockedRunner(t,
		RunnerConfig{TenantWeights: map[string]int{"heavy@ucsd.edu": 2}},
		func(owner string) {
			mu.Lock()
			order = append(order, owner)
			mu.Unlock()
		})

	var ids []string
	for i := 0; i < 12; i++ {
		owner := "heavy@ucsd.edu"
		if i >= 8 {
			owner = "slim@sdsc.edu"
		}
		st, err := r.Submit(blockingWorkflowRequest(), owner)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	close(release)
	for _, id := range ids {
		waitState(t, r, id, terminal)
	}
	heavyFirst6 := 0
	for _, owner := range order[:6] {
		if owner == "heavy@ucsd.edu" {
			heavyFirst6++
		}
	}
	if heavyFirst6 < 3 || heavyFirst6 > 5 {
		t.Fatalf("weight-2 tenant got %d of first 6 slots, want ~4 (order %v)", heavyFirst6, order)
	}
}

func TestFairQueueWeightedPopOrder(t *testing.T) {
	fq := newFairQueue(func(tenant string) int {
		if tenant == "heavy" {
			return 2
		}
		return 1
	})
	for i := 0; i < 6; i++ {
		fq.Push("heavy", string(rune('a'+i)))
	}
	for i := 0; i < 3; i++ {
		fq.Push("light", string(rune('x'+i)))
	}
	if fq.Len() != 9 {
		t.Fatalf("Len = %d, want 9", fq.Len())
	}
	heavy := 0
	for i := 0; i < 6; i++ {
		id, ok := fq.Pop()
		if !ok {
			t.Fatalf("pop %d: queue empty early", i)
		}
		if id >= "a" && id <= "f" {
			heavy++
		}
	}
	if heavy != 4 {
		t.Fatalf("heavy served %d of first 6, want 4 (weight 2:1)", heavy)
	}
	rest := fq.PopAll()
	if len(rest) != 3 || fq.Len() != 0 {
		t.Fatalf("PopAll = %v, Len = %d", rest, fq.Len())
	}
	if _, ok := fq.Pop(); ok {
		t.Fatal("Pop on empty queue returned ok")
	}
}

// TestRetentionWindow: with retention R, the R most recently finished jobs
// resolve through Status, Result, GET /v1/jobs/{id}, its /result and its
// /events, and every older one is 404 on all three — nothing else keeps a
// copy — while the eviction queue holds no more ids than the index retains.
func TestRetentionWindow(t *testing.T) {
	const retain, total = 4, 30
	r := newTestRunner(t, DefaultRegistry(), 1)
	r.retain.Store(retain)
	srv := httptest.NewServer(NewGateway(r, GatewayOptions{AllowAnonymous: true}))
	t.Cleanup(srv.Close)

	ids := make([]string, 0, total)
	for i := 0; i < total; i++ {
		st, err := r.Submit(tinySegmentRequest(), anonOwner)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
		waitState(t, r, st.ID, terminal)
	}
	// execute publishes the terminal state before it prunes; Close returns
	// once the worker has left execute, and leaves the index readable.
	r.Close()

	r.evictMu.Lock()
	queued := len(r.evictOrder.buf) - r.evictOrder.head
	r.evictMu.Unlock()
	if queued != retain || r.Count() != retain {
		t.Fatalf("index holds %d jobs and queues %d terminal ids, want %d and %d", r.Count(), queued, retain, retain)
	}
	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	for i, id := range ids {
		kept := i >= total-retain
		st, ok := r.Status(id)
		raw, rst, rok := r.Result(id)
		if ok != kept || rok != kept {
			t.Fatalf("job %d of %d: Status ok=%v, Result ok=%v; want %v", i, total, ok, rok, kept)
		}
		want := http.StatusNotFound
		if kept {
			want = http.StatusOK
			if st.State != api.StateSucceeded || rst.State != api.StateSucceeded || len(raw) == 0 {
				t.Fatalf("retained job %s: status %+v, result %q", id, st, raw)
			}
		}
		for _, path := range []string{"/v1/jobs/" + id, "/v1/jobs/" + id + "/result", "/v1/jobs/" + id + "/events"} {
			if code := get(path); code != want {
				t.Fatalf("GET %s = %d, want %d", path, code, want)
			}
		}
	}
}

// TestListReturnsTheNewestJobs: List, and with it GET /v1/jobs, returns
// the maxListedJobs newest jobs in submit order, however many the index
// holds.
func TestListReturnsTheNewestJobs(t *testing.T) {
	r, _ := blockedRunner(t, RunnerConfig{MaxPending: -1, MaxPendingPerTenant: -1}, nil)
	ids := []string{r.List()[0].ID} // the blocker
	for len(ids) < maxListedJobs+5 {
		st, err := r.Submit(blockingWorkflowRequest(), anonOwner)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	want := ids[len(ids)-maxListedJobs:]
	srv := httptest.NewServer(NewGateway(r, GatewayOptions{AllowAnonymous: true}))
	t.Cleanup(srv.Close)
	resp, err := http.Get(srv.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var listed []api.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&listed); err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string][]api.JobStatus{"List": r.List(), "GET /v1/jobs": listed} {
		if len(got) != maxListedJobs || got[0].ID != want[0] || got[len(got)-1].ID != want[len(want)-1] {
			t.Fatalf("%s returned %d jobs, %s..%s; want %d, %s..%s", name, len(got),
				got[0].ID, got[len(got)-1].ID, maxListedJobs, want[0], want[len(want)-1])
		}
	}
}

// BenchmarkRegistrySubmitPoll is the serving fast path under contention:
// mostly status polls with an occasional submit, 8 goroutines per GOMAXPROCS
// so they queue on the stripe locks. Run with -cpu 1,2.
func BenchmarkRegistrySubmitPoll(b *testing.B) {
	reg := NewRegistry()
	reg.Register(api.KindWorkflow, func(jc *JobContext) (any, error) { return nil, nil })
	r := NewRunnerConfigured(reg, nil, RunnerConfig{
		Workers:    2,
		MaxPending: -1, MaxPendingPerTenant: -1,
	})
	defer r.Close()
	ids := make([]string, 256)
	for i := range ids {
		st, err := r.Submit(blockingWorkflowRequest(), "seed@ucsd.edu")
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
			if i%64 == 0 {
				r.Submit(blockingWorkflowRequest(), "bench@ucsd.edu")
			} else {
				r.Status(ids[(i*7)&255])
			}
		}
	})
}

// tenantPending returns tenant's current pending count.
func (a *admission) tenantPending(tenant string) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.pending[tenant]
}

// totalPending returns the global pending count.
func (a *admission) totalPending() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.total
}

// shedCount returns how many submits admission has refused.
func (a *admission) shedCount() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.shed
}
