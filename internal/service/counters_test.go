package service

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"chaseci/internal/api"
)

// TestMetricTouchIsAllocFree: once a series exists, touching it allocates
// nothing — the whole point of the counter table on the job path.
func TestMetricTouchIsAllocFree(t *testing.T) {
	r := newTestRunner(t, NewRegistry(), 1)
	j := &job{kind: api.KindSegment, owner: "tester@ucsd.edu"}
	j.started.Store(1)
	j.finished.Store(2)
	touch := func() {
		r.count("jobs_submitted", j.kind)
		r.gaugeAdd("jobs_running", j.kind, +1)
		r.pendingGauges(j, -1)
		r.countTenant("jobs_shed", j.owner)
		r.observeDuration(j)
	}
	touch() // create the series
	if allocs := testing.AllocsPerRun(1000, touch); allocs != 0 {
		t.Fatalf("a warmed metric touch allocates %.1f objects, want 0", allocs)
	}
}

// TestTenantSeriesCapFoldsIntoOther: the 65th distinct tenant lands in
// tenant="other", while a tenant seen before the cap keeps its own label on
// every per-tenant series, including ones first touched after the cap.
func TestTenantSeriesCapFoldsIntoOther(t *testing.T) {
	r := newTestRunner(t, NewRegistry(), 1)
	for i := 0; i < maxTenantSeries; i++ {
		r.countTenant("jobs_shed", fmt.Sprintf("t%02d@ucsd.edu", i))
	}
	r.countTenant("jobs_shed", "late@ucsd.edu")
	r.countTenant("jobs_shed", "later@ucsd.edu")
	r.countTenant("submits_rate_limited", "t00@ucsd.edu")
	m := metricLines(t, r)
	if got := m[`jobs_shed{tenant="other"}`]; got != 2 {
		t.Fatalf(`jobs_shed{tenant="other"} = %v, want 2`, got)
	}
	if got := m[`submits_rate_limited{tenant="t00@ucsd.edu"}`]; got != 1 {
		t.Fatalf("a seen tenant lost its label after the cap:\n%s", r.MetricsText())
	}
	if strings.Contains(r.MetricsText(), "late") {
		t.Fatalf("tenant past the cap got its own series:\n%s", r.MetricsText())
	}
}

// TestRunnerBookkeepingHeapIsFlat is the long-uptime check: at constant
// load with a bounded retention window, nothing the Runner keeps per job —
// registry, eviction queue, metrics, watches — may grow with the number of
// jobs served. Every tenth job is followed over its events
// stream, so a watch that outlived its stream would show here.
func TestRunnerBookkeepingHeapIsFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("40k-job soak skipped in -short")
	}
	reg := NewRegistry()
	reg.Register(api.KindWorkflow, func(*JobContext) (any, error) { return nil, nil })
	r := NewRunnerConfigured(reg, nil, RunnerConfig{Workers: 2})
	defer r.Close()
	r.retain.Store(64)
	srv := httptest.NewServer(NewGateway(r, GatewayOptions{AllowAnonymous: true}))
	defer srv.Close()

	run := func(n int) uint64 {
		for i := 0; i < n; i++ {
			st, err := r.Submit(blockingWorkflowRequest(), "")
			if err != nil {
				t.Fatal(err)
			}
			if i%10 == 0 {
				resp, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "/events")
				if err != nil {
					t.Fatal(err)
				}
				io.Copy(io.Discard, resp.Body) // ends with the terminal line
				resp.Body.Close()
			}
			waitState(t, r, st.ID, terminal)
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	const jobs = 20000
	before := run(jobs)
	after := run(jobs)
	growth := int64(after) - int64(before)
	t.Logf("heap after %d jobs: %d KB; after %d more: %+d KB", jobs, before>>10, jobs, growth>>10)
	if growth > 1<<20 {
		t.Fatalf("heap grew %d KB over %d jobs at constant load, want < 1024 KB", growth>>10, jobs)
	}
	waitFor(t, func() bool { return r.streams.Load() == 0 }, "the last stream's handler to return")
	assertNoLeaks(t, r)
}

// TestRetainedJobHeap pins what the index costs per retained job: a
// finished one-step workflow job — the record, its result and its index
// entries — measured 524 B of heap (amd64, Go 1.24), so a full index of
// maxRetainedJobs is about 26 MB. The bound is about twice that; a second
// copy of each job (the store mirror took 1,059 B per job for both)
// breaks it.
func TestRetainedJobHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("20k-job heap measurement skipped in -short")
	}
	r := NewRunnerConfigured(DefaultRegistry(), nil, RunnerConfig{Workers: 2})
	defer r.Close()
	const jobs = 10000
	run := func() int64 {
		for i := 0; i < jobs; i++ {
			st, err := r.Submit(blockingWorkflowRequest(), "")
			if err != nil {
				t.Fatal(err)
			}
			waitState(t, r, st.ID, terminal)
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	// Warm up at a small window, so every one-time allocation is made, then
	// widen the window and retain every job of a second run.
	r.retain.Store(64)
	before := run()
	r.retain.Store(maxRetainedJobs)
	after := run()
	perJob := (after - before) / jobs
	t.Logf("heap per retained job: %d B", perJob)
	if perJob > 1024 {
		t.Fatalf("a retained job costs %d B of heap, want <= 1024", perJob)
	}
}
