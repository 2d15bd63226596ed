package service

import (
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"

	"chaseci/internal/api"
)

// discardResponse is a ResponseWriter that keeps one header map and drops
// the body, so what a request allocates through ServeHTTP is the gateway's.
type discardResponse struct {
	h    http.Header
	code int
}

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardResponse) WriteHeader(code int)        { d.code = code }

// servedAllocs is the mean allocation count of one GET of path through
// ServeHTTP, issued n times by each of GOMAXPROCS goroutines at once, after
// a round that warms the gateway's pools on every P.
func servedAllocs(t *testing.T, h http.Handler, path string, n int) float64 {
	t.Helper()
	procs := runtime.GOMAXPROCS(0)
	ws := make([]*discardResponse, procs)
	reqs := make([]*http.Request, procs)
	for g := range procs {
		ws[g] = &discardResponse{h: make(http.Header)}
		reqs[g] = httptest.NewRequest(http.MethodGet, path, nil)
	}
	round := func() {
		var wg sync.WaitGroup
		for g := range procs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range n {
					h.ServeHTTP(ws[g], reqs[g])
				}
			}()
		}
		wg.Wait()
	}
	round()
	for g := range procs {
		if ws[g].code != http.StatusOK {
			t.Fatalf("GET %s: %d", path, ws[g].code)
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	round()
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(procs*n)
}

// TestPollRepliesAllocs pins what a poll and a result fetch allocate through
// ServeHTTP, at every GOMAXPROCS the test runs at. Each reply is encoded
// through a pooled value (replyPool); one passed to writeJSON by value would
// be boxed, a heap copy per request, and one more allocation here. The rest
// is the Content-Type header and the mux's path match. The race detector's
// sync.Pool drops entries on purpose, json's own pools among them, so the
// pin holds only without it; CI runs it that way at -cpu 1,2,4.
func TestPollRepliesAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops entries: a race build allocates what the pools save")
	}
	runner := NewRunnerConfigured(DefaultRegistry(), nil, RunnerConfig{Workers: 1})
	t.Cleanup(runner.Close)
	gw := NewGateway(runner, GatewayOptions{AllowAnonymous: true, TokenSeed: 1})
	st, err := runner.Submit(&api.JobRequest{Kind: api.KindWorkflow, Workflow: &api.WorkflowSpec{
		Name: "tiny", Steps: []api.WorkflowStep{{Name: "only", DurationMS: 1}}}}, anonOwner)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, runner, st.ID, terminal)
	for _, tc := range []struct {
		path string
		max  float64
	}{
		{"/v1/jobs/" + st.ID, 2.5},
		{"/v1/jobs/" + st.ID + "/result", 2.5},
	} {
		got := servedAllocs(t, gw, tc.path, 500)
		t.Logf("GET %s: %.2f allocations", tc.path, got)
		if got > tc.max {
			t.Errorf("GET %s allocates %.2f times, want <= %g", tc.path, got, tc.max)
		}
	}
}
