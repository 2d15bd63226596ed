package service

import (
	"bytes"
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

// rewindBody is a request body that can be served again: Reset rewinds it
// to a new payload without a new reader per request.
type rewindBody struct{ bytes.Reader }

func (*rewindBody) Close() error { return nil }

// keptResponse is a ResponseWriter that keeps one header map and the last
// reply's body, in a buffer reused from request to request.
type keptResponse struct {
	h    http.Header
	code int
	body []byte
}

func (k *keptResponse) Header() http.Header { return k.h }
func (k *keptResponse) WriteHeader(code int) {
	k.code = code
	k.body = k.body[:0]
}
func (k *keptResponse) Write(b []byte) (int, error) {
	k.body = append(k.body, b...)
	return len(b), nil
}

// TestSubmitAllocs pins what a workflow submit allocates through ServeHTTP,
// the job it starts run to the end: the request's decode, the job's record
// and run, the ack, and the id the test reads back from it (one string).
// The decoder comes from a pool and goes back after a clean decode, so a
// submit allocates no json.Decoder, no read buffer and no parse stack; one
// that built its own decoder per request allocated 12 more times (42.3
// against 30.3 on linux/amd64, Go 1.24). Like TestPollRepliesAllocs it
// holds only without the race detector, whose sync.Pool drops entries.
func TestSubmitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops entries: a race build allocates what the pools save")
	}
	const n, max = 200, 33
	runner := NewRunnerConfigured(DefaultRegistry(), nil, RunnerConfig{Workers: 1})
	t.Cleanup(runner.Close)
	gw := NewGateway(runner, GatewayOptions{AllowAnonymous: true, TokenSeed: 1})
	body := []byte(`{"kind":"workflow","workflow":{"name":"tiny","steps":[{"name":"only","duration_ms":1}]}}`)
	rb := new(rewindBody)
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs", rb)
	w := &keptResponse{h: make(http.Header)}
	submit := func() {
		rb.Reset(body)
		gw.ServeHTTP(w, req)
		if w.code != http.StatusAccepted {
			t.Fatalf("submit: %d %s", w.code, w.body)
		}
		_, rest, _ := bytes.Cut(w.body, []byte(`"id":"`))
		raw, _, _ := bytes.Cut(rest, []byte(`"`))
		id := string(raw)
		for {
			st, ok := runner.Status(id)
			if !ok {
				t.Fatalf("job %q vanished", id)
			}
			if st.State.Terminal() {
				if st.State != api.StateSucceeded {
					t.Fatalf("job %s: %s (%s)", id, st.State, st.Error)
				}
				return
			}
			runtime.Gosched()
		}
	}
	for range n {
		submit()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for range n {
		submit()
	}
	runtime.ReadMemStats(&m1)
	got := float64(m1.Mallocs-m0.Mallocs) / n
	t.Logf("a workflow submit, run to the end: %.2f allocations, %.2f KB", got, float64(m1.TotalAlloc-m0.TotalAlloc)/n/1024)
	if got > max {
		t.Errorf("a workflow submit allocates %.2f times, want <= %d", got, max)
	}
}
