package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"chaseci/internal/api"
)

// newOverloadFixture wires a gateway over a runner whose single worker is
// parked inside a "blocker" job, so HTTP submits pile onto the pending
// queue and trip the configured admission bounds.
func newOverloadFixture(t *testing.T, cfg RunnerConfig, opts GatewayOptions) (*gwFixture, chan struct{}) {
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
		}
		return nil, nil
	})
	cfg.Workers = 1
	runner := NewRunnerConfigured(reg, nil, cfg)
	t.Cleanup(func() {
		select {
		case <-release:
		default:
			close(release)
		}
		runner.Close()
	})
	opts.AllowAnonymous = true
	srv := httptest.NewServer(NewGateway(runner, opts))
	t.Cleanup(srv.Close)
	f := &gwFixture{t: t, runner: runner, srv: srv}

	blocker := blockingWorkflowRequest()
	blocker.Name = "blocker"
	var sub api.SubmitResponse
	if resp := f.do("POST", "/v1/jobs", blocker, &sub); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("blocker submit: status %d", resp.StatusCode)
	}
	<-started
	return f, release
}

// TestGatewayShedsWith429 is the backpressure acceptance criterion: under
// deliberate overload the gateway sheds with 429 + Retry-After and the
// pending queue stays at its bound instead of growing.
func TestGatewayShedsWith429(t *testing.T) {
	f, _ := newOverloadFixture(t, RunnerConfig{MaxPendingPerTenant: 2, MaxPending: 4}, GatewayOptions{})

	for i := 0; i < 2; i++ {
		var sub api.SubmitResponse
		if resp := f.do("POST", "/v1/jobs", blockingWorkflowRequest(), &sub); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("fill submit %d: status %d", i, resp.StatusCode)
		}
	}

	var shed int
	for i := 0; i < 5; i++ {
		var apiErr api.ErrorResponse
		resp := f.do("POST", "/v1/jobs", blockingWorkflowRequest(), &apiErr)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("overload submit %d: status %d, want 429", i, resp.StatusCode)
		}
		if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
			t.Fatalf("429 without a usable Retry-After header (%q)", ra)
		}
		if !strings.Contains(apiErr.Error, "pending queue full") {
			t.Fatalf("429 body = %+v", apiErr)
		}
		shed++
	}

	if got := f.runner.adm.shedCount(); got < int64(shed) {
		t.Fatalf("ShedCount = %d, want >= %d", got, shed)
	}
	if got := f.runner.adm.totalPending(); got > 4 {
		t.Fatalf("PendingTotal = %d after overload, want <= 4 (bounded)", got)
	}
	if text := f.runner.MetricsText(); !strings.Contains(text, "jobs_shed") {
		t.Fatalf("metrics missing jobs_shed after shedding:\n%s", text)
	}
}

// TestConcurrentOverloadConserves floods the parked deployment from many
// connections at once: eight clients for each of four logged-in tenants,
// fifty submits each. Every reply is an accept or a shed with Retry-After,
// the pending queue never passes its bound while they race, and once the
// worker is released every accepted job completes — nothing is lost between
// the gateway's counts, the runner's and the clients'.
func TestConcurrentOverloadConserves(t *testing.T) {
	const maxPending, clientsPerTenant, submitsPerClient = 16, 8, 50
	f, release := newOverloadFixture(t, RunnerConfig{MaxPendingPerTenant: 8, MaxPending: maxPending}, GatewayOptions{
		Providers: map[string]string{"ucsd.edu": "UCSD", "sdsc.edu": "SDSC"},
		TokenTTL:  time.Hour,
		TokenSeed: 1,
	})
	body, err := json.Marshal(blockingWorkflowRequest())
	if err != nil {
		t.Fatal(err)
	}
	var tokens []string
	for _, user := range []string{"a@ucsd.edu", "b@ucsd.edu", "c@sdsc.edu", "d@sdsc.edu"} {
		var login map[string]string
		if resp := f.do("POST", "/v1/login", map[string]string{"user": user}, &login); resp.StatusCode != http.StatusOK {
			t.Fatalf("login %s: status %d", user, resp.StatusCode)
		}
		tokens = append(tokens, login["token"])
	}

	var (
		mu       sync.Mutex
		accepted []string
		shed     int64
		wg       sync.WaitGroup
	)
	for c := 0; c < clientsPerTenant*len(tokens); c++ {
		wg.Add(1)
		go func(token string) {
			defer wg.Done()
			for i := 0; i < submitsPerClient; i++ {
				req, err := http.NewRequest("POST", f.srv.URL+"/v1/jobs", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				req.Header.Set("Authorization", "Bearer "+token)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Error(err)
					return
				}
				var sub api.SubmitResponse
				err = json.NewDecoder(resp.Body).Decode(&sub)
				resp.Body.Close()
				switch {
				case resp.StatusCode == http.StatusAccepted && err == nil && sub.ID != "":
					mu.Lock()
					accepted = append(accepted, sub.ID)
					mu.Unlock()
				case resp.StatusCode == http.StatusTooManyRequests && resp.Header.Get("Retry-After") != "":
					mu.Lock()
					shed++
					mu.Unlock()
				default:
					t.Errorf("submit: status %d, Retry-After %q, decode error %v", resp.StatusCode, resp.Header.Get("Retry-After"), err)
				}
				if got := f.runner.adm.totalPending(); got > maxPending {
					t.Errorf("PendingTotal = %d mid-flood, want <= %d", got, maxPending)
				}
			}
		}(tokens[c%len(tokens)])
	}
	wg.Wait()
	sent := clientsPerTenant * len(tokens) * submitsPerClient
	if len(accepted) == 0 || shed == 0 || len(accepted)+int(shed) != sent {
		t.Fatalf("accepted %d + shed %d of %d sent", len(accepted), shed, sent)
	}
	// The fixture sets no rate limit, so admission is the only source of 429s.
	if got := f.runner.adm.shedCount(); got != shed {
		t.Fatalf("ShedCount = %d, clients saw %d sheds", got, shed)
	}

	close(release)
	for _, id := range accepted {
		if st := waitState(t, f.runner, id, terminal); st.State != api.StateSucceeded {
			t.Fatalf("accepted job %s: %s (%s)", id, st.State, st.Error)
		}
	}
	assertNoLeaks(t, f.runner)
	f.runner.Close() // a job's counter trails its terminal state; Close waits for the worker
	m := metricLines(t, f.runner)
	submitted := m[`jobs_submitted{kind="workflow"}`]
	ended := m[`jobs_succeeded{kind="workflow"}`] + m[`jobs_failed{kind="workflow"}`] + m[`jobs_cancelled{kind="workflow"}`]
	if submitted != float64(len(accepted)+1) || submitted != ended { // +1: the blocker
		t.Fatalf("jobs_submitted = %v, ended = %v, accepted %d + the blocker", submitted, ended, len(accepted))
	}
}

// TestGatewayRateLimit429 covers the token-bucket per-tenant submit rate
// limit: after the burst is spent the gateway answers 429 with Retry-After
// before even reading the body, and counts the refusal per tenant.
func TestGatewayRateLimit429(t *testing.T) {
	runner := NewRunnerConfigured(DefaultRegistry(), nil, RunnerConfig{Workers: 2})
	t.Cleanup(runner.Close)
	srv := httptest.NewServer(NewGateway(runner, GatewayOptions{
		AllowAnonymous: true,
		RateLimit:      1, // 1 submit/s steady state
		RateBurst:      2,
	}))
	t.Cleanup(srv.Close)
	f := &gwFixture{t: t, runner: runner, srv: srv}

	accepted, limited := 0, 0
	for i := 0; i < 6; i++ {
		var sub api.SubmitResponse
		resp := f.do("POST", "/v1/jobs", tinySegmentRequest(), &sub)
		switch resp.StatusCode {
		case http.StatusAccepted:
			accepted++
		case http.StatusTooManyRequests:
			limited++
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("rate-limit 429 without Retry-After")
			}
		default:
			t.Fatalf("submit %d: status %d", i, resp.StatusCode)
		}
	}
	if accepted < 1 || accepted > 2 {
		t.Fatalf("accepted = %d, want the burst of <= 2", accepted)
	}
	if limited < 4 {
		t.Fatalf("limited = %d, want >= 4", limited)
	}
	if text := runner.MetricsText(); !strings.Contains(text, "submits_rate_limited") {
		t.Fatalf("metrics missing submits_rate_limited:\n%s", text)
	}
}

// TestEventsStreamDisconnectReleases pins the NDJSON stream accounting: a
// consumer that disconnects mid-stream (slow client, dropped connection)
// must release its stream slot promptly, and LeakCheck counts streams so a
// leak here fails quiescence.
func TestEventsStreamDisconnectReleases(t *testing.T) {
	f, release := newOverloadFixture(t, RunnerConfig{}, GatewayOptions{})

	// The blocker is the only job; find its id.
	jobs := f.runner.List()
	if len(jobs) != 1 {
		t.Fatalf("expected 1 job, got %d", len(jobs))
	}
	id := jobs[0].ID

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", f.srv.URL+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: status %d", resp.StatusCode)
	}
	// Read one status line so the stream is live, then drop the connection
	// while the job is still running.
	if _, err := bufio.NewReader(resp.Body).ReadString('\n'); err != nil {
		t.Fatalf("first event line: %v", err)
	}
	if got := f.runner.streams.Load(); got != 1 {
		t.Fatalf("LiveStreams = %d with one open stream, want 1", got)
	}
	cancel()

	waitFor(t, func() bool { return f.runner.streams.Load() == 0 }, "the disconnected stream to release its slot")

	// Let the blocker finish and assert full quiescence, streams included.
	close(release)
	waitState(t, f.runner, id, terminal)
	assertNoLeaks(t, f.runner)
}
