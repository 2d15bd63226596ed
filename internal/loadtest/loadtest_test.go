package loadtest_test

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"chaseci/internal/api"
	"chaseci/internal/loadtest"
	"chaseci/internal/queue"
	"chaseci/internal/service"
)

// tinyWorkflowBody is the cheapest valid job the full registry accepts: a
// one-step workflow with 1ms of virtual duration.
func tinyWorkflowBody(t *testing.T) []byte {
	t.Helper()
	body, err := json.Marshal(&api.JobRequest{
		Kind: api.KindWorkflow,
		Name: "loadtest-smoke",
		Workflow: &api.WorkflowSpec{
			Name:  "smoke",
			Steps: []api.WorkflowStep{{Name: "s", DurationMS: 1}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func newGateway(t *testing.T, opts service.GatewayOptions) (*service.Runner, *httptest.Server) {
	t.Helper()
	runner := service.NewRunnerConfigured(service.DefaultRegistry(), queue.NewStore(), service.RunnerConfig{Workers: 4})
	t.Cleanup(runner.Close)
	if opts.Providers == nil {
		opts.Providers = map[string]string{"ucsd.edu": "UCSD", "sdsc.edu": "SDSC"}
	}
	if opts.PollInterval == 0 {
		opts.PollInterval = 2 * time.Millisecond
	}
	opts.TokenTTL = time.Hour
	srv := httptest.NewServer(service.NewGateway(runner, opts))
	t.Cleanup(srv.Close)
	return runner, srv
}

// TestSustainedSmoke is the CI smoke: a short open-loop run against a real
// in-process gateway must complete every accepted job and produce sane
// latency quantiles for the serve_sustained_* series.
func TestSustainedSmoke(t *testing.T) {
	_, srv := newGateway(t, service.GatewayOptions{})

	tenants, err := loadtest.Login(srv.URL, nil, "a@ucsd.edu", "b@sdsc.edu")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := loadtest.Run(context.Background(), loadtest.Config{
		BaseURL:      srv.URL,
		RPS:          200,
		Duration:     500 * time.Millisecond,
		Tenants:      tenants,
		Body:         tinyWorkflowBody(t),
		WaitTerminal: true,
		PollInterval: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", rep)

	if rep.Sent < 50 {
		t.Fatalf("Sent = %d, want a real arrival stream (>= 50)", rep.Sent)
	}
	if rep.Failed != 0 {
		t.Fatalf("Failed = %d, want 0 (report: %s)", rep.Failed, rep)
	}
	if rep.Accepted == 0 || rep.Completed != rep.Accepted {
		t.Fatalf("Accepted = %d, Completed = %d: every accepted job must finish", rep.Accepted, rep.Completed)
	}
	if rep.AcceptedRPS <= 0 {
		t.Fatalf("AcceptedRPS = %v", rep.AcceptedRPS)
	}
	if rep.SubmitP50 <= 0 || rep.SubmitP99 < rep.SubmitP50 {
		t.Fatalf("submit quantiles p50=%v p99=%v", rep.SubmitP50, rep.SubmitP99)
	}
	if rep.E2EP50 <= 0 || rep.E2EMax < rep.E2EP50 {
		t.Fatalf("e2e quantiles p50=%v max=%v", rep.E2EP50, rep.E2EMax)
	}
	for _, name := range []string{"a@ucsd.edu", "b@sdsc.edu"} {
		ts := rep.Tenants[name]
		if ts == nil || ts.Sent == 0 {
			t.Fatalf("tenant %s missing from the round-robin (%+v)", name, ts)
		}
	}
}

// TestShedVisibleInReport drives an arrival rate far past a tight gateway
// rate limit: the 429s must land in Shed (per tenant too), never Failed.
func TestShedVisibleInReport(t *testing.T) {
	_, srv := newGateway(t, service.GatewayOptions{
		AllowAnonymous: true,
		RateLimit:      20,
		RateBurst:      5,
	})
	rep, err := loadtest.Run(context.Background(), loadtest.Config{
		BaseURL:  srv.URL,
		RPS:      300,
		Duration: 300 * time.Millisecond,
		Body:     tinyWorkflowBody(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		t.Fatalf("Failed = %d, want 0 (report: %s)", rep.Failed, rep)
	}
	if rep.Shed == 0 {
		t.Fatalf("Shed = 0 at 300 RPS against a 20/s limit (report: %s)", rep)
	}
	if ts := rep.Tenants["anonymous"]; ts == nil || ts.Shed == 0 {
		t.Fatalf("per-tenant shed not recorded: %+v", ts)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := loadtest.Run(context.Background(), loadtest.Config{RPS: 1, Duration: time.Second}); err == nil {
		t.Fatal("missing BaseURL accepted")
	}
	if _, err := loadtest.Run(context.Background(), loadtest.Config{BaseURL: "http://x", Duration: time.Second}); err == nil {
		t.Fatal("zero RPS accepted")
	}
	if _, err := loadtest.Run(context.Background(), loadtest.Config{BaseURL: "http://x", RPS: 1}); err == nil {
		t.Fatal("zero Duration accepted")
	}
}
