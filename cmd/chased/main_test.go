package main

import (
	"encoding/json"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"

	"chaseci/internal/api"
	"chaseci/internal/service"
)

// TestAwaitJobFollowsEventsToTerminal drives `submit -wait`'s wait against a
// real gateway: the status it returns is the stream's terminal line, for a
// job that succeeds, one that fails and one that is cancelled mid-run (the
// last two are what make `submit -wait` exit 1).
func TestAwaitJobFollowsEventsToTerminal(t *testing.T) {
	started := make(chan struct{})
	reg := service.NewRegistry()
	reg.Register(api.KindWorkflow, func(jc *service.JobContext) (any, error) {
		switch jc.Request().Name {
		case "fails":
			return nil, errors.New("boom")
		case "parks":
			close(started)
			<-jc.Ctx().Done()
			return nil, jc.Ctx().Err()
		}
		return map[string]bool{"ok": true}, nil
	})
	runner := service.NewRunnerConfigured(reg, nil, service.RunnerConfig{Workers: 1})
	defer runner.Close()
	srv := httptest.NewServer(service.NewGateway(runner, service.GatewayOptions{
		Providers: map[string]string{"ucsd.edu": "UCSD"},
	}))
	defer srv.Close()

	const user = "who@ucsd.edu"
	resp, err := request("POST", srv.URL+"/v1/login", "", strings.NewReader(`{"user":"`+user+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	var login struct{ Token string }
	err = json.NewDecoder(resp.Body).Decode(&login)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}

	submit := func(name string) string {
		st, err := runner.Submit(&api.JobRequest{
			Kind:     api.KindWorkflow,
			Name:     name,
			Workflow: &api.WorkflowSpec{Name: name, Steps: []api.WorkflowStep{{Name: "a"}}},
		}, user)
		if err != nil {
			t.Fatal(err)
		}
		return st.ID
	}
	for _, tc := range []struct {
		name string
		want api.State
	}{
		{"succeeds", api.StateSucceeded},
		{"fails", api.StateFailed},
		{"parks", api.StateCancelled},
	} {
		id := submit(tc.name)
		if tc.name == "parks" {
			go func() {
				<-started
				if resp, err := request("POST", srv.URL+"/v1/jobs/"+id+"/cancel", login.Token, nil); err == nil {
					resp.Body.Close()
				}
			}()
		}
		st, err := awaitJob(srv.URL, login.Token, id)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if st.ID != id || st.State != tc.want {
			t.Errorf("%s: awaitJob = %s %s (%s), want %s %s", tc.name, st.ID, st.State, st.Error, id, tc.want)
		}
	}
	if _, err := awaitJob(srv.URL, "", submit("succeeds")); err == nil {
		t.Error("awaitJob without a token on an owned job returned no error")
	}
}
