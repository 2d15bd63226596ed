package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"chaseci/internal/api"
	"chaseci/internal/service"
)

// TestServerTimeouts: `chased serve`'s server cuts off a client that sends
// its headers too slowly, and leaves an events stream open however long the
// job is silent past the idle timeout, which bounds only the wait between
// requests. The server is newServer's, with both timeouts shortened so the
// test runs in a second.
func TestServerTimeouts(t *testing.T) {
	release := make(chan struct{})
	reg := service.NewRegistry()
	reg.Register(api.KindWorkflow, func(jc *service.JobContext) (any, error) {
		<-release
		return map[string]bool{"ok": true}, nil
	})
	runner := service.NewRunnerConfigured(reg, nil, service.RunnerConfig{Workers: 1})
	defer runner.Close()
	srv := newServer("", service.NewGateway(runner, service.GatewayOptions{AllowAnonymous: true}))
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.IdleTimeout != idleTimeout {
		t.Fatalf("server timeouts %v/%v, want %v/%v", srv.ReadHeaderTimeout, srv.IdleTimeout, readHeaderTimeout, idleTimeout)
	}
	const short = 200 * time.Millisecond
	srv.ReadHeaderTimeout, srv.IdleTimeout = short, short
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	// A request line and one header, and then nothing: the server closes
	// the connection once the header timeout passes, without a reply.
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: chased\r\n"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if n, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("slow-header client: read %d bytes, %v; want the server to close the connection", n, err)
	}
	if waited := time.Since(start); waited < short {
		t.Fatalf("slow-header client cut off after %v, before the %v timeout", waited, short)
	}

	// An events stream whose job says nothing for several idle timeouts
	// still ends with the job's terminal line.
	st, err := runner.Submit(&api.JobRequest{Kind: api.KindWorkflow,
		Workflow: &api.WorkflowSpec{Name: "quiet", Steps: []api.WorkflowStep{{Name: "a"}}}}, "")
	if err != nil {
		t.Fatal(err)
	}
	streamStart := time.Now()
	resp, err := http.Get("http://" + ln.Addr().String() + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	time.AfterFunc(5*short, func() { close(release) })
	var last api.JobStatus
	lines := bufio.NewScanner(resp.Body)
	for lines.Scan() {
		if err := json.Unmarshal(lines.Bytes(), &last); err != nil {
			t.Fatal(err)
		}
	}
	if err := lines.Err(); err != nil || last.State != api.StateSucceeded {
		t.Fatalf("events stream ended at %q (%v), want the succeeded line", last.State, err)
	}
	if waited := time.Since(streamStart); waited < 5*short {
		t.Fatalf("stream ended after %v, before the job did", waited)
	}
}
