package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"chaseci/internal/api"
)

// workflowBody is a one-step workflow submit whose job, workflow and step
// are all called name.
func workflowBody(name string) string {
	return fmt.Sprintf(`{"kind":"workflow","name":%q,"workflow":{"name":%q,"steps":[{"name":%q,"duration_ms":1}]}}`,
		name, name, name)
}

// postJob sends body to POST /v1/jobs through ServeHTTP and returns the
// reply's status and body.
func postJob(gw http.Handler, body string) (int, string) {
	rec := httptest.NewRecorder()
	gw.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body)))
	return rec.Code, rec.Body.String()
}

// acceptedAs checks a 202 reply, and that the job it names decoded the name
// its body gave, and returns the job's id.
func acceptedAs(r *Runner, code int, reply, name string) (string, error) {
	var sub api.SubmitResponse
	if err := json.Unmarshal([]byte(reply), &sub); code != http.StatusAccepted || err != nil {
		return "", fmt.Errorf("submit %s: %d %s", name, code, reply)
	}
	if st, ok := r.Status(sub.ID); !ok || st.Name != name {
		return "", fmt.Errorf("job %s is named %q, want %q", sub.ID, st.Name, name)
	}
	return sub.ID, nil
}

// TestSubmitDecoderSequence sends one gateway, whose submits share pooled
// decoders, every kind of body a decode can end on. Each reply is the one a
// decoder made per request gave, status and text: bytes after the first
// value are ignored, an oversize body, an unknown field, a syntax error and
// an empty body are 400s. The last submit decodes its own body only, down
// to the step names its workflow ran.
func TestSubmitDecoderSequence(t *testing.T) {
	r := newTestRunner(t, DefaultRegistry(), 1)
	gw := NewGateway(r, GatewayOptions{AllowAnonymous: true, TokenSeed: 1})
	badBody := func(msg string) string {
		return `{"error":"bad request body: ` + msg + `"}` + "\n"
	}

	for _, tc := range []struct{ name, body string }{
		{"first", workflowBody("first")},
		{"trailing", workflowBody("trailing") + "garbage"},
		{"large", strings.Repeat(" ", maxPooledBody) + workflowBody("large")},
	} {
		code, reply := postJob(gw, tc.body)
		if _, err := acceptedAs(r, code, reply, tc.name); err != nil {
			t.Fatal(err)
		}
	}

	// A body past the gateway's cap is cut off by http.MaxBytesReader; a cap
	// of a few bytes shows what 1.5 GiB would.
	var req api.JobRequest
	rec := httptest.NewRecorder()
	err := decodeSubmit(http.MaxBytesReader(rec, io.NopCloser(strings.NewReader(workflowBody("oversize"))), 16), &req)
	if mb := new(http.MaxBytesError); !errors.As(err, &mb) || err.Error() != "http: request body too large" {
		t.Fatalf("oversize body: %v, want http.MaxBytesReader's error", err)
	}

	for _, tc := range []struct{ body, reply string }{
		{`{"kind":"workflow","bogus":1}`, badBody(`json: unknown field \"bogus\"`)},
		{`{"kind" "workflow"}`, badBody(`invalid character '\"' after object key`)},
		{`{"kind":`, badBody("unexpected EOF")},
		{``, badBody("EOF")},
		{`{"kind":"workflow","name":7}`, badBody("json: cannot unmarshal number into Go struct field JobRequest.name of type string")},
	} {
		if code, reply := postJob(gw, tc.body); code != http.StatusBadRequest || reply != tc.reply {
			t.Errorf("%q: %d %q, want 400 %q", tc.body, code, reply, tc.reply)
		}
	}

	code, reply := postJob(gw, workflowBody("last"))
	id, err := acceptedAs(r, code, reply, "last")
	if err != nil {
		t.Fatal(err)
	}
	if st := waitState(t, r, id, terminal); st.State != api.StateSucceeded {
		t.Fatalf("last job: %s (%s)", st.State, st.Error)
	}
	raw, _, _ := r.Result(id)
	var res api.WorkflowResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if res.Workflow != "last" || len(res.Steps) != 1 || res.Steps[0].Name != "last" {
		t.Fatalf("last job ran workflow %q with steps %+v, want one step, both named last", res.Workflow, res.Steps)
	}
}

// TestConcurrentSubmitsDecodeTheirOwnBodies: goroutines submitting at once,
// clean bodies between ones with trailing bytes and ones refused, each get
// the job their own body names. Run it under -race: a decoder is one
// request's at a time.
func TestConcurrentSubmitsDecodeTheirOwnBodies(t *testing.T) {
	r := newTestRunner(t, DefaultRegistry(), 2)
	gw := NewGateway(r, GatewayOptions{AllowAnonymous: true, TokenSeed: 1})
	const goroutines, each = 8, 24
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range each {
				name := fmt.Sprintf("g%d-%02d", g, i)
				switch i % 3 {
				case 0, 1:
					body := workflowBody(name)
					if i%3 == 1 {
						body += `{"kind":"label"}`
					}
					code, reply := postJob(gw, body)
					if _, err := acceptedAs(r, code, reply, name); err != nil {
						t.Error(err)
					}
				case 2:
					if code, _ := postJob(gw, `{"kind":"workflow","name":"`+name+`","x":1}`); code != http.StatusBadRequest {
						t.Errorf("unknown field from %s: %d, want 400", name, code)
					}
				}
			}
		}()
	}
	wg.Wait()
}

// unreadBody is a request body that fails the test if anything reads it.
type unreadBody struct{ t *testing.T }

func (b unreadBody) Read([]byte) (int, error) {
	b.t.Error("the gateway read a body it should have refused unread")
	return 0, io.EOF
}

// TestSubmitDeclaredOversizeIs413: a submit whose Content-Length declares
// more than the gateway's cap is a 413 before a byte of its body is read,
// and registers nothing.
func TestSubmitDeclaredOversizeIs413(t *testing.T) {
	r := newTestRunner(t, DefaultRegistry(), 1)
	gw := NewGateway(r, GatewayOptions{AllowAnonymous: true, TokenSeed: 1})
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs", unreadBody{t})
	req.ContentLength = maxSubmitBytes + 1
	rec := httptest.NewRecorder()
	gw.ServeHTTP(rec, req)
	want := fmt.Sprintf(`{"error":"request body: declares %d bytes (max %d)"}`+"\n", maxSubmitBytes+1, maxSubmitBytes)
	if rec.Code != http.StatusRequestEntityTooLarge || rec.Body.String() != want {
		t.Fatalf("declared oversize submit: %d %q, want 413 %q", rec.Code, rec.Body.String(), want)
	}
	if n := r.Count(); n != 0 {
		t.Fatalf("a refused submit registered %d jobs", n)
	}
}

// TestBodyErrCode: a body cut off by http.MaxBytesReader, however wrapped,
// is a 413; a short or malformed one is a 400.
func TestBodyErrCode(t *testing.T) {
	tooBig := &http.MaxBytesError{Limit: 16}
	for _, tc := range []struct {
		err  error
		code int
	}{
		{tooBig, http.StatusRequestEntityTooLarge},
		{fmt.Errorf("decode: %w", tooBig), http.StatusRequestEntityTooLarge},
		{io.ErrUnexpectedEOF, http.StatusBadRequest},
		{errors.New("invalid character"), http.StatusBadRequest},
	} {
		if got := bodyErrCode(tc.err); got != tc.code {
			t.Errorf("bodyErrCode(%v) = %d, want %d", tc.err, got, tc.code)
		}
	}
}
