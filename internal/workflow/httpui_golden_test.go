package workflow

import (
	"errors"
	"io"
	"net/http"
	"testing"
	"time"

	"chaseci/internal/sim"
)

// TestStatusPageGolden holds the status page and /status to their exact
// bytes for a workflow whose names, measurement keys and error carry every
// character the page escapes (< > & " ' + and NUL), a measurement whose
// %.4g form has a '+', and steps in every state.
func TestStatusPageGolden(t *testing.T) {
	clk := sim.NewClock()
	w := New(`wf <&"'+>`, clk)
	w.AddStep(StepSpec{Name: `fetch <&"'+>`, Run: func(ctx *Ctx) {
		ctx.Record("pods", 14)
		ctx.Record(`bytes<&"'+`+"\x00", 1.5e6)
		ctx.Record("a-first", 0.000123456)
		ctx.After(37*time.Minute, func() { ctx.Done(nil) })
	}})
	w.AddStep(StepSpec{Name: "train", DependsOn: []string{`fetch <&"'+>`}, Run: func(ctx *Ctx) {
		ctx.After(90*time.Second, func() { ctx.Done(errors.New(`bad <&"'+> step`)) })
	}})
	w.AddStep(StepSpec{Name: "long", DependsOn: []string{`fetch <&"'+>`}, Run: func(ctx *Ctx) {
		ctx.After(10*time.Hour, func() { ctx.Done(nil) })
	}})
	w.AddStep(StepSpec{Name: "label", DependsOn: []string{"train", "long"}, Run: func(ctx *Ctx) {
		ctx.Done(nil)
	}})
	w.Run(nil)
	clk.RunUntil(40 * time.Minute)

	srv, err := ServeStatus(w, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path, wantType, want string) {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		if ct := resp.Header.Get("Content-Type"); ct != wantType {
			t.Fatalf("GET %s: Content-Type = %q, want %q", path, ct, wantType)
		}
		if string(body) != want {
			t.Fatalf("GET %s body:\n%q\nwant:\n%q", path, body, want)
		}
	}
	get("/", "text/html; charset=utf-8", goldenStatusPage)
	get("/status", "application/json", goldenStatusJSON)
}

const goldenStatusPage = "" +
	"<!DOCTYPE html>\n" +
	"<html><head><title>wf &lt;&amp;&#34;&#39;&#43;&gt; — CHASE-CI workflow</title></head>\n" +
	"<body>\n" +
	"<h1>workflow: wf &lt;&amp;&#34;&#39;&#43;&gt;</h1>\n" +
	"<p>virtual time 40m0s — done=false failed=true</p>\n" +
	"<table border=\"1\" cellpadding=\"4\">\n" +
	"<tr><th>#</th><th>step</th><th>depends on</th><th>status</th><th>duration</th><th>measurements</th></tr>\n" +
	"\n" +
	"<tr>\n" +
	"<td>0</td><td>fetch &lt;&amp;&#34;&#39;&#43;&gt;</td>\n" +
	"<td></td>\n" +
	"<td>Succeeded</td><td>37m0s</td>\n" +
	"<td>a-first=0.0001235 bytes&lt;&amp;&#34;&#39;&#43;\uFFFD=1.5e&#43;06 pods=14 </td>\n" +
	"</tr>\n" +
	"\n" +
	"<tr>\n" +
	"<td>1</td><td>train</td>\n" +
	"<td>fetch &lt;&amp;&#34;&#39;&#43;&gt; </td>\n" +
	"<td>Failed</td><td>1m30s</td>\n" +
	"<td></td>\n" +
	"</tr>\n" +
	"\n" +
	"<tr>\n" +
	"<td>2</td><td>long</td>\n" +
	"<td>fetch &lt;&amp;&#34;&#39;&#43;&gt; </td>\n" +
	"<td>Running</td><td>3m0s (running)</td>\n" +
	"<td></td>\n" +
	"</tr>\n" +
	"\n" +
	"<tr>\n" +
	"<td>3</td><td>label</td>\n" +
	"<td>train long </td>\n" +
	"<td>Skipped</td><td></td>\n" +
	"<td></td>\n" +
	"</tr>\n" +
	"\n" +
	"</table>\n" +
	"</body></html>"

const goldenStatusJSON = `{"workflow":"wf \u003c\u0026\"'+\u003e","virtual_now":2400000000000,"done":false,"failed":true,"steps":[{"name":"fetch \u003c\u0026\"'+\u003e","depends_on":null,"status":"Succeeded","duration":"37m0s","measurements":{"a-first":0.000123456,"bytes\u003c\u0026\"'+\u0000":1500000,"pods":14}},{"name":"train","depends_on":["fetch \u003c\u0026\"'+\u003e"],"status":"Failed","duration":"1m30s","measurements":{},"error":"bad \u003c\u0026\"'+\u003e step"},{"name":"long","depends_on":["fetch \u003c\u0026\"'+\u003e"],"status":"Running","duration":"3m0s (running)","measurements":{}},{"name":"label","depends_on":["train","long"],"status":"Skipped","duration":"","measurements":{}}]}
`
