package workflow

import (
	"errors"
	"html/template"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"chaseci/internal/sim"
)

// statusTmpl is the page as html/template rendered it before the server
// wrote it with fmt: the oracle the written page is held to.
var statusTmpl = template.Must(template.New("status").Parse(`<!DOCTYPE html>
<html><head><title>{{.Workflow}} — CHASE-CI workflow</title></head>
<body>
<h1>workflow: {{.Workflow}}</h1>
<p>virtual time {{.Now}} — done={{.Done}} failed={{.Failed}}</p>
<table border="1" cellpadding="4">
<tr><th>#</th><th>step</th><th>depends on</th><th>status</th><th>duration</th><th>measurements</th></tr>
{{range $i, $s := .Steps}}
<tr>
<td>{{$i}}</td><td>{{$s.Name}}</td>
<td>{{range $s.DependsOn}}{{.}} {{end}}</td>
<td>{{$s.Status}}</td><td>{{$s.Duration}}</td>
<td>{{range $k, $v := $s.Measurements}}{{$k}}={{printf "%.4g" $v}} {{end}}</td>
</tr>
{{end}}
</table>
</body></html>`))

// TestStatusPageMatchesTemplate renders workflows in every state, with
// every character class the escaper sees and every kind of float %.4g
// prints, and holds the page to the template's bytes.
func TestStatusPageMatchesTemplate(t *testing.T) {
	odd := "x\x00<&\"'+>\xffé—\u2028"
	for _, c := range []struct {
		name  string
		build func(*testing.T) (*sim.Clock, *Workflow)
		until time.Duration
	}{
		{"empty", func(*testing.T) (*sim.Clock, *Workflow) { clk := sim.NewClock(); return clk, New("empty", clk) }, 0},
		{"mid-run", newUIWorkflow, 10 * time.Minute},
		{"done", newUIWorkflow, 24 * time.Hour},
		{"every character and float", func(*testing.T) (*sim.Clock, *Workflow) {
			clk := sim.NewClock()
			w := New(odd, clk)
			w.AddStep(StepSpec{Name: odd, Run: func(ctx *Ctx) {
				for i, v := range []float64{0, -1.5, 1e21, 1e-9, 12345.678, math.NaN(), math.Inf(1), math.Inf(-1)} {
					ctx.Record(odd+string(rune('a'+i)), v)
				}
				ctx.After(time.Minute, func() { ctx.Done(errors.New(odd)) })
			}})
			w.AddStep(StepSpec{Name: "after " + odd, DependsOn: []string{odd}, Run: func(ctx *Ctx) { ctx.Done(nil) }})
			return clk, w
		}, time.Hour},
	} {
		t.Run(c.name, func(t *testing.T) {
			clk, w := c.build(t)
			w.Run(nil)
			clk.RunUntil(c.until)
			s := &StatusServer{}
			s.Update(w)
			rec := httptest.NewRecorder()
			s.handleHTML(rec, httptest.NewRequest("GET", "/", nil))
			var want strings.Builder
			if err := statusTmpl.Execute(&want, s.snap); err != nil {
				t.Fatal(err)
			}
			if got := rec.Body.String(); got != want.String() {
				t.Fatalf("page:\n%q\ntemplate:\n%q", got, want.String())
			}
		})
	}
}

// TestPageEscaperMatchesTemplate: the escaper writes what html/template
// writes for text in an element, for every byte alone and for runes
// outside ASCII.
func TestPageEscaperMatchesTemplate(t *testing.T) {
	text := template.Must(template.New("text").Parse(`<p>{{.}}</p>`))
	var every strings.Builder
	for b := 0; b < 256; b++ {
		every.WriteByte(byte(b))
	}
	for _, c := range []struct{ name, in string }{
		{"every byte", every.String()},
		{"runes", "é—\u2028\ufffd\U0001F600 a+b"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var want strings.Builder
			if err := text.Execute(&want, c.in); err != nil {
				t.Fatal(err)
			}
			if got := "<p>" + pageEscaper.Replace(c.in) + "</p>"; got != want.String() {
				t.Fatalf("escaped %q\ntemplate %q", got, want.String())
			}
		})
	}
}
