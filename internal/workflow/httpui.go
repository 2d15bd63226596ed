package workflow

import (
	"encoding/json"
	"fmt"
	"maps"
	"net"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"
)

// StatusServer is the web face of Section VI's collaborative workflow
// interface: "a web-based CHASE-CI interface ... with the list of steps
// connected to each other in a visual and meaningful way, along with a set
// of tools for measuring and testing". It serves
//
//	GET /           an HTML view of the step list with states and timings
//	GET /status     the same as JSON
//
// The simulation is single-threaded, so the server holds an immutable
// snapshot that the driver refreshes with Update between clock steps;
// HTTP handlers never touch live workflow state.
type StatusServer struct {
	httpSrv *http.Server
	ln      net.Listener

	mu     sync.RWMutex
	closed bool
	snap   statusSnapshot
}

type statusSnapshot struct {
	Workflow string           `json:"workflow"`
	Now      time.Duration    `json:"virtual_now"`
	Done     bool             `json:"done"`
	Failed   bool             `json:"failed"`
	Steps    []statusStepView `json:"steps"`
}

type statusStepView struct {
	Name         string             `json:"name"`
	DependsOn    []string           `json:"depends_on"`
	Status       string             `json:"status"`
	Duration     string             `json:"duration"`
	Measurements map[string]float64 `json:"measurements"`
	Error        string             `json:"error,omitempty"`
}

// ServeStatus starts a status server on addr ("127.0.0.1:0" for ephemeral)
// pre-loaded with the workflow's current state.
func ServeStatus(w *Workflow, addr string) (*StatusServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &StatusServer{ln: ln}
	s.Update(w)
	mux := http.NewServeMux()
	mux.HandleFunc("/status", s.handleJSON)
	mux.HandleFunc("/", s.handleHTML)
	s.httpSrv = &http.Server{Handler: mux}
	go s.httpSrv.Serve(ln)
	return s, nil
}

// Addr returns the listening host:port.
func (s *StatusServer) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down. It is idempotent and safe to call
// concurrently with Update: the snapshot swap and the closed flag share
// the server mutex, so an Update racing a Close either lands before the
// shutdown or becomes a no-op.
func (s *StatusServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	return s.httpSrv.Close()
}

// Update refreshes the served snapshot from the workflow's current state.
// Call it from the simulation driver (never concurrently with clock
// steps). Update may race Close from another goroutine: after Close it is
// a no-op.
func (s *StatusServer) Update(w *Workflow) {
	snap := statusSnapshot{
		Workflow: w.Name,
		Now:      w.clock.Now(),
		Done:     w.finished,
		Failed:   w.failed,
	}
	for i := range w.steps {
		st := &w.steps[i]
		view := statusStepView{
			Name:         st.name,
			DependsOn:    append([]string(nil), st.deps...),
			Status:       st.status.String(),
			Measurements: make(map[string]float64, len(st.measurements)),
		}
		switch st.status {
		case StatusSucceeded, StatusFailed:
			view.Duration = (st.ended - st.started).Round(time.Second).String()
		case StatusRunning:
			view.Duration = (w.clock.Now() - st.started).Round(time.Second).String() + " (running)"
		}
		for k, v := range st.measurements {
			view.Measurements[k] = v
		}
		if st.err != nil {
			view.Error = st.err.Error()
		}
		snap.Steps = append(snap.Steps, view)
	}
	s.mu.Lock()
	if !s.closed {
		s.snap = snap
	}
	s.mu.Unlock()
}

func (s *StatusServer) handleJSON(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	snap := s.snap
	s.mu.RUnlock()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(snap)
}

// pageEscaper escapes text for the page as html/template escapes it in
// element content: the HTML specials and '+' as entities, NUL as U+FFFD.
var pageEscaper = strings.NewReplacer(
	"\x00", "\uFFFD", `"`, "&#34;", "&", "&amp;", "'", "&#39;",
	"+", "&#43;", "<", "&lt;", ">", "&gt;")

func (s *StatusServer) handleHTML(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	s.mu.RLock()
	snap := s.snap
	s.mu.RUnlock()
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	esc := pageEscaper.Replace
	name := esc(snap.Workflow)
	fmt.Fprintf(w, `<!DOCTYPE html>
<html><head><title>%s — CHASE-CI workflow</title></head>
<body>
<h1>workflow: %s</h1>
<p>virtual time %s — done=%t failed=%t</p>
<table border="1" cellpadding="4">
<tr><th>#</th><th>step</th><th>depends on</th><th>status</th><th>duration</th><th>measurements</th></tr>
`, name, name, snap.Now, snap.Done, snap.Failed)
	for i, st := range snap.Steps {
		fmt.Fprintf(w, "\n<tr>\n<td>%d</td><td>%s</td>\n<td>", i, esc(st.Name))
		for _, d := range st.DependsOn {
			fmt.Fprintf(w, "%s ", esc(d))
		}
		fmt.Fprintf(w, "</td>\n<td>%s</td><td>%s</td>\n<td>", esc(st.Status), esc(st.Duration))
		for _, k := range slices.Sorted(maps.Keys(st.Measurements)) {
			fmt.Fprintf(w, "%s=%s ", esc(k), esc(fmt.Sprintf("%.4g", st.Measurements[k])))
		}
		fmt.Fprint(w, "</td>\n</tr>\n")
	}
	fmt.Fprint(w, "\n</table>\n</body></html>")
}
