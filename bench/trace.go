package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"chaseci/internal/service"
)

// Tracing lives entirely in this package: an http.Handler middleware around
// Gateway.ServeHTTP, a span around each registry handler, and client-side
// spans in the load generator. Spans stay in memory until the run ends.
//
// One job's tree:
//
//	job                     client: submit sent -> result in hand
//	├─ client.submit        client: POST /v1/jobs round trip
//	│  └─ gateway.submit    server: ServeHTTP of the POST
//	├─ service.queue_wait   gateway.submit return -> job handler entry
//	├─ service.handler      the registry handler for the job's kind
//	├─ service.finish       handler return -> the poll that saw it terminal
//	├─ client.result        client: GET .../result round trip
//	│  └─ gateway.result    server: ServeHTTP of the GET
//	└─ client.wait          client: first poll sent -> terminal seen
//	   └─ gateway.status    server: ServeHTTP of each poll
//
// client.wait overlaps queue_wait, handler and finish, so it is left out of
// the self-time sum and reported as a load-generator figure only.

type spanKind uint8

const (
	spJob spanKind = iota
	spClientSubmit
	spGatewaySubmit
	spQueueWait
	spHandler
	spFinish
	spClientWait
	spGatewayStatus
	spClientResult
	spGatewayResult
	spGatewayMetricz
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"job", "client.submit", "gateway.submit", "service.queue_wait", "service.handler",
	"service.finish", "client.wait", "gateway.status", "client.result", "gateway.result",
	"gateway.metricz",
}

var spanParents = [numSpanKinds]string{
	"", "job", "client.submit", "job", "job",
	"job", "job", "client.wait", "job", "client.result",
	"",
}

// rec is one span. job is the per-run job tag (0 = none); unit groups the
// jobs one latency sample covers and is set on root spans only.
type rec struct {
	kind       spanKind
	wl         uint8
	job, unit  uint32
	start, end int64 // ns since the tracer's epoch, monotonic
}

type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []rec
	tags  uint32
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(r rec) {
	t.mu.Lock()
	t.spans = append(t.spans, r)
	t.mu.Unlock()
}

// nextTag allocates a job tag unique within the run.
func (t *tracer) nextTag() uint32 {
	t.mu.Lock()
	t.tags++
	tag := t.tags
	t.mu.Unlock()
	return tag
}

// The job tag travels as JobRequest.Name ("t<tag>") so the registry wrapper
// can read it, and as a request header so the middleware need not parse
// bodies.
const tagHeader = "X-Bench-Job"

func tagName(tag uint32) string { return "t" + strconv.FormatUint(uint64(tag), 10) }

func parseTagName(name string) uint32 {
	if !strings.HasPrefix(name, "t") {
		return 0
	}
	n, err := strconv.ParseUint(name[1:], 10, 32)
	if err != nil {
		return 0
	}
	return uint32(n)
}

// middleware times ServeHTTP per route on the job path.
func (t *tracer) middleware(wl uint8, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		kind, ok := routeKind(r)
		if !ok {
			next.ServeHTTP(w, r)
			return
		}
		tag := parseTagName(r.Header.Get(tagHeader))
		start := t.now()
		next.ServeHTTP(w, r)
		t.add(rec{kind: kind, wl: wl, job: tag, start: start, end: t.now()})
	})
}

func routeKind(r *http.Request) (spanKind, bool) {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost && p == "/v1/jobs":
		return spGatewaySubmit, true
	case r.Method == http.MethodGet && p == "/metricz":
		return spGatewayMetricz, true
	case r.Method == http.MethodGet && strings.HasPrefix(p, "/v1/jobs/"):
		if strings.HasSuffix(p, "/result") {
			return spGatewayResult, true
		}
		if !strings.Contains(p[len("/v1/jobs/"):], "/") {
			return spGatewayStatus, true
		}
	}
	return 0, false
}

// wrap puts a span around a registry handler.
func (t *tracer) wrap(wl uint8, h service.Handler) service.Handler {
	return func(jc *service.JobContext) (any, error) {
		tag := parseTagName(jc.Request().Name)
		start := t.now()
		res, err := h(jc)
		t.add(rec{kind: spHandler, wl: wl, job: tag, start: start, end: t.now()})
		return res, err
	}
}

type interval struct{ start, end int64 }

func (iv interval) dur() int64 {
	if iv.end < iv.start {
		return 0
	}
	return iv.end - iv.start
}

// selfTimes splits a parent span's duration among its children and itself.
// Each instant of the parent goes to the child covering it that started
// first (siblings can overlap: a worker may start a job before the 202 has
// reached the client), and what no child covers is the parent's self time.
// attributed[i] belongs to children[i]; self + sum(attributed) equals the
// parent's duration exactly.
func selfTimes(parent interval, children []interval) (self int64, attributed []int64) {
	attributed = make([]int64, len(children))
	order := make([]int, len(children))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return children[order[a]].start < children[order[b]].start
	})
	cursor := parent.start
	for _, i := range order {
		s, e := children[i].start, children[i].end
		if s < cursor {
			s = cursor
		}
		if e > parent.end {
			e = parent.end
		}
		if e > s {
			attributed[i] = e - s
			cursor = e
		}
	}
	self = parent.dur()
	for _, a := range attributed {
		self -= a
	}
	return self, attributed
}

// jobSpans gathers one job's spans for analysis.
type jobSpans struct {
	unit                          uint32
	root, cSubmit, cWait, cResult interval
	gSubmit, gResult, handler     interval
	have                          [numSpanKinds]bool
	statuses                      []interval
}

// queueWait is gateway.submit's return to the handler's entry; when the
// worker beat the submit handler's return it is empty.
func (j *jobSpans) queueWait() interval {
	s := j.gSubmit.end
	if s > j.handler.start {
		s = j.handler.start
	}
	return interval{s, j.handler.start}
}

// finish is the handler's return to the poll that saw the job terminal.
func (j *jobSpans) finish() interval {
	e := j.cWait.end
	if e < j.handler.end {
		e = j.handler.end
	}
	return interval{j.handler.end, e}
}

func (j *jobSpans) complete() bool {
	for _, k := range []spanKind{spJob, spClientSubmit, spGatewaySubmit, spHandler, spClientWait, spClientResult, spGatewayResult} {
		if !j.have[k] {
			return false
		}
	}
	return true
}

// traceSummary is what the traced slices of one workload say about layers.
type traceSummary struct {
	gatewaySubmit, gatewayStatus, gatewayResult, metricz time.Duration
	clientSubmit, clientWait, clientResult, httpOverhead time.Duration
	queueWait, handler, finish, job                      time.Duration // per unit
	unattributed                                         float64
}

type jobKey struct {
	wl  uint8
	job uint32
}

// groupJobs gathers the recorded spans by job.
func (t *tracer) groupJobs() (spans []rec, jobs map[jobKey]*jobSpans) {
	t.mu.Lock()
	spans = t.spans
	t.mu.Unlock()
	jobs = make(map[jobKey]*jobSpans)
	for _, r := range spans {
		if r.job == 0 {
			continue
		}
		k := jobKey{r.wl, r.job}
		j := jobs[k]
		if j == nil {
			j = &jobSpans{}
			jobs[k] = j
		}
		iv := interval{r.start, r.end}
		j.have[r.kind] = true
		switch r.kind {
		case spJob:
			j.root, j.unit = iv, r.unit
		case spClientSubmit:
			j.cSubmit = iv
		case spGatewaySubmit:
			j.gSubmit = iv
		case spHandler:
			j.handler = iv
		case spClientWait:
			j.cWait = iv
		case spGatewayStatus:
			j.statuses = append(j.statuses, iv)
		case spClientResult:
			j.cResult = iv
		case spGatewayResult:
			j.gResult = iv
		}
	}
	return spans, jobs
}

// summarize takes medians over one workload's traced jobs: per span for the
// gateway and client figures, per unit (summed over the unit's jobs) for the
// five job spans.
func (t *tracer) summarize(wl uint8) traceSummary {
	spans, jobs := t.groupJobs()
	var metricz []time.Duration
	for _, r := range spans {
		if r.wl == wl && r.kind == spGatewayMetricz {
			metricz = append(metricz, time.Duration(r.end-r.start))
		}
	}

	type unitSum struct{ queue, handler, finish, job, self int64 }
	units := make(map[uint32]*unitSum)
	var gSub, gStat, gRes, cSub, cWait, cRes, overhead []time.Duration
	for k, j := range jobs {
		if k.wl != wl || !j.complete() {
			continue
		}
		gSub = append(gSub, time.Duration(j.gSubmit.dur()))
		gRes = append(gRes, time.Duration(j.gResult.dur()))
		for _, s := range j.statuses {
			gStat = append(gStat, time.Duration(s.dur()))
		}
		cSub = append(cSub, time.Duration(j.cSubmit.dur()))
		cWait = append(cWait, time.Duration(j.cWait.dur()))
		cRes = append(cRes, time.Duration(j.cResult.dur()))
		overhead = append(overhead, time.Duration(j.cSubmit.dur()-j.gSubmit.dur()+j.cResult.dur()-j.gResult.dur()))

		self, _ := selfTimes(j.root, []interval{j.cSubmit, j.queueWait(), j.handler, j.finish(), j.cResult})
		u := units[j.unit]
		if u == nil {
			u = &unitSum{}
			units[j.unit] = u
		}
		u.queue += j.queueWait().dur()
		u.handler += j.handler.dur()
		u.finish += j.finish().dur()
		u.job += j.root.dur()
		u.self += self
	}
	var uq, uh, uf, uj []time.Duration
	var shares []float64
	for _, u := range units {
		uq = append(uq, time.Duration(u.queue))
		uh = append(uh, time.Duration(u.handler))
		uf = append(uf, time.Duration(u.finish))
		uj = append(uj, time.Duration(u.job))
		if u.job > 0 {
			shares = append(shares, float64(u.self)/float64(u.job))
		}
	}
	return traceSummary{
		gatewaySubmit: medianDur(gSub), gatewayStatus: medianDur(gStat), gatewayResult: medianDur(gRes),
		metricz:      medianDur(metricz),
		clientSubmit: medianDur(cSub), clientWait: medianDur(cWait), clientResult: medianDur(cRes),
		httpOverhead: medianDur(overhead),
		queueWait:    medianDur(uq), handler: medianDur(uh), finish: medianDur(uf), job: medianDur(uj),
		unattributed: medianOf(shares).Median,
	}
}

// spanLine is the on-disk form of one span (one JSON object per line).
type spanLine struct {
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Parent   string `json:"parent,omitempty"`
	Job      string `json:"job,omitempty"`
	Workload string `json:"workload"`
}

// writeSpans writes every recorded span, plus the derived queue_wait and
// finish spans of each complete job, so the five-span tree can be re-derived
// from the file alone.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	defer f.Close() // harmless after the checked Close below
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	emit := func(kind spanKind, wl uint8, job uint32, iv interval) error {
		line := spanLine{Name: spanNames[kind], StartNS: iv.start, EndNS: iv.end,
			Parent: spanParents[kind], Workload: workloads[wl].name}
		if job != 0 {
			line.Job = tagName(job)
		}
		return enc.Encode(line)
	}
	spans, jobs := t.groupJobs()
	for _, r := range spans {
		if err := emit(r.kind, r.wl, r.job, interval{r.start, r.end}); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	for k, j := range jobs {
		if !j.complete() {
			continue
		}
		if err := emit(spQueueWait, k.wl, k.job, j.queueWait()); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		if err := emit(spFinish, k.wl, k.job, j.finish()); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
