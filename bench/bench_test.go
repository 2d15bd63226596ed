package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"chaseci/internal/api"
)

func TestPercentileNearestRank(t *testing.T) {
	var s []time.Duration
	for i := 1; i <= 200; i++ {
		s = append(s, time.Duration(i))
	}
	for _, tc := range []struct {
		q      float64
		want   time.Duration
		beyond int
	}{{0.5, 100, 100}, {0.95, 190, 10}, {1, 200, 0}, {0.001, 1, 199}} {
		got, beyond := percentile(s, tc.q)
		if got != tc.want || beyond != tc.beyond {
			t.Errorf("percentile(%v) = %v with %d beyond, want %v with %d", tc.q, got, beyond, tc.want, tc.beyond)
		}
	}
	if v, n := percentile(nil, 0.5); v != 0 || n != 0 {
		t.Errorf("percentile of nothing = %v, %d", v, n)
	}
}

func TestSliceAggregation(t *testing.T) {
	slices := []*sliceStat{
		{Elapsed: time.Second, OK: 100, CPU: 200 * time.Millisecond, Lat: []time.Duration{1, 2, 3}},
		{Elapsed: time.Second, OK: 300, CPU: 300 * time.Millisecond, Lat: []time.Duration{10}},
		{Elapsed: 2 * time.Second, OK: 400, CPU: 1200 * time.Millisecond, Lat: []time.Duration{4, 5}},
		{Elapsed: time.Second, OK: 0},
	}
	rate := overSlices(slices, (*sliceStat).jobsPerSec)
	if rate.Median != 150 || rate.Min != 0 || rate.Max != 300 {
		t.Errorf("jobs/s over slices = %+v, want median 150 (mean of middle two), min 0, max 300", rate)
	}
	cpu := overSlices(slices[:3], func(s *sliceStat) float64 { return s.perUnit(ms(s.CPU)) })
	if cpu.Median != 2 {
		t.Errorf("cpu ms per job median = %v, want 2 (values 2, 1, 3)", cpu.Median)
	}
	if got := slices[3].perUnit(5); got != 0 {
		t.Errorf("per-unit figure of an empty slice = %v, want 0", got)
	}
	all := pooled(slices)
	if len(all) != 6 {
		t.Fatalf("pooled %d samples, want 6", len(all))
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	if p50, _ := percentile(all, 0.5); p50 != 3 {
		t.Errorf("pooled p50 = %v, want 3: percentiles pool samples, not slice medians", p50)
	}
}

func TestSelfTimes(t *testing.T) {
	// Disjoint children leave the gaps to the parent.
	self, got := selfTimes(interval{0, 100}, []interval{{10, 30}, {50, 90}})
	if self != 40 || got[0] != 20 || got[1] != 40 {
		t.Errorf("disjoint: self %d attributed %v, want 40 [20 40]", self, got)
	}
	// Overlapping siblings: the earlier-started one keeps the overlap, and
	// a sibling wholly inside an earlier one gets nothing — the shape of a
	// tiny job whose handler ran before the 202 reached the client.
	self, got = selfTimes(interval{0, 180}, []interval{{0, 80}, {50, 50}, {50, 60}, {60, 130}, {132, 180}})
	if want := []int64{80, 0, 0, 50, 48}; !equalInts(got, want) || self != 2 {
		t.Errorf("overlap: self %d attributed %v, want 2 %v", self, got, want)
	}
	// Children are clipped to the parent, and the parts always add up.
	parent := interval{100, 200}
	children := []interval{{150, 260}, {90, 120}}
	self, got = selfTimes(parent, children)
	var sum int64
	for _, a := range got {
		sum += a
	}
	if sum+self != parent.dur() || got[0] != 50 || got[1] != 20 {
		t.Errorf("clipped: self %d attributed %v, want 30 [50 20]", self, got)
	}
}

func equalInts(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestQueueWaitAndFinishClamp(t *testing.T) {
	j := &jobSpans{gSubmit: interval{10, 55}, handler: interval{50, 60}, cWait: interval{80, 58}}
	if q := j.queueWait(); q.dur() != 0 || q.end != 50 {
		t.Errorf("handler entered before submit returned: queue_wait %+v, want empty at 50", q)
	}
	if f := j.finish(); f.dur() != 0 {
		t.Errorf("finish %+v, want empty when the terminal poll predates the handler's return", f)
	}
	j = &jobSpans{gSubmit: interval{10, 40}, handler: interval{70, 90}, cWait: interval{45, 130}}
	if q, f := j.queueWait(), j.finish(); q.dur() != 30 || f.dur() != 40 {
		t.Errorf("queue_wait %d finish %d, want 30 and 40", q.dur(), f.dur())
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricAndWorkloadNames(t *testing.T) {
	seen := make(map[string]bool)
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is outside [A-Za-z0-9_.-]{1,64}", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check("workload", w.name)
		if len(w.why) == 0 || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		check("metric", d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

// benchmarkJSON mirrors the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) *benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatalf("the benchmark's declaration: %v", err)
	}
	var decl benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&decl); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return &decl
}

// TestDeclarationMatchesProgram keeps BENCHMARK.json and the tables in
// metrics.go and workloads.go saying the same thing.
func TestDeclarationMatchesProgram(t *testing.T) {
	decl := loadBenchmarkJSON(t)
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.name || decl.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json says %+v, the program %q: %q", i, decl.Workloads[i], w.name, w.why)
		}
	}
	if len(decl.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json declares %d end-to-end metrics, the program has %d", len(decl.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := decl.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json says %+v, the program %+v", i, got, d)
		}
	}
	if len(decl.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, the program has %d", len(decl.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		got := decl.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json says %+v, the program %+v", i, got, d)
		}
	}
}

func names[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func declared(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.Name
	}
	sort.Strings(out)
	return out
}

// TestSmokeEmitsDeclaredNames runs the whole benchmark at smoke scale and
// checks that what it emits is exactly what BENCHMARK.json declares: no
// undeclared name, no missing one, on every workload, in the report and in
// the driver's result line.
func TestSmokeEmitsDeclaredNames(t *testing.T) {
	decl := loadBenchmarkJSON(t)
	dir := t.TempDir()
	out := filepath.Join(dir, "run.json")
	spans := filepath.Join(dir, "spans.ndjson")
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-smoke", "-seed", "1", "-out", out, "-spans", spans}, &stdout, &stderr); code != 0 {
		t.Fatalf("smoke run exited %d: %s", code, stderr.String())
	}
	rep, err := readReport(out)
	if err != nil {
		t.Fatal(err)
	}
	var wantWorkloads, wantE2E, wantLayers []string
	for _, w := range decl.Workloads {
		wantWorkloads = append(wantWorkloads, w.Name)
	}
	for _, m := range decl.EndToEnd {
		wantE2E = append(wantE2E, m.Name)
	}
	for _, m := range decl.PerLayer {
		wantLayers = append(wantLayers, m.Name)
	}
	sort.Strings(wantWorkloads)
	sort.Strings(wantE2E)
	sort.Strings(wantLayers)
	if got := names(rep.Workloads); strings.Join(got, " ") != strings.Join(wantWorkloads, " ") {
		t.Fatalf("workloads emitted %v, declared %v", got, wantWorkloads)
	}
	for name, wr := range rep.Workloads {
		if got := names(wr.EndToEnd); strings.Join(got, " ") != strings.Join(wantE2E, " ") {
			t.Errorf("%s: end-to-end metrics emitted %v, declared %v", name, got, wantE2E)
		}
		if got := names(wr.PerLayer); strings.Join(got, " ") != strings.Join(wantLayers, " ") {
			t.Errorf("%s: per-layer metrics emitted %v, declared %v", name, got, wantLayers)
		}
		if !wr.Correct || wr.Failed != 0 || wr.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d %v", name, wr.Correct, wr.Attempted, wr.Failed, wr.Errors)
		}
		for _, m := range wantE2E {
			if wr.EndToEnd[m].Value <= 0 {
				t.Errorf("%s: %s = %v, an end-to-end metric must never be 0", name, m, wr.EndToEnd[m].Value)
			}
		}
		if got := names(wr.resultLine(false).Metrics); strings.Join(got, " ") != strings.Join(wantE2E, " ") {
			t.Errorf("%s: --trace 0 result line carries %v", name, got)
		}
		if got := names(wr.resultLine(true).Metrics); strings.Join(got, " ") != strings.Join(wantLayers, " ") {
			t.Errorf("%s: --trace 1 result line carries %v", name, got)
		}
		if share := wr.PerLayer["trace.unattributed_share"].Value; share > 0.05 {
			t.Errorf("%s: %.3f of traced job latency is outside the five job spans", name, share)
		}
	}
	if chain := rep.Workloads["connect_chain"]; chain != nil {
		if chain.PerLayer["sched.replica_local_share"].Value <= 0 || chain.PerLayer["step.segment_ms"].Value <= 0 {
			t.Errorf("connect_chain reports no placement locality or step times: %+v", chain.PerLayer)
		}
	}

	// The span file holds the five-span tree of every traced job.
	raw, err := os.ReadFile(spans)
	if err != nil {
		t.Fatal(err)
	}
	count := make(map[string]int)
	for _, line := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
		var s spanLine
		if err := json.Unmarshal(line, &s); err != nil {
			t.Fatalf("span line %q: %v", line, err)
		}
		if s.EndNS < s.StartNS {
			t.Errorf("span %+v ends before it starts", s)
		}
		if s.Workload == "seg_ref64_burst" {
			count[s.Name]++
		}
	}
	for _, name := range []string{"job", "client.submit", "gateway.submit", "service.queue_wait", "service.handler", "service.finish", "client.result", "gateway.result"} {
		if count[name] == 0 || count[name] != count["job"] {
			t.Errorf("seg_ref64_burst spans: %d %s for %d jobs", count[name], name, count["job"])
		}
	}
}

// TestDriverForm runs one workload the way the driver does and checks the
// last line of standard output.
func TestDriverForm(t *testing.T) {
	for _, trace := range []string{"0", "1"} {
		var stdout, stderr bytes.Buffer
		args := []string{"--workload", "ctl_tiny", "--seed", "9", "--seconds", "0.4", "--trace", trace, "-smoke"}
		if code := realMain(args, &stdout, &stderr); code != 0 {
			t.Fatalf("trace %s: exited %d: %s", trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var fields map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &fields); err != nil {
			t.Fatalf("trace %s: last line is not JSON: %v", trace, err)
		}
		if got := strings.Join(names(fields), " "); got != "attempted correct failed metrics" {
			t.Errorf("trace %s: result line keys %q", trace, got)
		}
		var line resultLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatal(err)
		}
		want := declared(endToEnd)
		if trace == "1" {
			want = declared(perLayer)
		}
		if got := names(line.Metrics); strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("trace %s: metrics %v, want %v", trace, got, want)
		}
		if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
			t.Errorf("trace %s: %+v", trace, line)
		}
	}
}

func TestBadFlagsRejected(t *testing.T) {
	for _, args := range [][]string{{"-trace", "2"}, {"-seconds", "0"}, {"-rounds", "0"}, {"-workload", "nope"}, {"-slice", "6s"}} {
		var stdout, stderr bytes.Buffer
		if code := realMain(args, &stdout, &stderr); code == 0 || stderr.Len() == 0 {
			t.Errorf("%v: exit code %d, stderr %q; want a refusal", args, code, stderr.String())
		}
	}
}

// A job that ended other than succeeded is a wrong output of the program,
// not merely a failed unit: it makes the run incorrect.
func TestEndedNonSucceededIsWrong(t *testing.T) {
	v := newVerifier("ctl_tiny", nil, nil)
	err := v.structure(&api.ResultEnvelope{ID: "job-000001", State: api.StateFailed, Error: "boom"}, new(api.WorkflowResult))
	if !errors.Is(err, errWrong) {
		t.Fatalf("structure of a failed job = %v, want errWrong", err)
	}
	v.fail(err)
	if v.wrong != 1 {
		t.Errorf("wrong = %d after a failed job, want 1", v.wrong)
	}
}

func TestCompareVerdicts(t *testing.T) {
	mv := func(v, lo, hi float64) metricValue { return metricValue{Value: v, Min: &lo, Max: &hi} }
	lower := metricDef{Name: "job_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "jobs_per_s", Better: "higher", Bound: 0.10}
	for _, tc := range []struct {
		name string
		a, b metricValue
		d    metricDef
		want string
	}{
		{"steady", mv(100, 98, 102), mv(104, 101, 106), lower, "ok"},
		{"slower beyond the bound", mv(100, 98, 102), mv(112, 110, 114), lower, "worse"},
		{"throughput down beyond the bound", mv(100, 98, 102), mv(88, 86, 90), higher, "worse"},
		{"throughput up", mv(100, 98, 102), mv(130, 128, 132), higher, "ok"},
		{"within the bound but the slices disagree", mv(100, 85, 115), mv(103, 100, 106), lower, "unresolved"},
		{"noisy, yet every slice of B beats every slice of A", mv(100, 90, 110), mv(70, 60, 80), lower, "ok"},
		{"steady, but a p95 with 9 samples beyond it", mv(100, 98, 102), metricValue{Value: 101, Samples: 187, Beyond: 9}, lower, "unresolved"},
		{"a p95 with 10 samples beyond it", mv(100, 98, 102), metricValue{Value: 101, Samples: 200, Beyond: 10}, lower, "ok"},
	} {
		if got := verdict(tc.a, tc.b, tc.d); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}

	// The end-to-end metrics and the per-layer ones that carry a bound each
	// get a row; a per-layer metric without one gets none.
	a := &report{Workloads: map[string]*workloadReport{"ctl_tiny": {
		EndToEnd: map[string]metricValue{"alloc_kb_per_job": mv(28, 28, 28)},
		PerLayer: map[string]metricValue{"jobs_per_s": mv(100, 99, 101), "job_p50_ms": mv(1, 1, 1), "service.shed": mv(0, 0, 0)}}}}
	b := &report{Workloads: map[string]*workloadReport{"ctl_tiny": {FailedShare: 0.01,
		EndToEnd: map[string]metricValue{"alloc_kb_per_job": mv(30, 30, 30)},
		PerLayer: map[string]metricValue{"jobs_per_s": mv(70, 69, 71), "job_p50_ms": mv(1, 1, 1), "service.shed": mv(9, 9, 9)}}}}
	rows := compareReports(a, b)
	got := make(map[string]string)
	for _, r := range rows {
		got[r.Metric] = r.Verdict
	}
	if len(rows) != 4 || got["alloc_kb_per_job"] != "worse" || got["jobs_per_s"] != "worse" || got["job_p50_ms"] != "ok" || got["failed_share"] != "worse" {
		t.Errorf("verdicts %v: want alloc_kb_per_job and jobs_per_s worse, job_p50_ms ok, failed_share worse on any increase, and no other row", got)
	}
	var out bytes.Buffer
	if !printCompare(&out, a, b, rows) {
		t.Error("printCompare reported no worse row")
	}
}

func TestGoldenFileCoversEveryWorkload(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"ctl_tiny", "seg_ref64_burst", "connect_chain"} {
		if n := len(g.Digests[name]); n != goldenUnits {
			t.Errorf("golden.json has %d digests for %s, want %d", n, name, goldenUnits)
		}
	}
	if n := len(g.TrainLossTail); n != goldenUnits {
		t.Errorf("golden.json has %d train_dist loss tails, want %d", n, goldenUnits)
	}
}
