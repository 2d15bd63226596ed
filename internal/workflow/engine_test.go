package workflow

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
	"time"

	"chaseci/internal/sim"
)

// renderTableFmt is RenderTable as it was written with fmt: the oracle the
// table's bytes are held to.
func renderTableFmt(r Report) string {
	keySet := make(map[string]bool)
	for _, s := range r.Steps {
		for k := range s.Measurements {
			keySet[k] = true
		}
	}
	keys := make([]string, 0, len(keySet))
	for k := range keySet {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s", "")
	for _, s := range r.Steps {
		fmt.Fprintf(&b, "%16s", s.Name)
	}
	b.WriteByte('\n')
	for _, k := range keys {
		fmt.Fprintf(&b, "%-16s", k)
		for _, s := range r.Steps {
			if v, ok := s.Measurements[k]; ok {
				fmt.Fprintf(&b, "%16s", formatMeasureFmt(k, v))
			} else {
				fmt.Fprintf(&b, "%16s", "-")
			}
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%-16s", "Total Time")
	for _, s := range r.Steps {
		if s.Duration > 0 {
			fmt.Fprintf(&b, "%16s", s.Duration.Round(time.Minute))
		} else {
			fmt.Fprintf(&b, "%16s", "NA")
		}
	}
	b.WriteByte('\n')
	return b.String()
}

func formatMeasureFmt(key string, v float64) string {
	if strings.Contains(key, "bytes") || strings.Contains(key, "Data") || strings.Contains(key, "Memory") {
		switch {
		case v >= 1e12:
			return fmt.Sprintf("%.1fTB", v/1e12)
		case v >= 1e9:
			return fmt.Sprintf("%.1fGB", v/1e9)
		case v >= 1e6:
			return fmt.Sprintf("%.1fMB", v/1e6)
		case v >= 1e3:
			return fmt.Sprintf("%.1fKB", v/1e3)
		}
	}
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.2f", v)
}

// TestRenderTableMatchesFmt holds the table to the bytes fmt wrote: names
// and keys past the cell width and outside ASCII (padded by runes), sizes
// at every unit, whole and fractional numbers, the infinities, NaN and
// negative zero, missing cells, and durations that round to zero.
func TestRenderTableMatchesFmt(t *testing.T) {
	values := []float64{0, 1, -1, 14, 0.5, 2.345, -7.125, 999, 1000, 1500, 246e9, 3.2e12, 1e6, 1e300,
		math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1), 1 << 62, -(1 << 63)}
	keys := []string{"pods", "data_bytes", "Data", "Memory", "gpus", "a-key-longer-than-sixteen", "größe_bytes"}
	names := []string{"1-download", "tiny", "a-step-name-longer-than-sixteen", "ünïcödé-näme", ""}
	for trial := range 40 {
		rng := sim.NewRNG(uint64(trial) + 1)
		r := Report{Workflow: "oracle"}
		for i := range 1 + trial%5 {
			s := StepReport{Name: names[(trial+i)%len(names)], Duration: time.Duration(rng.Intn(1000)) * 17 * time.Second}
			if rng.Intn(3) > 0 {
				s.Measurements = make(map[string]float64)
				for range rng.Intn(len(keys)) {
					s.Measurements[keys[rng.Intn(len(keys))]] = values[rng.Intn(len(values))]
				}
			}
			r.Steps = append(r.Steps, s)
		}
		if got, want := r.RenderTable(), renderTableFmt(r); got != want {
			t.Fatalf("trial %d:\n got %q\nwant %q", trial, got, want)
		}
	}
	for _, v := range values {
		for _, k := range keys {
			if got, want := string(appendMeasure(nil, k, v)), formatMeasureFmt(k, v); got != want {
				t.Fatalf("%s=%v: %q, want %q", k, v, got, want)
			}
		}
	}
}

// TestRunAllocatesStepsAndReport: a run allocates the Workflow, the step
// records (one slice, made once by Grow or grown by append), the dependency
// indices when some step has any, each recording step's measurement map,
// and the Report — nothing per lookup, per dependency or per finished step.
// The table costs its one builder.
func TestRunAllocatesStepsAndReport(t *testing.T) {
	instant := func(ctx *Ctx) { ctx.Done(nil) }
	diamond := []StepSpec{
		{Name: "root", Run: instant},
		{Name: "left", DependsOn: []string{"root"}, Run: instant},
		{Name: "right", DependsOn: []string{"root"}, Run: instant},
		{Name: "join", DependsOn: []string{"left", "right"}, Run: instant},
	}
	for _, tc := range []struct {
		name   string
		steps  []StepSpec
		grow   bool // the caller sizes the steps once
		allocs float64
	}{
		// Workflow, steps, report.
		{"one", []StepSpec{{Name: "only", Run: instant}}, false, 3},
		{"one_sized", []StepSpec{{Name: "only", Run: instant}}, true, 3},
		// Workflow, steps grown 1 -> 2 -> 4, indices, report.
		{"diamond", diamond, false, 6},
		// Workflow, steps made once, indices, report.
		{"diamond_sized", diamond, true, 4},
	} {
		clk := sim.NewClock()
		var report Report
		got := testing.AllocsPerRun(100, func() {
			w := New(tc.name, clk)
			if tc.grow {
				w.Grow(len(tc.steps))
			}
			for _, s := range tc.steps {
				if err := w.AddStep(s); err != nil {
					t.Fatal(err)
				}
			}
			var err error
			if report, err = w.ExecuteCtx(context.Background()); err != nil || w.Failed() {
				t.Fatalf("%s: err %v, failed %v", tc.name, err, w.Failed())
			}
		})
		if got != tc.allocs {
			t.Errorf("%s: a run allocates %v times, want %v", tc.name, got, tc.allocs)
		}
		if got := testing.AllocsPerRun(100, func() { _ = report.RenderTable() }); got != 1 {
			t.Errorf("%s: RenderTable allocates %v times, want 1", tc.name, got)
		}
	}
}

// TestSkipReachesEarlierDeclaredSteps: a failure skips every step that
// depends on it, however the steps are ordered. Here "first" depends on
// "middle", declared after it, which depends on the failing "root": the
// pass that skips "middle" has already passed "first", which must still be
// skipped rather than left pending with the workflow never done.
func TestSkipReachesEarlierDeclaredSteps(t *testing.T) {
	clk := sim.NewClock()
	w := New("order", clk)
	w.AddStep(timedStep("first", time.Minute, "middle"))
	w.AddStep(timedStep("middle", time.Minute, "root"))
	w.AddStep(StepSpec{Name: "root", Run: func(ctx *Ctx) {
		ctx.After(time.Minute, func() { ctx.Done(errors.New("boom")) })
	}})
	report, err := w.ExecuteCtx(context.Background())
	if err != nil {
		t.Fatalf("ExecuteCtx: %v", err)
	}
	for i, want := range []Status{StatusSkipped, StatusSkipped, StatusFailed} {
		if report.Steps[i].Status != want {
			t.Fatalf("%s = %v, want %v", report.Steps[i].Name, report.Steps[i].Status, want)
		}
	}
}

// TestReportHandsOverFinishedMeasurements: a finished step's report shares
// the step's map, a running step's report gets a copy, and a step that
// records after Done is a bug that panics.
func TestReportHandsOverFinishedMeasurements(t *testing.T) {
	clk := sim.NewClock()
	w := New("handover", clk)
	var late *Ctx
	w.AddStep(StepSpec{Name: "a", Run: func(ctx *Ctx) {
		ctx.Record("pods", 1)
		ctx.Done(nil)
		late = ctx
	}})
	w.AddStep(StepSpec{Name: "b", Run: func(ctx *Ctx) {
		ctx.Record("pods", 2)
		ctx.After(time.Minute, func() { ctx.Done(nil) })
	}})
	if err := w.Run(nil); err != nil {
		t.Fatal(err)
	}
	r := w.Report()
	if w.stepNamed("a").measurements == nil || r.Steps[0].Measurements["pods"] != 1 {
		t.Fatalf("finished step: %v", r.Steps[0].Measurements)
	}
	r.Steps[1].Measurements["pods"] = 99 // a copy: the step's own stays
	if w.stepNamed("b").measurements["pods"] != 2 {
		t.Fatal("a running step's report shares its map")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Record after Done did not panic")
			}
		}()
		late.Record("pods", 3)
	}()
	if r.Steps[0].Measurements["pods"] != 1 {
		t.Fatalf("the handed-over map changed: %v", r.Steps[0].Measurements)
	}
}

// TestStepsAreFixedOnceRun: AddStep after Run is refused (the running
// steps' handles point into the step records), and a DAG refused for a
// cycle is refused again on a second Run.
func TestStepsAreFixedOnceRun(t *testing.T) {
	w := New("fixed", sim.NewClock())
	w.AddStep(timedStep("a", time.Second))
	w.Run(nil)
	if err := w.AddStep(timedStep("b", time.Second)); !errors.Is(err, ErrAlreadyRun) {
		t.Fatalf("AddStep after Run = %v, want ErrAlreadyRun", err)
	}
	c := New("cycle", sim.NewClock())
	c.AddStep(timedStep("x", time.Second, "y"))
	c.AddStep(timedStep("y", time.Second, "x"))
	c.AddStep(timedStep("z", time.Second))
	for range 2 {
		if err := c.Run(nil); !errors.Is(err, ErrCycle) {
			t.Fatalf("Run = %v, want ErrCycle", err)
		}
	}
}

// TestLookupOverManySteps resolves names among many steps declared out of
// order: a chain declared in reverse runs in dependency order, its report
// carries the failing step's error, and the same steps with one name
// declared twice are refused by Run.
func TestLookupOverManySteps(t *testing.T) {
	const n = 300
	name := func(i int) string { return fmt.Sprintf("s%03d", (i*7)%n) }
	build := func() *Workflow {
		w := New("many", sim.NewClock())
		for i := n - 1; i >= 0; i-- {
			var deps []string
			if i > 0 {
				deps = []string{name(i - 1)}
			}
			fail := i == n-1
			if err := w.AddStep(StepSpec{Name: name(i), DependsOn: deps, Run: func(ctx *Ctx) {
				var err error
				if fail {
					err = errors.New(name(n - 1))
				}
				ctx.After(time.Second, func() { ctx.Done(err) })
			}}); err != nil {
				t.Fatal(err)
			}
		}
		return w
	}
	w := build()
	report, err := w.ExecuteCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if report.Total != n*time.Second {
		t.Fatalf("chain took %v, want %v", report.Total, n*time.Second)
	}
	for i := range n {
		if err := w.StepError(name(i)); (err != nil) != (i == n-1) {
			t.Fatalf("StepError(%s) = %v", name(i), err)
		}
	}
	if w.StepError("ghost") != nil {
		t.Fatal("StepError of an unknown step")
	}
	dup := build()
	dup.AddStep(timedStep(name(5), time.Second))
	if err := dup.Run(nil); !errors.Is(err, ErrDuplicateStep) {
		t.Fatalf("duplicate %s: %v", name(5), err)
	}
}

// BenchmarkChain builds and runs a 10,000-step chain, the schema's step
// limit, declared in reverse with names that do not sort in chain order:
// each step ends a virtual second after it starts. The add sub-benchmark
// is the AddStep calls alone.
func BenchmarkChain(b *testing.B) {
	const n = 10000
	name := func(p int) string { return fmt.Sprintf("s%05d", p*7%n) }
	specs := make([]StepSpec, n)
	for i := range specs {
		p := n - 1 - i // the step's place in the chain
		specs[i] = timedStep(name(p), time.Second)
		if p > 0 {
			specs[i].DependsOn = []string{name(p - 1)}
		}
	}
	build := func(b *testing.B) *Workflow {
		w := New("chain", sim.NewClock())
		w.Grow(len(specs))
		for _, s := range specs {
			if err := w.AddStep(s); err != nil {
				b.Fatal(err)
			}
		}
		return w
	}
	b.Run("add", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			build(b)
		}
	})
	b.Run("run", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if report, err := build(b).ExecuteCtx(context.Background()); err != nil || report.Total != n*time.Second {
				b.Fatalf("err %v, total %v", err, report.Total)
			}
		}
	})
}
