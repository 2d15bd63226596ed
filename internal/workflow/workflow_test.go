package workflow

import (
	"errors"
	"strings"
	"testing"
	"time"

	"chaseci/internal/sim"
)

// timedStep returns a StepSpec that succeeds after d.
func timedStep(name string, d time.Duration, deps ...string) StepSpec {
	return StepSpec{
		Name: name, DependsOn: deps,
		Run: func(ctx *Ctx) {
			ctx.After(d, func() { ctx.Done(nil) })
		},
	}
}

func TestLinearWorkflowRunsInOrder(t *testing.T) {
	clk := sim.NewClock()
	w := New("connect", clk)
	var order []string
	mk := func(name string, deps ...string) StepSpec {
		return StepSpec{Name: name, DependsOn: deps, Run: func(ctx *Ctx) {
			ctx.After(time.Minute, func() {
				order = append(order, name)
				ctx.Done(nil)
			})
		}}
	}
	w.AddStep(mk("download"))
	w.AddStep(mk("train", "download"))
	w.AddStep(mk("inference", "train"))
	w.AddStep(mk("visualize", "inference"))
	var ok *bool
	if err := w.Run(func(b bool) { ok = &b }); err != nil {
		t.Fatal(err)
	}
	clk.Run()
	if !w.Done() || ok == nil || !*ok {
		t.Fatalf("done=%v ok=%v", w.Done(), ok)
	}
	want := []string{"download", "train", "inference", "visualize"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v", order)
		}
	}
	if clk.Now() != 4*time.Minute {
		t.Fatalf("total virtual time = %v, want 4m", clk.Now())
	}
}

func TestParallelStepsOverlap(t *testing.T) {
	clk := sim.NewClock()
	w := New("par", clk)
	w.AddStep(timedStep("a", 10*time.Minute))
	w.AddStep(timedStep("b", 10*time.Minute))
	w.Run(nil)
	clk.Run()
	if clk.Now() != 10*time.Minute {
		t.Fatalf("parallel steps took %v, want 10m", clk.Now())
	}
}

func TestDiamondDependency(t *testing.T) {
	clk := sim.NewClock()
	w := New("diamond", clk)
	w.AddStep(timedStep("root", time.Minute))
	w.AddStep(timedStep("left", 2*time.Minute, "root"))
	w.AddStep(timedStep("right", 3*time.Minute, "root"))
	w.AddStep(timedStep("join", time.Minute, "left", "right"))
	w.Run(nil)
	clk.Run()
	// 1 + max(2,3) + 1 = 5 minutes.
	if clk.Now() != 5*time.Minute {
		t.Fatalf("diamond took %v, want 5m", clk.Now())
	}
	if w.stepNamed("join").status != StatusSucceeded {
		t.Fatalf("join = %v", w.stepNamed("join").status)
	}
}

func TestFailureSkipsDependents(t *testing.T) {
	clk := sim.NewClock()
	w := New("fail", clk)
	boom := errors.New("download failed")
	w.AddStep(StepSpec{Name: "download", Run: func(ctx *Ctx) {
		ctx.After(time.Second, func() { ctx.Done(boom) })
	}})
	w.AddStep(timedStep("train", time.Minute, "download"))
	w.AddStep(timedStep("infer", time.Minute, "train"))
	w.AddStep(timedStep("independent", time.Minute))
	var ok *bool
	w.Run(func(b bool) { ok = &b })
	clk.Run()
	if !w.Failed() || ok == nil || *ok {
		t.Fatalf("failed=%v ok=%v", w.Failed(), ok)
	}
	if w.stepNamed("train").status != StatusSkipped || w.stepNamed("infer").status != StatusSkipped {
		t.Fatalf("dependents = %v/%v, want Skipped", w.stepNamed("train").status, w.stepNamed("infer").status)
	}
	if w.stepNamed("independent").status != StatusSucceeded {
		t.Fatalf("independent step = %v, want Succeeded", w.stepNamed("independent").status)
	}
	if !errors.Is(w.StepError("download"), boom) {
		t.Fatalf("StepError = %v", w.StepError("download"))
	}
}

func TestCycleDetected(t *testing.T) {
	clk := sim.NewClock()
	w := New("cycle", clk)
	w.AddStep(timedStep("a", time.Second, "b"))
	w.AddStep(timedStep("b", time.Second, "a"))
	if err := w.Run(nil); !errors.Is(err, ErrCycle) {
		t.Fatalf("err = %v, want ErrCycle", err)
	}
}

func TestUnknownDependency(t *testing.T) {
	clk := sim.NewClock()
	w := New("dangling", clk)
	w.AddStep(timedStep("a", time.Second, "ghost"))
	if err := w.Run(nil); !errors.Is(err, ErrUnknownDep) {
		t.Fatalf("err = %v, want ErrUnknownDep", err)
	}
}

// TestDuplicateStepRejected: a name declared twice is refused by Run,
// which checks the DAG in one place, and the workflow stays unstarted.
func TestDuplicateStepRejected(t *testing.T) {
	clk := sim.NewClock()
	w := New("dup", clk)
	w.AddStep(timedStep("a", time.Second))
	if err := w.AddStep(timedStep("a", time.Second)); err != nil {
		t.Fatalf("AddStep = %v; the duplicate is Run's to refuse", err)
	}
	if err := w.Run(nil); !errors.Is(err, ErrDuplicateStep) {
		t.Fatalf("err = %v, want ErrDuplicateStep", err)
	}
	if err := w.AddStep(timedStep("b", time.Second)); err != nil {
		t.Fatalf("AddStep after a refused Run = %v", err)
	}
}

func TestRunTwiceRejected(t *testing.T) {
	clk := sim.NewClock()
	w := New("twice", clk)
	w.AddStep(timedStep("a", time.Second))
	w.Run(nil)
	if err := w.Run(nil); !errors.Is(err, ErrAlreadyRun) {
		t.Fatalf("err = %v, want ErrAlreadyRun", err)
	}
}

func TestDoneTwicePanics(t *testing.T) {
	clk := sim.NewClock()
	w := New("dbl", clk)
	w.AddStep(StepSpec{Name: "a", Run: func(ctx *Ctx) {
		ctx.Done(nil)
		defer func() {
			if recover() == nil {
				t.Error("second Done did not panic")
			}
		}()
		ctx.Done(nil)
	}})
	w.Run(nil)
	clk.Run()
}

func TestMeasurementsInReport(t *testing.T) {
	clk := sim.NewClock()
	w := New("measured", clk)
	w.AddStep(StepSpec{Name: "download", Run: func(ctx *Ctx) {
		ctx.Record("pods", 14)
		ctx.Record("gpus", 0)
		ctx.Record("data_bytes", 246e9)
		ctx.After(37*time.Minute, func() { ctx.Done(nil) })
	}})
	w.AddStep(StepSpec{Name: "train", DependsOn: []string{"download"}, Run: func(ctx *Ctx) {
		ctx.Record("pods", 1)
		ctx.Record("gpus", 1)
		ctx.After(306*time.Minute, func() { ctx.Done(nil) })
	}})
	w.Run(nil)
	clk.Run()
	r := w.Report()
	if len(r.Steps) != 2 {
		t.Fatalf("report has %d steps", len(r.Steps))
	}
	if r.Steps[0].Duration != 37*time.Minute || r.Steps[1].Duration != 306*time.Minute {
		t.Fatalf("durations = %v, %v", r.Steps[0].Duration, r.Steps[1].Duration)
	}
	if r.Steps[0].Measurements["pods"] != 14 {
		t.Fatalf("download pods = %v", r.Steps[0].Measurements["pods"])
	}
	if r.Total != 343*time.Minute {
		t.Fatalf("total = %v", r.Total)
	}
}

func TestRenderTableShape(t *testing.T) {
	clk := sim.NewClock()
	w := New("tbl", clk)
	w.AddStep(StepSpec{Name: "s1", Run: func(ctx *Ctx) {
		ctx.Record("pods", 14)
		ctx.Record("data_bytes", 246e9)
		ctx.After(time.Minute, func() { ctx.Done(nil) })
	}})
	w.AddStep(StepSpec{Name: "s2", DependsOn: []string{"s1"}, Run: func(ctx *Ctx) {
		ctx.Record("pods", 1)
		ctx.Done(nil)
	}})
	w.Run(nil)
	clk.Run()
	out := w.Report().RenderTable()
	for _, want := range []string{"s1", "s2", "pods", "246.0GB", "Total Time"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

func TestRenderPlan(t *testing.T) {
	clk := sim.NewClock()
	w := New("connect", clk)
	w.AddStep(timedStep("download", time.Second))
	w.AddStep(timedStep("train", time.Second, "download"))
	out := w.RenderPlan()
	if !strings.Contains(out, "1. download") || !strings.Contains(out, "2. train <- download") {
		t.Fatalf("plan:\n%s", out)
	}
}

func TestImmediateStepCompletion(t *testing.T) {
	// A step that calls Done synchronously inside Run must not deadlock the
	// engine or fire onComplete twice.
	clk := sim.NewClock()
	w := New("sync", clk)
	w.AddStep(StepSpec{Name: "instant", Run: func(ctx *Ctx) { ctx.Done(nil) }})
	calls := 0
	w.Run(func(bool) { calls++ })
	clk.Run()
	if calls != 1 {
		t.Fatalf("onComplete fired %d times", calls)
	}
	if !w.Done() {
		t.Fatal("workflow not done")
	}
}

// stepNamed returns the step record of a declared step.
func (w *Workflow) stepNamed(name string) *step {
	for i := range w.steps {
		if w.steps[i].name == name {
			return &w.steps[i]
		}
	}
	return nil
}

// StepError returns the failure the report carries for the named step,
// or nil.
func (w *Workflow) StepError(name string) error {
	for _, s := range w.Report().Steps {
		if s.Name == name {
			return s.Err
		}
	}
	return nil
}
