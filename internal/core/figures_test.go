package core

import (
	"strings"
	"testing"

	"chaseci/internal/workflow"
)

// completedRun caches one reduced-scale run for the figure-rendering tests.
func completedRun(t *testing.T) *ConnectRun {
	t.Helper()
	eco := Nautilus()
	run, err := eco.NewConnectWorkflow(scaledConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run.Execute(); err != nil {
		t.Fatal(err)
	}
	return run
}

func TestFig3Rendering(t *testing.T) {
	run := completedRun(t)
	out := run.Fig3(40)
	if !strings.Contains(out, "Fig 3") {
		t.Fatalf("missing title:\n%s", out)
	}
	// One sparkline row per worker.
	if got := strings.Count(out, "download-"); got != 10 {
		t.Fatalf("worker rows = %d, want 10:\n%s", got, out)
	}
	if !strings.Contains(out, "total run time") {
		t.Fatal("missing totals line")
	}
}

func TestFig4Rendering(t *testing.T) {
	run := completedRun(t)
	out := run.Fig4(40, 6)
	for _, want := range []string{"Fig 4", "peak", "mean", "#"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
}

func TestFig5Rendering(t *testing.T) {
	run := completedRun(t)
	out := run.Fig5(40)
	for _, want := range []string{"Fig 5", "prep 56m0s", "training 4h10m0s", "p", "T"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
}

func TestFig6Rendering(t *testing.T) {
	run := completedRun(t)
	out := run.Fig6(40, 5)
	for _, want := range []string{"Fig 6", "CPUs in use", "memory in use", "GPUs in use"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
}

func TestTable1Rendering(t *testing.T) {
	run := completedRun(t)
	out := run.Table1()
	for _, want := range []string{"Table I", "1-download", "2-train", "3-inference", "4-visualize", "pods"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
}

func TestStepByNameUnknownStep(t *testing.T) {
	run := completedRun(t)
	if s := stepByName(run.Workflow.Report(), "no-such-step"); s.Duration != 0 || s.Status != workflow.StatusPending {
		t.Fatalf("unknown step = %+v, want a zero report", s)
	}
}
