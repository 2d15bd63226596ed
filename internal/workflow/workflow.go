// Package workflow is the paper's contribution 5: a step-by-step workflow
// engine with built-in measurement (the PPoDS — Process for the Practice of
// Data Science — methodology). A Workflow is a DAG of named steps; each step
// runs asynchronously in virtual time, records arbitrary named measurements
// (pods, CPUs, GPUs, bytes moved), and the engine captures per-step wall
// time. The final Report reproduces the structure of the paper's Table I;
// the Plan rendering reproduces Figure 2's step diagram.
package workflow

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"chaseci/internal/sim"
)

// Status is a step's lifecycle state.
type Status int

// Step states.
const (
	StatusPending Status = iota
	StatusRunning
	StatusSucceeded
	StatusFailed
	StatusSkipped // a dependency failed
)

func (s Status) String() string {
	switch s {
	case StatusPending:
		return "Pending"
	case StatusRunning:
		return "Running"
	case StatusSucceeded:
		return "Succeeded"
	case StatusFailed:
		return "Failed"
	case StatusSkipped:
		return "Skipped"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Errors returned by workflow construction and execution.
var (
	ErrDuplicateStep = errors.New("workflow: duplicate step name")
	ErrUnknownDep    = errors.New("workflow: dependency on unknown step")
	ErrCycle         = errors.New("workflow: dependency cycle")
	ErrAlreadyRun    = errors.New("workflow: already run")
	// ErrStalled means the clock's event queue drained before every step
	// finished — some step never arranged for Done to be called.
	ErrStalled = errors.New("workflow: event queue drained before completion")
)

// Ctx is a running step's handle for measurement and completion.
type Ctx struct {
	wf   *Workflow
	step *step
	done bool
}

// After schedules fn in virtual time.
func (c *Ctx) After(d time.Duration, fn func()) { c.wf.clock.After(d, fn) }

// Record stores a named measurement on the step (e.g. "pods", "gpus",
// "bytes"). Repeated records of the same key overwrite.
func (c *Ctx) Record(key string, value float64) {
	c.step.measurements[key] = value
}

// Done completes the step; a non-nil err fails it and skips dependents.
// Calling Done twice is a bug in the step implementation and panics.
func (c *Ctx) Done(err error) {
	if c.done {
		panic(fmt.Sprintf("workflow: step %q completed twice", c.step.name))
	}
	c.done = true
	c.wf.finishStep(c.step, err)
}

// StepSpec declares one step of a workflow.
type StepSpec struct {
	Name      string
	DependsOn []string
	// Run starts the step's (possibly long) virtual-time work; it must
	// arrange for ctx.Done to be called eventually.
	Run func(ctx *Ctx)
}

type step struct {
	name         string
	deps         []string
	run          func(*Ctx)
	status       Status
	started      time.Duration
	ended        time.Duration
	err          error
	measurements map[string]float64
}

// Workflow is a measured DAG of steps bound to a virtual clock.
type Workflow struct {
	Name string

	clock      *sim.Clock
	steps      map[string]*step
	order      []string
	started    bool
	finished   bool
	failed     bool
	onComplete func(ok bool)
}

// New creates an empty workflow.
func New(name string, clock *sim.Clock) *Workflow {
	return &Workflow{Name: name, clock: clock, steps: make(map[string]*step)}
}

// AddStep registers a step; dependencies may be declared before the steps
// they name, and are validated at Run.
func (w *Workflow) AddStep(spec StepSpec) error {
	if spec.Name == "" || spec.Run == nil {
		return errors.New("workflow: step needs a name and a Run func")
	}
	if _, dup := w.steps[spec.Name]; dup {
		return fmt.Errorf("%w: %s", ErrDuplicateStep, spec.Name)
	}
	w.steps[spec.Name] = &step{
		name: spec.Name, deps: spec.DependsOn, run: spec.Run,
		measurements: make(map[string]float64),
	}
	w.order = append(w.order, spec.Name)
	return nil
}

// validate checks dependency references and acyclicity (Kahn's algorithm).
func (w *Workflow) validate() error {
	indeg := make(map[string]int)
	for _, s := range w.steps {
		for _, d := range s.deps {
			if _, ok := w.steps[d]; !ok {
				return fmt.Errorf("%w: %s -> %s", ErrUnknownDep, s.name, d)
			}
		}
		indeg[s.name] = len(s.deps)
	}
	var queue []string
	for n, d := range indeg {
		if d == 0 {
			queue = append(queue, n)
		}
	}
	seen := 0
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		seen++
		for _, s := range w.steps {
			for _, d := range s.deps {
				if d == cur {
					indeg[s.name]--
					if indeg[s.name] == 0 {
						queue = append(queue, s.name)
					}
				}
			}
		}
	}
	if seen != len(w.steps) {
		return ErrCycle
	}
	return nil
}

// Run validates the DAG and starts all dependency-free steps. onComplete
// (may be nil) fires when every step reaches a terminal state; ok is true
// when all succeeded. Drive the clock to make progress.
func (w *Workflow) Run(onComplete func(ok bool)) error {
	if w.started {
		return ErrAlreadyRun
	}
	if err := w.validate(); err != nil {
		return err
	}
	w.started = true
	w.onComplete = onComplete
	w.startReady()
	w.maybeFinish()
	return nil
}

// startReady launches every pending step whose dependencies all succeeded.
func (w *Workflow) startReady() {
	for _, name := range w.order {
		s := w.steps[name]
		if s.status != StatusPending {
			continue
		}
		ready := true
		skip := false
		for _, d := range s.deps {
			switch w.steps[d].status {
			case StatusSucceeded:
			case StatusFailed, StatusSkipped:
				skip = true
			default:
				ready = false
			}
		}
		if skip {
			s.status = StatusSkipped
			continue
		}
		if !ready {
			continue
		}
		s.status = StatusRunning
		s.started = w.clock.Now()
		ctx := &Ctx{wf: w, step: s}
		s.run(ctx)
	}
}

func (w *Workflow) finishStep(s *step, err error) {
	s.ended = w.clock.Now()
	if err != nil {
		s.status = StatusFailed
		s.err = err
		w.failed = true
	} else {
		s.status = StatusSucceeded
	}
	w.startReady()
	w.maybeFinish()
}

func (w *Workflow) maybeFinish() {
	if w.finished {
		return
	}
	for _, s := range w.steps {
		if s.status == StatusPending || s.status == StatusRunning {
			return
		}
	}
	w.finished = true
	if w.onComplete != nil {
		w.onComplete(!w.failed)
	}
}

// ExecuteCtx is the context-aware way to run a workflow to completion: it
// validates and starts the DAG, then drives the virtual clock event by
// event, checking ctx between events. A cancelled context stops the run
// promptly and returns the report accumulated so far together with
// ctx.Err(); a drained event queue with unfinished steps returns ErrStalled
// with the partial report. Step failures are not an execution error — the
// returned report carries them and Failed() reports true.
//
// The clock must not be driven concurrently by anything else; events
// belonging to other components sharing the clock are executed as they
// come due, exactly as an external driver loop would.
func (w *Workflow) ExecuteCtx(ctx context.Context) (Report, error) {
	if err := w.Run(nil); err != nil {
		return Report{}, err
	}
	for !w.finished {
		if err := ctx.Err(); err != nil {
			return w.Report(), err
		}
		if !w.clock.Step() {
			return w.Report(), ErrStalled
		}
	}
	return w.Report(), nil
}

// Done reports whether every step reached a terminal state.
func (w *Workflow) Done() bool { return w.finished }

// Failed reports whether any step failed.
func (w *Workflow) Failed() bool { return w.failed }

// StepError returns the failure of a step, or nil.
func (w *Workflow) StepError(name string) error {
	if s, ok := w.steps[name]; ok {
		return s.err
	}
	return nil
}

// --- Reporting (Table I / Fig 2 shapes) ------------------------------------

// StepReport is the measured record of one step.
type StepReport struct {
	Name         string
	Status       Status
	Duration     time.Duration
	Measurements map[string]float64
}

// Report summarizes a workflow run.
type Report struct {
	Workflow string
	Steps    []StepReport
	Total    time.Duration
}

// Report collects per-step durations and measurements in declaration order.
func (w *Workflow) Report() Report {
	r := Report{Workflow: w.Name}
	for _, name := range w.order {
		s := w.steps[name]
		sr := StepReport{
			Name:         s.name,
			Status:       s.status,
			Measurements: make(map[string]float64, len(s.measurements)),
		}
		if s.status == StatusSucceeded || s.status == StatusFailed {
			sr.Duration = s.ended - s.started
		}
		for k, v := range s.measurements {
			sr.Measurements[k] = v
		}
		r.Steps = append(r.Steps, sr)
		r.Total += sr.Duration
	}
	return r
}

// RenderTable renders the report as a resource-summary table with one column
// per step and one row per measurement key — the layout of the paper's
// Table I. Keys are the union across steps, sorted.
func (r Report) RenderTable() string {
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
				fmt.Fprintf(&b, "%16s", formatMeasure(k, v))
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

func formatMeasure(key string, v float64) string {
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

// RenderPlan renders the step DAG as an indented list with dependency
// arrows, the textual equivalent of the paper's Figure 2.
func (w *Workflow) RenderPlan() string {
	var b strings.Builder
	fmt.Fprintf(&b, "workflow %q\n", w.Name)
	for i, name := range w.order {
		s := w.steps[name]
		arrow := ""
		if len(s.deps) > 0 {
			arrow = " <- " + strings.Join(s.deps, ", ")
		}
		fmt.Fprintf(&b, "  %d. %s%s\n", i+1, name, arrow)
	}
	return b.String()
}
