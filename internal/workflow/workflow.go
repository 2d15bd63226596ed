// Package workflow is the paper's contribution 5: a step-by-step workflow
// engine with built-in measurement (the PPoDS — Process for the Practice of
// Data Science — methodology). A Workflow is a DAG of named steps; each step
// runs asynchronously in virtual time, records arbitrary named measurements
// (pods, CPUs, GPUs, bytes moved), and the engine captures per-step wall
// time. The final Report reproduces the structure of the paper's Table I;
// the Plan rendering reproduces Figure 2's step diagram.
//
// What one run allocates: the Workflow; its step records, one slice in
// declaration order, grown by AddStep's appends; the dependency indices,
// one slice resolved at Run and only when some step has a dependency; a
// step's measurement map, at its first Record; and each Report's slice of
// step reports, which shares the finished steps' maps. Names resolve by
// binary search over an order kept in the step records, so validation and
// execution make no map, queue or handle per step. What the steps schedule
// on the clock is the clock's, and RenderTable's one builder is the
// table's.
package workflow

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"

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
// "bytes"). Repeated records of the same key overwrite. A step records
// while it runs: a Record after Done is a bug in the step implementation
// and panics, since the finished step's measurements belong to its reports.
func (c *Ctx) Record(key string, value float64) {
	if c.done {
		panic(fmt.Sprintf("workflow: step %q recorded %q after Done", c.step.name, key))
	}
	if c.step.measurements == nil {
		c.step.measurements = make(map[string]float64)
	}
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
	deps         []string // as declared
	run          func(*Ctx)
	status       Status
	started      time.Duration
	ended        time.Duration
	err          error
	measurements map[string]float64 // made by the first Record
	ctx          Ctx                // the handle run receives

	// byName orders the steps by name: steps[k].byName is the index of the
	// k-th name in sorted order, so a name resolves by binary search.
	byName int32
	// dep holds the indices of deps, resolved once by validate.
	dep []int32
	// The cycle check's depth-first walk: the step's state, the step it
	// was reached from, and the next dependency to visit.
	mark         uint8
	parent, next int32
}

// Workflow is a measured DAG of steps bound to a virtual clock.
type Workflow struct {
	Name string

	clock      *sim.Clock
	steps      []step // in declaration order
	remaining  int    // steps not yet in a terminal state, once started
	started    bool
	finished   bool
	failed     bool
	onComplete func(ok bool)
}

// New creates an empty workflow.
func New(name string, clock *sim.Clock) *Workflow {
	return &Workflow{Name: name, clock: clock}
}

// find returns the index of the step named name, or -1.
func (w *Workflow) find(name string) int {
	k := w.rank(name)
	if k < len(w.steps) {
		if i := w.steps[k].byName; w.steps[i].name == name {
			return int(i)
		}
	}
	return -1
}

// rank is the number of step names that sort before name.
func (w *Workflow) rank(name string) int {
	return sort.Search(len(w.steps), func(k int) bool { return w.steps[w.steps[k].byName].name >= name })
}

// AddStep registers a step; dependencies may be declared before the steps
// they name, and are validated at Run. Steps are added before Run.
func (w *Workflow) AddStep(spec StepSpec) error {
	if spec.Name == "" || spec.Run == nil {
		return errors.New("workflow: step needs a name and a Run func")
	}
	if w.started {
		return ErrAlreadyRun
	}
	k, n := w.rank(spec.Name), len(w.steps)
	if k < n && w.steps[w.steps[k].byName].name == spec.Name {
		return fmt.Errorf("%w: %s", ErrDuplicateStep, spec.Name)
	}
	w.steps = append(w.steps, step{name: spec.Name, deps: spec.DependsOn, run: spec.Run})
	for i := n; i > k; i-- {
		w.steps[i].byName = w.steps[i-1].byName
	}
	w.steps[k].byName = int32(n)
	return nil
}

// Marks of the cycle check's walk.
const (
	unvisited uint8 = iota
	onPath
	visited
)

// validate resolves every dependency to its step's index and checks that
// the steps form no cycle, with a depth-first walk over the dependency
// edges that keeps its stack in the steps themselves.
func (w *Workflow) validate() error {
	edges := 0
	for i := range w.steps {
		edges += len(w.steps[i].deps)
	}
	idx := make([]int32, 0, edges)
	for i := range w.steps {
		s := &w.steps[i]
		s.mark, s.next = unvisited, 0
		for _, d := range s.deps {
			j := w.find(d)
			if j < 0 {
				return fmt.Errorf("%w: %s -> %s", ErrUnknownDep, s.name, d)
			}
			idx = append(idx, int32(j))
		}
		s.dep, idx = idx[:len(s.deps):len(s.deps)], idx[len(s.deps):]
	}
	for root := range w.steps {
		if w.steps[root].mark != unvisited {
			continue
		}
		w.steps[root].mark, w.steps[root].parent = onPath, -1
		for cur := int32(root); cur >= 0; {
			s := &w.steps[cur]
			if int(s.next) == len(s.dep) {
				s.mark, cur = visited, s.parent
				continue
			}
			d := s.dep[s.next]
			s.next++
			switch w.steps[d].mark {
			case onPath:
				return ErrCycle
			case unvisited:
				w.steps[d].mark, w.steps[d].parent = onPath, cur
				cur = d
			}
		}
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
	w.remaining = len(w.steps)
	w.onComplete = onComplete
	w.startReady()
	w.maybeFinish()
	return nil
}

// startReady launches every pending step whose dependencies all succeeded
// and skips every pending step a failed or skipped dependency blocks. A
// skip can block a step declared before it, so a pass that skips is
// followed by another.
func (w *Workflow) startReady() {
	for skipped := true; skipped; {
		skipped = false
		for i := range w.steps {
			s := &w.steps[i]
			if s.status != StatusPending {
				continue
			}
			ready := true
			skip := false
			for _, d := range s.dep {
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
				w.remaining--
				skipped = true
				continue
			}
			if !ready {
				continue
			}
			s.status = StatusRunning
			s.started = w.clock.Now()
			s.ctx = Ctx{wf: w, step: s}
			s.run(&s.ctx)
		}
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
	w.remaining--
	w.startReady()
	w.maybeFinish()
}

func (w *Workflow) maybeFinish() {
	if w.finished || w.remaining > 0 {
		return
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
	if i := w.find(name); i >= 0 {
		return w.steps[i].err
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

// Report collects per-step durations and measurements in declaration
// order. A finished step's measurements are handed over, not copied: they
// are the step's own map, shared by every report, and read-only. A step
// still running gets a copy, since it may record more.
func (w *Workflow) Report() Report {
	r := Report{Workflow: w.Name, Steps: make([]StepReport, len(w.steps))}
	for i := range w.steps {
		s, sr := &w.steps[i], &r.Steps[i]
		sr.Name, sr.Status, sr.Measurements = s.name, s.status, s.measurements
		switch s.status {
		case StatusSucceeded, StatusFailed:
			sr.Duration = s.ended - s.started
		case StatusRunning:
			sr.Measurements = maps.Clone(s.measurements)
		}
		r.Total += sr.Duration
	}
	return r
}

// cellWidth is the width of a table cell: a longer value widens its cell.
const cellWidth = 16

// RenderTable renders the report as a resource-summary table with one column
// per step and one row per measurement key — the layout of the paper's
// Table I. Keys are the union across steps, sorted.
func (r Report) RenderTable() string {
	n := 0
	for _, s := range r.Steps {
		n += len(s.Measurements)
	}
	keys := make([]string, 0, n)
	for _, s := range r.Steps {
		for k := range s.Measurements {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	keys = slices.Compact(keys)

	var b strings.Builder
	b.Grow((len(keys) + 2) * (cellWidth*(len(r.Steps)+1) + 1))
	writeCell(&b, "", true)
	for _, s := range r.Steps {
		writeCell(&b, s.Name, false)
	}
	b.WriteByte('\n')
	var num [32]byte
	for _, k := range keys {
		writeCell(&b, k, true)
		for _, s := range r.Steps {
			if v, ok := s.Measurements[k]; ok {
				writeCell(&b, string(appendMeasure(num[:0], k, v)), false)
			} else {
				writeCell(&b, "-", false)
			}
		}
		b.WriteByte('\n')
	}
	writeCell(&b, "Total Time", true)
	for _, s := range r.Steps {
		if s.Duration > 0 {
			writeCell(&b, s.Duration.Round(time.Minute).String(), false)
		} else {
			writeCell(&b, "NA", false)
		}
	}
	b.WriteByte('\n')
	return b.String()
}

// writeCell writes s into a cell, right-aligned (fmt's %16s) or
// left-aligned (%-16s): padded to cellWidth runes, never cut.
func writeCell(b *strings.Builder, s string, left bool) {
	if left {
		b.WriteString(s)
	}
	for pad := cellWidth - utf8.RuneCountInString(s); pad > 0; pad-- {
		b.WriteByte(' ')
	}
	if !left {
		b.WriteString(s)
	}
}

// byteUnits scale a measurement whose key names a size.
var byteUnits = [...]struct {
	scale float64
	unit  string
}{{1e12, "TB"}, {1e9, "GB"}, {1e6, "MB"}, {1e3, "KB"}}

// appendMeasure appends a measurement as the table shows it: a size with
// one decimal and its unit, a whole number as an integer, anything else
// with two decimals.
func appendMeasure(dst []byte, key string, v float64) []byte {
	if strings.Contains(key, "bytes") || strings.Contains(key, "Data") || strings.Contains(key, "Memory") {
		for _, u := range byteUnits {
			if v >= u.scale {
				return append(strconv.AppendFloat(dst, v/u.scale, 'f', 1, 64), u.unit...)
			}
		}
	}
	if v == float64(int64(v)) {
		return strconv.AppendInt(dst, int64(v), 10)
	}
	return strconv.AppendFloat(dst, v, 'f', 2, 64)
}

// RenderPlan renders the step DAG as an indented list with dependency
// arrows, the textual equivalent of the paper's Figure 2.
func (w *Workflow) RenderPlan() string {
	var b strings.Builder
	fmt.Fprintf(&b, "workflow %q\n", w.Name)
	for i := range w.steps {
		s := &w.steps[i]
		arrow := ""
		if len(s.deps) > 0 {
			arrow = " <- " + strings.Join(s.deps, ", ")
		}
		fmt.Fprintf(&b, "  %d. %s%s\n", i+1, s.name, arrow)
	}
	return b.String()
}
