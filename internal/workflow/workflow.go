// Package workflow is the paper's contribution 5: a step-by-step workflow
// engine with built-in measurement (the PPoDS — Process for the Practice of
// Data Science — methodology). A Workflow is a DAG of named steps; each step
// runs asynchronously in virtual time, records arbitrary named measurements
// (pods, CPUs, GPUs, bytes moved), and the engine captures per-step wall
// time. The final Report reproduces the structure of the paper's Table I;
// the Plan rendering reproduces Figure 2's step diagram.
//
// The package owns the rule that a DAG can run: step names non-empty and
// unique, every dependency a declared step, no cycle. Run checks it with
// Kahn's algorithm over edges resolved by one sort of the names, and Check
// does for the job schema; execution runs on the same edges, so a finish
// visits only its own dependents.
//
// What one run allocates: the Workflow; its step records, one slice in
// declaration order, made once by Grow or grown by AddStep's appends; the
// edges, one slice made at Run and only when some step has a dependency;
// the sort of the names, past 32 steps; a step's measurement map, at its first Record; and each
// Report's slice of step reports, which shares the finished steps' maps.
// The ready heap lives in the step records. What the steps schedule on the
// clock is the clock's, and RenderTable's one builder is the table's.
package workflow

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
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

var statusNames = [...]string{"Pending", "Running", "Succeeded", "Failed", "Skipped"}

func (s Status) String() string {
	if s >= 0 && int(s) < len(statusNames) {
		return statusNames[s]
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Errors returned by workflow construction, Check and execution.
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

	out   []int32 // the steps that depend on this one, in declaration order
	unmet int32   // dependency edges not yet succeeded; ready at zero
	heap  int32   // the ready heap's k-th entry, when this is steps[k]
}

// Workflow is a measured DAG of steps bound to a virtual clock.
type Workflow struct {
	Name string

	clock      *sim.Clock
	steps      []step // in declaration order
	ready      int    // steps on the ready heap
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

// Grow makes room for n more steps, so a caller that knows how many it will
// add makes the step records once instead of growing them by appends.
func (w *Workflow) Grow(n int) {
	if cap(w.steps)-len(w.steps) < n {
		w.steps = append(make([]step, 0, len(w.steps)+n), w.steps...)
	}
}

// AddStep registers a step; names and dependencies, which may name steps
// declared later, are checked at Run. Steps are added before Run.
func (w *Workflow) AddStep(spec StepSpec) error {
	if spec.Run == nil {
		return errors.New("workflow: step needs a Run func")
	}
	if w.started {
		return ErrAlreadyRun
	}
	w.steps = append(w.steps, step{name: spec.Name, deps: spec.DependsOn, run: spec.Run})
	return nil
}

// Check reports whether n steps, the i-th named name(i) and depending on
// the steps named by deps(i), form a DAG that can run: every name is
// non-empty and unique, every dependency names a declared step, and no
// chain of dependencies returns to its start. It is the rule Run checks,
// for a caller that holds its steps in a form of its own.
func Check(n int, name func(int) string, deps func(int) []string) error {
	_, _, err := resolve(n, name, deps)
	return err
}

// named is a step's name and declaration index: what a name resolves to.
type named struct {
	name string
	i    int32
}

// resolve checks the DAG rule with Kahn's algorithm and returns each
// step's dependents in declaration order: step i's are out[off[i]:off[i+1]].
// Names resolve by binary search over one sort of the steps by name, which
// is on the stack for up to 32 steps; the edges and the algorithm's counts
// share one slice, made only when some step has a dependency.
func resolve(n int, name func(int) string, deps func(int) []string) (off, out []int32, err error) {
	var small [32]named
	byName, edges := small[:0], 0
	if n > len(small) {
		byName = make([]named, 0, n)
	}
	for i := range n {
		if byName = append(byName, named{name(i), int32(i)}); byName[i].name == "" {
			return nil, nil, fmt.Errorf("workflow: step %d has no name", i)
		}
		edges += len(deps(i))
	}
	slices.SortFunc(byName, func(a, b named) int { return strings.Compare(a.name, b.name) })
	for k := 1; k < n; k++ {
		if byName[k].name == byName[k-1].name {
			return nil, nil, fmt.Errorf("%w: %s", ErrDuplicateStep, byName[k].name)
		}
	}
	if edges == 0 {
		return nil, nil, nil
	}
	buf := make([]int32, 3*n+1+2*edges)
	off, buf = buf[:n+1], buf[n+1:]
	out, buf = buf[:edges], buf[edges:]
	dep, buf := buf[:edges], buf[edges:]
	unmet, queue := buf[:n], buf[n:n]
	// Resolve each edge once into dep, counting j's dependents in off[j];
	// sum the counts so off[j] ends j's run of out, then fill the runs
	// backwards, in declaration order, leaving off[j] at the run's start.
	e := 0
	for i := range n {
		for _, d := range deps(i) {
			k, ok := slices.BinarySearchFunc(byName, d, func(s named, d string) int { return strings.Compare(s.name, d) })
			if !ok {
				return nil, nil, fmt.Errorf("%w: %s -> %s", ErrUnknownDep, name(i), d)
			}
			j := byName[k].i
			dep[e] = j
			e++
			off[j]++
		}
		unmet[i] = int32(len(deps(i)))
	}
	for i := 1; i <= n; i++ {
		off[i] += off[i-1]
	}
	for i := n - 1; i >= 0; i-- {
		for range deps(i) {
			e--
			off[dep[e]]--
			out[off[dep[e]]] = int32(i)
		}
	}
	// Kahn's algorithm: a step is taken once every edge into it has been,
	// and a step never taken is on a cycle or behind one.
	for i := range n {
		if unmet[i] == 0 {
			queue = append(queue, int32(i))
		}
	}
	for k := 0; k < len(queue); k++ {
		i := queue[k]
		for _, d := range out[off[i]:off[i+1]] {
			if unmet[d]--; unmet[d] == 0 {
				queue = append(queue, d)
			}
		}
	}
	if len(queue) < n {
		return nil, nil, ErrCycle
	}
	return off, out, nil
}

// Run checks the DAG and starts all dependency-free steps. onComplete
// (may be nil) fires when every step reaches a terminal state; ok is true
// when all succeeded. Drive the clock to make progress.
func (w *Workflow) Run(onComplete func(ok bool)) error {
	if w.started {
		return ErrAlreadyRun
	}
	off, out, err := resolve(len(w.steps), func(i int) string { return w.steps[i].name },
		func(i int) []string { return w.steps[i].deps })
	if err != nil {
		return err
	}
	w.started = true
	w.remaining = len(w.steps)
	w.onComplete = onComplete
	for i := range w.steps {
		s := &w.steps[i]
		if out != nil {
			s.out = out[off[i]:off[i+1]]
		}
		if s.unmet = int32(len(s.deps)); s.unmet == 0 {
			w.push(int32(i))
		}
	}
	w.startReady()
	w.maybeFinish()
	return nil
}

// startReady starts the ready steps, lowest declaration index first. A
// finish inside a step's Run starts what it releases, and any ready step
// declared before, before this one goes on: the order a rescan of every
// step after each finish starts them in.
func (w *Workflow) startReady() {
	for w.ready > 0 {
		s := &w.steps[w.pop()]
		s.status = StatusRunning
		s.started = w.clock.Now()
		s.ctx = Ctx{wf: w, step: s}
		s.run(&s.ctx)
	}
}

// push puts step i on the ready heap, a binary min-heap of declaration
// indices kept in the steps' heap fields.
func (w *Workflow) push(i int32) {
	k := w.ready
	for w.ready++; k > 0 && w.steps[(k-1)/2].heap > i; k = (k - 1) / 2 {
		w.steps[k].heap = w.steps[(k-1)/2].heap
	}
	w.steps[k].heap = i
}

// pop takes the lowest declaration index off the ready heap.
func (w *Workflow) pop() int32 {
	top, k := w.steps[0].heap, 0
	w.ready--
	last := w.steps[w.ready].heap
	for c := 1; c < w.ready; k, c = c, 2*c+1 {
		if c+1 < w.ready && w.steps[c+1].heap < w.steps[c].heap {
			c++
		}
		if last < w.steps[c].heap {
			break
		}
		w.steps[k].heap = w.steps[c].heap
	}
	w.steps[k].heap = last
	return top
}

// finishStep ends s. A success releases each dependent whose last unmet
// dependency it was; a failure skips every pending step that depends on
// it, directly or through other steps.
func (w *Workflow) finishStep(s *step, err error) {
	s.ended = w.clock.Now()
	w.remaining--
	if err != nil {
		s.status, s.err, w.failed = StatusFailed, err, true
		w.skip(s)
	} else {
		s.status = StatusSucceeded
		for _, d := range s.out {
			if w.steps[d].unmet--; w.steps[d].unmet == 0 {
				w.push(d)
			}
		}
	}
	w.startReady()
	w.maybeFinish()
}

// skip marks the pending steps that depend on s skipped, and theirs.
func (w *Workflow) skip(s *step) {
	for _, d := range s.out {
		if t := &w.steps[d]; t.status == StatusPending {
			t.status = StatusSkipped
			w.remaining--
			w.skip(t)
		}
	}
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

// --- Reporting (Table I / Fig 2 shapes) ------------------------------------

// StepReport is the measured record of one step.
type StepReport struct {
	Name         string
	Status       Status
	Duration     time.Duration
	Measurements map[string]float64
	Err          error // why the step failed, or nil
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
		sr.Name, sr.Status, sr.Measurements, sr.Err = s.name, s.status, s.measurements, s.err
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
