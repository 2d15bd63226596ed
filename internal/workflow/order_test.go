package workflow

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"chaseci/internal/sim"
)

// rescan is the engine's scheduling as it was before dependency counts:
// after every finish, a scan over every step in declaration order starts
// each pending step whose dependencies all succeeded and skips each one a
// failed or skipped dependency blocks, repeating while a pass skips. It is
// the oracle the counted engine's start order is held to.
type rescan struct {
	deps       [][]int
	status     []Status
	remaining  int
	begin      func(i int, done func(error))
	onComplete func()
}

func (o *rescan) run() {
	o.remaining = len(o.deps)
	o.startReady()
	o.maybeFinish()
}

func (o *rescan) startReady() {
	for skipped := true; skipped; {
		skipped = false
		for i, deps := range o.deps {
			if o.status[i] != StatusPending {
				continue
			}
			ready, skip := true, false
			for _, d := range deps {
				switch o.status[d] {
				case StatusSucceeded:
				case StatusFailed, StatusSkipped:
					skip = true
				default:
					ready = false
				}
			}
			if skip {
				o.status[i] = StatusSkipped
				o.remaining--
				skipped = true
				continue
			}
			if ready {
				o.status[i] = StatusRunning
				o.begin(i, func(err error) { o.finish(i, err) })
			}
		}
	}
}

func (o *rescan) finish(i int, err error) {
	o.status[i] = StatusSucceeded
	if err != nil {
		o.status[i] = StatusFailed
	}
	o.remaining--
	o.startReady()
	o.maybeFinish()
}

func (o *rescan) maybeFinish() {
	if o.remaining == 0 {
		o.remaining = -1
		o.onComplete()
	}
}

// TestStartOrderMatchesRescan runs random DAGs, declared in random order,
// whose steps finish at once or later and succeed or fail, through the
// engine and through the rescanning oracle: both must start, end and
// complete in the same order at the same virtual times, and leave every
// step in the same state. Steps that finish inside their own Run nest the
// way the oracle's recursive scans do.
func TestStartOrderMatchesRescan(t *testing.T) {
	for trial := range 400 {
		rng := sim.NewRNG(uint64(trial) + 1)
		n := 1 + rng.Intn(24)
		rank := make([]int, n) // a topological order the edges respect
		for i := range rank {
			rank[i] = i
		}
		for i := n - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			rank[i], rank[j] = rank[j], rank[i]
		}
		deps := make([][]int, n)
		mode := make([]int, n)
		for i := range n {
			for range rng.Intn(4) {
				if j := rng.Intn(n); rank[j] < rank[i] {
					deps[i] = append(deps[i], j)
					if rng.Intn(8) == 0 { // the same dependency named twice
						deps[i] = append(deps[i], j)
					}
				}
			}
			mode[i] = rng.Intn(10)
		}
		// Modes 0-3 finish inside Run, 4-9 a virtual minute or two later;
		// modes 0 and 4 fail.
		behave := func(clk *sim.Clock, log *[]string) func(i int, done func(error)) {
			return func(i int, done func(error)) {
				*log = append(*log, fmt.Sprintf("start %d @%v", i, clk.Now()))
				var err error
				if mode[i]%4 == 0 {
					err = errors.New("boom")
				}
				end := func() {
					*log = append(*log, fmt.Sprintf("end %d @%v", i, clk.Now()))
					done(err)
				}
				if mode[i] < 4 {
					end()
				} else {
					clk.After(time.Duration(1+mode[i]%2)*time.Minute, end)
				}
			}
		}

		var want []string
		oclk := sim.NewClock()
		o := &rescan{deps: deps, status: make([]Status, n), begin: behave(oclk, &want),
			onComplete: func() { want = append(want, fmt.Sprintf("complete @%v", oclk.Now())) }}
		o.run()
		oclk.Run()

		var got []string
		clk := sim.NewClock()
		begin := behave(clk, &got)
		w := New("order", clk)
		for i := range n {
			names := make([]string, len(deps[i]))
			for k, d := range deps[i] {
				names[k] = fmt.Sprint("s", d)
			}
			w.AddStep(StepSpec{Name: fmt.Sprint("s", i), DependsOn: names, Run: func(ctx *Ctx) { begin(i, ctx.Done) }})
		}
		if err := w.Run(func(bool) { got = append(got, fmt.Sprintf("complete @%v", clk.Now())) }); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		clk.Run()
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: deps %v modes %v\n got %q\nwant %q", trial, deps, mode, got, want)
		}
		for i, s := range w.Report().Steps {
			if s.Status != o.status[i] {
				t.Fatalf("trial %d: step %d is %v, want %v", trial, i, s.Status, o.status[i])
			}
		}
	}
}
