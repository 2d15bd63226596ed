// Package sim provides the discrete-event simulation kernel that the rest of
// the chaseci ecosystem runs on. A Clock holds a priority queue of future
// events in virtual time; components schedule callbacks with After/At and the
// driver advances time with Step/Run/RunFor. Virtual time lets the simulator
// reproduce the paper's multi-hour cluster runs (37-minute downloads,
// 1133-minute inference jobs) in milliseconds of wall time while preserving
// every ordering and contention effect the paper measures.
package sim

import (
	"container/heap"
	"fmt"
	"time"
)

// Clock is a discrete-event virtual clock. The zero value is not usable; use
// NewClock. Clock is not safe for concurrent use: the simulation is
// single-threaded by design so that event ordering is deterministic.
type Clock struct {
	now    time.Duration
	events eventHeap
	seq    uint64
}

// NewClock returns a clock at virtual time zero with no pending events.
func NewClock() *Clock {
	return &Clock{}
}

// Now returns the current virtual time, measured from the simulation epoch.
func (c *Clock) Now() time.Duration { return c.now }

// Timer is a handle to a scheduled event. Stop cancels it if it has not fired.
type Timer struct {
	ev *event
}

// Stop cancels the timer. It reports whether the event had not yet fired.
func (t *Timer) Stop() bool {
	if t == nil || t.ev == nil || t.ev.stopped || t.ev.fired {
		return false
	}
	t.ev.stopped = true
	return true
}

// After schedules fn to run d from now. A negative d is treated as zero.
// Events scheduled for the same instant fire in scheduling order.
func (c *Clock) After(d time.Duration, fn func()) *Timer {
	if d < 0 {
		d = 0
	}
	return c.At(c.now+d, fn)
}

// At schedules fn to run at absolute virtual time t. Times in the past are
// clamped to now.
func (c *Clock) At(t time.Duration, fn func()) *Timer {
	if fn == nil {
		panic("sim: At called with nil function")
	}
	if t < c.now {
		t = c.now
	}
	c.seq++
	ev := &event{at: t, seq: c.seq, fn: fn}
	heap.Push(&c.events, ev)
	return &Timer{ev: ev}
}

// Step executes the next pending event, advancing virtual time to its
// deadline. It reports whether an event was executed.
func (c *Clock) Step() bool {
	for c.events.Len() > 0 {
		ev := heap.Pop(&c.events).(*event)
		if ev.stopped {
			continue
		}
		if ev.at > c.now {
			c.now = ev.at
		}
		ev.fired = true
		ev.fn()
		return true
	}
	return false
}

// Run executes events until none remain. Components that reschedule
// themselves forever (tickers) must be stopped first or Run will not return;
// prefer RunFor/RunUntil in that case.
func (c *Clock) Run() {
	for c.Step() {
	}
}

// RunUntil executes events with deadlines at or before t, then advances the
// clock to t (even if no event fired exactly at t).
func (c *Clock) RunUntil(t time.Duration) {
	for {
		ev := c.peek()
		if ev == nil || ev.at > t {
			break
		}
		c.Step()
	}
	if t > c.now {
		c.now = t
	}
}

// RunFor is RunUntil(Now()+d).
func (c *Clock) RunFor(d time.Duration) { c.RunUntil(c.now + d) }

// RunWhile steps the clock while cond returns true and events remain. It
// reports whether cond is false on return (i.e. the condition was met rather
// than the event queue draining).
func (c *Clock) RunWhile(cond func() bool) bool {
	for cond() {
		if !c.Step() {
			return !cond()
		}
	}
	return true
}

func (c *Clock) peek() *event {
	for c.events.Len() > 0 {
		ev := c.events[0]
		if !ev.stopped {
			return ev
		}
		heap.Pop(&c.events)
	}
	return nil
}

// Ticker fires fn every period until stopped. The first firing is one period
// from the moment of creation.
type Ticker struct {
	clock   *Clock
	period  time.Duration
	fn      func()
	timer   *Timer
	stopped bool
}

// Every creates and starts a Ticker. period must be positive.
func (c *Clock) Every(period time.Duration, fn func()) *Ticker {
	if period <= 0 {
		panic(fmt.Sprintf("sim: Every called with non-positive period %v", period))
	}
	t := &Ticker{clock: c, period: period, fn: fn}
	t.schedule()
	return t
}

func (t *Ticker) schedule() {
	t.timer = t.clock.After(t.period, func() {
		if t.stopped {
			return
		}
		t.fn()
		if !t.stopped {
			t.schedule()
		}
	})
}

// Stop cancels future firings.
func (t *Ticker) Stop() {
	t.stopped = true
	if t.timer != nil {
		t.timer.Stop()
	}
}

type event struct {
	at      time.Duration
	seq     uint64
	fn      func()
	stopped bool
	fired   bool
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}
