package service

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"chaseci/internal/api"
)

// watch is one waiter's registration with a watchList: a one-slot channel
// the list drops a token into when its subject changes. It is level-
// triggered by construction — a waiter registers, reads the state it cares
// about, then blocks: a change that lands after the registration leaves a
// token in the slot, one that landed before it is in the state just read.
type watch struct {
	r  *Runner
	on *watchList
	ch chan struct{}
}

// watchList is the set of watches to wake when one thing changes: a job has
// one, and the runner has one for "some job was queued, left the queue or
// ended". The set is an immutable snapshot behind an atomic pointer, so
// notify — which runs inside JobContext.Progress, on kernel goroutines —
// takes no lock, allocates nothing, and costs one atomic load when nobody
// watches.
type watchList struct {
	p atomic.Pointer[[]*watch]
}

func (l *watchList) notify() {
	ws := l.p.Load()
	if ws == nil {
		return
	}
	for _, w := range *ws {
		select {
		case w.ch <- struct{}{}:
		default: // a token is already waiting; the waiter re-reads everything
		}
	}
}

// swap replaces the snapshot with one that has w added or removed.
func (l *watchList) swap(w *watch, add bool) {
	for {
		old := l.p.Load()
		var next []*watch
		if old != nil {
			for _, x := range *old {
				if x != w {
					next = append(next, x)
				}
			}
		}
		if add {
			next = append(next, w)
		}
		np := &next
		if len(next) == 0 {
			np = nil
		}
		if l.p.CompareAndSwap(old, np) {
			return
		}
	}
}

// watch registers a new watch with l. Every call is paired with one
// (deferred) close: an abandoned waiter must not stay reachable from what it
// watched, and LeakCheck counts the difference.
func (r *Runner) watch(l *watchList) *watch {
	w := &watch{r: r, on: l, ch: make(chan struct{}, 1)}
	l.swap(w, true)
	r.watches.Add(1)
	return w
}

func (w *watch) close() {
	w.on.swap(w, false)
	w.r.watches.Add(-1)
}

// wait blocks until the watched subject changes, the caller's timer (nil for
// none) fires, or ctx is done (its error is returned).
func (w *watch) wait(ctx context.Context, timer <-chan time.Time) error {
	select {
	case <-w.ch:
		return nil
	case <-timer:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Await blocks until until(status) holds for job id or the job is terminal
// (nothing can change after that), and returns the status it saw; a nil
// until waits for the terminal state. It is the one way to wait for a job:
// every transition, placement and JobContext.Progress call wakes it, and it
// re-reads the snapshot Status serves — nothing is queued per event, so a
// waiter sees the latest state, not each intermediate one. An id the index
// does not hold — never submitted, or finished and evicted — is an error.
// Close ends every job, so it wakes every waiter with a terminal status; a
// done ctx returns the last status read together with ctx.Err().
func (r *Runner) Await(ctx context.Context, id string, until func(api.JobStatus) bool) (api.JobStatus, error) {
	j := r.lookupJob(id)
	if j == nil {
		return api.JobStatus{}, fmt.Errorf("service: unknown job %q", id)
	}
	w := r.watch(&j.watchers)
	defer w.close()
	for {
		st := r.statusOf(j)
		if st.State.Terminal() || (until != nil && until(st)) {
			return st, nil
		}
		if err := w.wait(ctx, nil); err != nil {
			return st, err
		}
	}
}
