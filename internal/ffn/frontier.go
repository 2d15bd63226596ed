package ffn

import (
	"context"
	"sync"
)

// frontier is the flood's work list: the FOV centers that are claimed but
// not yet expanded. Every lane of a flood takes its batches from the one
// list and gives the centers its batch claimed back to it, so no lane runs
// dry while another still has a queue — floods that start at different
// seeds merge through the claimed set, and a private queue per lane leaves
// whichever lane's seeds were swallowed first with nothing to do.
//
// The flood is over when the list is empty and no lane holds a batch. A
// lane that finds the list empty waits only while some lane holds one, and
// a lane holding a batch is by construction running, so lanes may start at
// any time, in any order, or one after another on a single goroutine (a
// nested parallel.For runs its chunks inline): the first to run drains the
// flood and the rest find it over.
//
// A frontier outlives its flood: release puts it in a pool with its queue's
// array, so a steady stream of floods allocates neither.
type frontier struct {
	mu      sync.Mutex
	more    sync.Cond // a give, or a stop: waiting lanes look again
	queue   []fovPos  // queue[head:] is the list
	head    int       // centers a first-in-first-out take has taken
	lanes   int       // lanes sharing the list: a short queue is split between them
	holding int       // lanes expanding a batch, which may still give centers back
	fifo    bool      // take the oldest centers, not the newest (budgeted flood)
	cause   any       // the first lane panic: the flood ends at the next take
}

var frontiers = sync.Pool{New: func() any {
	f := new(frontier)
	f.more.L = &f.mu
	return f
}}

// borrowFrontier returns an empty frontier. The flood appends its accepted
// seeds to the queue and sets lanes and fifo before any lane takes.
func borrowFrontier() *frontier { return frontiers.Get().(*frontier) }

// release empties the frontier, keeping its queue's array, and returns it
// to the pool. No lane may hold it.
func (f *frontier) release() {
	f.queue, f.head, f.holding, f.cause = f.queue[:0], 0, 0, nil
	frontiers.Put(f)
}

// take fills batch with up to limit centers — fewer when the list is short,
// so that every lane gets some — and marks the caller as holding them until
// its give. It blocks while the list is empty and another lane's batch may
// still refill it. An empty result means the lane is done: the flood is
// over, ctx is cancelled, a lane panicked, or limit is spent.
func (f *frontier) take(ctx context.Context, batch []fovPos, limit int) []fovPos {
	batch = batch[:0]
	if limit <= 0 {
		return batch
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for ctx.Err() == nil && f.cause == nil {
		if n := len(f.queue) - f.head; n > 0 {
			k := min(limit, (n+f.lanes-1)/f.lanes)
			if f.fifo {
				batch = append(batch, f.queue[f.head:f.head+k]...)
				f.head += k
			} else {
				batch = append(batch, f.queue[len(f.queue)-k:]...)
				f.queue = f.queue[:len(f.queue)-k]
			}
			f.holding++
			return batch
		}
		if f.holding == 0 {
			break
		}
		f.more.Wait()
	}
	return batch
}

// give ends the hold take began, adding the centers the batch claimed. A
// full queue first moves its list down over the centers taken from its
// front, so the array grows only with the list.
func (f *frontier) give(fresh []fovPos) {
	f.mu.Lock()
	if f.head > 0 && len(f.queue)+len(fresh) > cap(f.queue) {
		n := copy(f.queue, f.queue[f.head:])
		f.queue, f.head = f.queue[:n], 0
	}
	f.queue = append(f.queue, fresh...)
	f.holding--
	f.mu.Unlock()
	f.more.Broadcast()
}

// recoverLane, deferred on a lane's goroutine, turns a panic there into the
// end of the flood: the lane will never give its batch back, so the lanes
// waiting for it are released and every later take comes back empty.
func (f *frontier) recoverLane() {
	p := recover()
	if p == nil {
		return
	}
	f.mu.Lock()
	if f.cause == nil {
		f.cause = p
	}
	f.mu.Unlock()
	f.more.Broadcast()
}

// reraise, called once every lane has returned, re-raises the first lane
// panic on the flood's caller.
func (f *frontier) reraise() {
	if f.cause != nil {
		panic(f.cause)
	}
}
