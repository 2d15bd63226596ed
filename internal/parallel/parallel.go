// Package parallel is the shared compute fan-out substrate for the repo's
// hot kernels (tensor convolutions, FFN flood-fill inference, CONNECT
// labelling, MERRA IVT integration). It provides deterministic chunked
// fan-out over a small pool of persistent worker goroutines, bounded by
// GOMAXPROCS (overridable for tests and benchmarks via SetWorkers).
//
// Design constraints, in priority order:
//
//  1. Determinism: chunk boundaries depend only on (n, worker count), never
//     on scheduling, so kernels that are bit-exact per element stay bit-exact
//     at every worker count, and kernels that reduce per-chunk partials can
//     do so in a fixed chunk order.
//  2. Zero steady-state allocation: dispatch reuses pooled join states and
//     sends plain structs on pre-created channels, so an Invoke with a
//     caller-pooled Task allocates nothing once warm. This is what lets
//     tensor.Conv3DInto report 0 allocs/op under -benchmem.
//  3. No deadlock under nesting: dispatch never blocks. If a worker lane is
//     busy (e.g. a parallel Segment shard calls a parallel convolution), the
//     chunk runs inline on the caller instead of queueing, so nested
//     parallelism degrades to sequential execution rather than deadlock.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Task is one kernel's chunk executor: Run processes the half-open index
// range [start, end). Implementations that want zero-allocation dispatch
// should be pointer receivers recycled through a sync.Pool.
type Task interface {
	Run(start, end int)
}

// workerOverride holds the SetWorkers value; 0 means "use GOMAXPROCS".
var workerOverride atomic.Int32

// Workers returns the current fan-out width: the SetWorkers override if one
// is in effect, else runtime.GOMAXPROCS(0).
func Workers() int {
	if w := workerOverride.Load(); w > 0 {
		return int(w)
	}
	return runtime.GOMAXPROCS(0)
}

// SetWorkers overrides the fan-out width (n <= 0 restores the GOMAXPROCS
// default) and returns the previous override (0 if none was set). It is
// intended for tests and benchmarks sweeping worker counts; changing it
// while kernels are in flight changes only future Invoke calls.
func SetWorkers(n int) int {
	if n < 0 {
		n = 0
	}
	return int(workerOverride.Swap(int32(n)))
}

// join is one Invoke's rendezvous with its dispatched chunks: the count of
// chunks still running, and the first panic raised on a lane.
type join struct {
	wg       sync.WaitGroup
	panicked atomic.Pointer[any]
}

// job is one dispatched chunk.
type job struct {
	t          Task
	start, end int
	join       *join
}

// run executes the chunk, on a lane or inline on the caller. A panic on a
// lane has no caller to unwind to — it would end the process — and one
// inline must not unwind Invoke while chunks it dispatched still run, so
// either is parked in the join for Invoke to re-raise once every chunk has
// ended.
func (j job) run() {
	defer func() {
		if p := recover(); p != nil {
			v := p // the heap copy is made only when there is a panic
			j.join.panicked.CompareAndSwap(nil, &v)
		}
		j.join.wg.Done()
	}()
	j.t.Run(j.start, j.end)
}

var (
	laneMu sync.Mutex
	lanes  []chan job // persistent workers; grown on demand, never shrunk
)

// ensureLanes returns a snapshot of at least k worker lanes.
func ensureLanes(k int) []chan job {
	laneMu.Lock()
	for len(lanes) < k {
		// Unbuffered: a send succeeds only when the worker is idle and
		// receiving. Buffering would let a nested Invoke park a job on its
		// own (busy) lane and then deadlock waiting for it.
		c := make(chan job)
		lanes = append(lanes, c)
		go func() {
			for j := range c {
				j.run()
			}
		}()
	}
	ls := lanes
	laneMu.Unlock()
	return ls
}

var joinPool = sync.Pool{New: func() any { return new(join) }}

// Invoke fans t out over [0, n) in at most Workers() contiguous chunks.
// Chunk 0 always runs on the calling goroutine, and a panic in any chunk is
// re-raised there once every chunk has ended: Invoke neither returns nor
// unwinds while a chunk of its own still runs.
func Invoke(n int, t Task) { InvokeGrain(n, 1, t) }

// InvokeGrain is Invoke with a minimum chunk size: no chunk is smaller than
// grain indices, so tiny problems stay serial and dispatch overhead is
// amortized. Chunk boundaries are chunk c = [c*n/w, (c+1)*n/w) for the
// deterministic w = min(Workers(), ceil(n/grain)).
func InvokeGrain(n, grain int, t Task) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	w := Workers()
	if mc := (n + grain - 1) / grain; w > mc {
		w = mc
	}
	if w <= 1 {
		t.Run(0, n)
		return
	}
	ls := ensureLanes(w - 1)
	jn := joinPool.Get().(*join)
	for c := 1; c < w; c++ {
		s, e := Chunk(n, w, c)
		jn.wg.Add(1)
		j := job{t, s, e, jn}
		select {
		case ls[c-1] <- j:
		default:
			// Lane busy (concurrent or nested Invoke): run inline rather
			// than block, which keeps nested fan-out deadlock-free.
			j.run()
		}
	}
	jn.wg.Add(1)
	job{t, 0, n / w, jn}.run()
	jn.wg.Wait()
	p := jn.panicked.Swap(nil)
	joinPool.Put(jn)
	if p != nil {
		panic(*p)
	}
}

// funcTask adapts a closure to Task for the convenience wrappers. The
// interface conversion allocates, so hot allocation-free kernels implement
// Task directly instead of using For.
type funcTask struct {
	fn func(start, end int)
}

func (f *funcTask) Run(s, e int) { f.fn(s, e) }

// For runs fn over [0, n) in at most Workers() deterministic contiguous
// chunks (fn receives [start, end) and must be safe to call concurrently).
func For(n int, fn func(start, end int)) {
	Invoke(n, &funcTask{fn})
}

// Chunks returns how many chunks Invoke splits [0, n) into: at most
// Workers(), each non-empty.
func Chunks(n int) int {
	if n <= 0 {
		return 0
	}
	return min(Workers(), n)
}

// Chunk returns chunk c of the w deterministic contiguous chunks of [0, n).
// Kernels that reduce per-chunk partials in a fixed chunk order compute
// their bounds with it, so the split is arithmetic, not a table.
func Chunk(n, w, c int) (start, end int) { return c * n / w, (c + 1) * n / w }
