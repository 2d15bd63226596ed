package parallel

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		prev := SetWorkers(workers)
		for _, n := range []int{0, 1, 2, 7, 64, 1000} {
			hits := make([]int32, n)
			For(n, func(s, e int) {
				for i := s; i < e; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d hit %d times", workers, n, i, h)
				}
			}
		}
		SetWorkers(prev)
	}
}

// TestChunkMatchesInvokeChunking: Chunks(n) and Chunk are the split Invoke
// runs, so a kernel that keeps per-chunk state (connect's label slabs) can
// compute chunk c's bounds instead of keeping a table of them.
func TestChunkMatchesInvokeChunking(t *testing.T) {
	prev := SetWorkers(4)
	defer SetWorkers(prev)
	for _, n := range []int{1, 3, 4, 5, 17, 100} {
		w := Chunks(n)
		var mu sync.Mutex
		got := map[[2]int]bool{}
		For(n, func(s, e int) {
			mu.Lock()
			got[[2]int{s, e}] = true
			mu.Unlock()
		})
		if len(got) != w || w > 4 {
			t.Fatalf("n=%d: Invoke ran %d chunks, Chunks says %d (at most 4)", n, len(got), w)
		}
		end := 0
		for c := 0; c < w; c++ {
			s, e := Chunk(n, w, c)
			if s != end || e <= s || !got[[2]int{s, e}] {
				t.Fatalf("n=%d: chunk %d is [%d, %d), after %d; Invoke ran %v", n, c, s, e, end, got)
			}
			end = e
		}
		if end != n {
			t.Fatalf("n=%d: chunks cover [0, %d)", n, end)
		}
	}
}

func TestInvokeGrainKeepsSmallWorkSerial(t *testing.T) {
	prev := SetWorkers(8)
	defer SetWorkers(prev)
	var chunks atomic.Int32
	count := &funcTask{func(s, e int) { chunks.Add(1) }}
	InvokeGrain(10, 10, count)
	if chunks.Load() != 1 {
		t.Fatalf("grain 10 over n=10 should run as 1 chunk, got %d", chunks.Load())
	}
	chunks.Store(0)
	InvokeGrain(40, 10, count)
	if c := chunks.Load(); c < 1 || c > 4 {
		t.Fatalf("grain 10 over n=40 should use at most 4 chunks, got %d", c)
	}
}

// TestNestedInvokeDoesNotDeadlock exercises fan-out from inside a worker
// chunk: the inner Invoke must complete (inline or dispatched), never block.
func TestNestedInvokeDoesNotDeadlock(t *testing.T) {
	prev := SetWorkers(4)
	defer SetWorkers(prev)
	var total atomic.Int64
	For(16, func(s, e int) {
		for i := s; i < e; i++ {
			For(100, func(is, ie int) {
				total.Add(int64(ie - is))
			})
		}
	})
	if total.Load() != 1600 {
		t.Fatalf("nested fan-out covered %d of 1600 indices", total.Load())
	}
}

func TestConcurrentInvokes(t *testing.T) {
	prev := SetWorkers(4)
	defer SetWorkers(prev)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local atomic.Int64
			For(500, func(s, e int) { local.Add(int64(e - s)) })
			if local.Load() != 500 {
				t.Errorf("concurrent invoke covered %d of 500", local.Load())
			}
		}()
	}
	wg.Wait()
}

// goroutineID is the id in the current goroutine's stack header.
func goroutineID() string {
	var b [64]byte
	return strings.Fields(string(b[:runtime.Stack(b[:], false)]))[1]
}

// TestLanePanicReraisedOnCaller: a chunk that panics on a lane goroutine
// must not end the process; Invoke re-raises the value on its caller after
// every other chunk has run, and the lanes keep serving.
func TestLanePanicReraisedOnCaller(t *testing.T) {
	prev := SetWorkers(4)
	defer SetWorkers(prev)
	caller := goroutineID()
	var ran atomic.Int32
	attempt := func() (got any) {
		defer func() { got = recover() }()
		ran.Store(0)
		For(4, func(s, e int) {
			ran.Add(1)
			if s == 3 && goroutineID() != caller {
				panic("chunk 3")
			}
		})
		return nil
	}
	// A chunk whose lane is busy (or not yet receiving) runs inline on the
	// caller; try until chunk 3 lands on a lane.
	var got any
	for got == nil {
		got = attempt()
		runtime.Gosched()
	}
	if got != "chunk 3" || ran.Load() != 4 {
		t.Fatalf("recovered %v after %d of 4 chunks, want \"chunk 3\" after all 4", got, ran.Load())
	}
	var total atomic.Int64
	For(1000, func(s, e int) { total.Add(int64(e - s)) })
	if total.Load() != 1000 {
		t.Fatalf("after a lane panic, For covered %d of 1000 indices", total.Load())
	}
}

// waitingInInvoke reports whether goroutine id is parked in Invoke's wait
// for its chunks: blocked (not running or runnable), in a WaitGroup wait
// under InvokeGrain.
func waitingInInvoke(id string) bool {
	buf := make([]byte, 1<<20)
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if !strings.HasPrefix(g, "goroutine "+id+" [") {
			continue
		}
		header, _, _ := strings.Cut(g, "\n")
		return !strings.Contains(header, "[running") && !strings.Contains(header, "[runnable") &&
			strings.Contains(g, "(*WaitGroup).Wait") && strings.Contains(g, "parallel.InvokeGrain")
	}
	return false
}

// outliveProbe is a 3-chunk task. A chunk on a lane holds until its caller
// is parked in Invoke's wait (then it returns normally) or Invoke has
// returned or unwound (then it records the violation); chunk panicAt, if it
// runs on the caller, panics.
type outliveProbe struct {
	caller    string
	panicAt   int
	ended     [3]chan struct{}
	onLane    atomic.Int32
	finished  atomic.Bool // Invoke returned or unwound
	outlasted atomic.Bool // a lane chunk saw that while still running
}

func (p *outliveProbe) Run(s, e int) {
	defer close(p.ended[s])
	if goroutineID() == p.caller {
		if s == p.panicAt {
			panic("inline chunk")
		}
		return
	}
	p.onLane.Add(1)
	for !waitingInInvoke(p.caller) {
		if p.finished.Load() {
			p.outlasted.Store(true)
			return
		}
		runtime.Gosched()
	}
}

// TestInvokeOutlivesItsChunks: no Invoke returns or unwinds while one of
// its chunks still runs on a lane — when nothing panics, when chunk 0 (always
// on the caller) panics, and when a chunk whose lane is busy runs inline and
// panics. The lane chunks wait on the caller's state, not on a clock.
func TestInvokeOutlivesItsChunks(t *testing.T) {
	defer SetWorkers(SetWorkers(3))
	for _, tc := range []struct {
		name     string
		panicAt  int
		busyLane bool
	}{
		{"no panic", -1, false},
		{"chunk 0 panics", 0, false},
		{"inline chunk panics", 2, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			caller := goroutineID()
			if tc.busyLane {
				// Chunk 2's lane (lanes[1]) runs a job of its own until the
				// probe is done, so chunk 2 runs inline; chunk 1 still
				// goes to lanes[0].
				hold := make(chan struct{})
				busy := new(join)
				busy.wg.Add(1)
				ensureLanes(2)[1] <- job{&funcTask{func(int, int) { <-hold }}, 0, 1, busy}
				defer busy.wg.Wait()
				defer close(hold)
			}
			// A lane still finishing its previous job takes no new one, and
			// its chunk runs inline: try until one lands on a lane.
			for {
				p := &outliveProbe{caller: caller, panicAt: tc.panicAt}
				for i := range p.ended {
					p.ended[i] = make(chan struct{})
				}
				got := func() (got any) {
					defer func() {
						got = recover()
						p.finished.Store(true)
					}()
					Invoke(3, p)
					return nil
				}()
				for _, c := range p.ended[1:] {
					<-c // chunks 1 and 2 always run, wherever they ran
				}
				if want := tc.panicAt >= 0; (got != nil) != want {
					t.Fatalf("recovered %v, want a panic: %v", got, want)
				}
				if p.outlasted.Load() {
					t.Fatal("Invoke returned or unwound while a chunk still ran on a lane")
				}
				if p.onLane.Load() > 0 {
					return
				}
			}
		})
	}
}

func TestSetWorkersRestore(t *testing.T) {
	prev := SetWorkers(3)
	if got := Workers(); got != 3 {
		t.Fatalf("Workers() = %d after SetWorkers(3)", got)
	}
	if back := SetWorkers(prev); back != 3 {
		t.Fatalf("SetWorkers returned %d, want 3", back)
	}
}
