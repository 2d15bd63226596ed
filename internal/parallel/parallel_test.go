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

func TestRangesMatchInvokeChunking(t *testing.T) {
	prev := SetWorkers(4)
	defer SetWorkers(prev)
	for _, n := range []int{1, 3, 4, 5, 17, 100} {
		rs := Ranges(n)
		if len(rs) == 0 || rs[0][0] != 0 || rs[len(rs)-1][1] != n {
			t.Fatalf("n=%d: bad range cover %v", n, rs)
		}
		for i := 1; i < len(rs); i++ {
			if rs[i][0] != rs[i-1][1] {
				t.Fatalf("n=%d: ranges not contiguous: %v", n, rs)
			}
		}
		if len(rs) > 4 {
			t.Fatalf("n=%d: %d ranges exceeds worker count", n, len(rs))
		}
	}
}

func TestForGrainKeepsSmallWorkSerial(t *testing.T) {
	prev := SetWorkers(8)
	defer SetWorkers(prev)
	var chunks atomic.Int32
	ForGrain(10, 10, func(s, e int) { chunks.Add(1) })
	if chunks.Load() != 1 {
		t.Fatalf("grain 10 over n=10 should run as 1 chunk, got %d", chunks.Load())
	}
	chunks.Store(0)
	ForGrain(40, 10, func(s, e int) { chunks.Add(1) })
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

func TestSetWorkersRestore(t *testing.T) {
	prev := SetWorkers(3)
	if got := Workers(); got != 3 {
		t.Fatalf("Workers() = %d after SetWorkers(3)", got)
	}
	if back := SetWorkers(prev); back != 3 {
		t.Fatalf("SetWorkers returned %d, want 3", back)
	}
}
