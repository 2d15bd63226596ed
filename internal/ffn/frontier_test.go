package ffn

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"chaseci/internal/parallel"
	"chaseci/internal/sim"
)

// frontierGraph is a synthetic flood: node v moves to children(v), and a
// move is taken by whoever claims the child first. Children depend only on
// (seed, v), so the reachable set is the same under every schedule.
type frontierGraph struct {
	n      int
	seed   uint64
	fanout int // up to this many children per node; 1 makes a chain
}

func (g frontierGraph) children(v int, out []int) []int {
	if g.fanout == 1 {
		if v+1 < g.n {
			out = append(out, v+1)
		}
		return out
	}
	rng := sim.NewRNG(g.seed ^ uint64(v)*0x9e3779b97f4a7c15)
	for j := rng.Intn(g.fanout + 1); j > 0; j-- {
		out = append(out, rng.Intn(g.n))
	}
	return out
}

// closure is the reference: the set reachable from the seeds, serially.
func (g frontierGraph) closure(seeds []int) map[int]bool {
	seen := map[int]bool{}
	queue := append([]int(nil), seeds...)
	for _, s := range seeds {
		seen[s] = true
	}
	for ; len(queue) > 0; queue = queue[1:] {
		for _, c := range g.children(queue[0], nil) {
			if !seen[c] {
				seen[c] = true
				queue = append(queue, c)
			}
		}
	}
	return seen
}

// frontierLane is the flood loop's shape over the synthetic graph: take a
// batch, expand every center in it (counting the expansion), claim the
// children, give the claimed ones back. hook runs once per batch, while the
// lane holds it.
func frontierLane(g frontierGraph, fr *frontier, claimed visitedSet, expanded []atomic.Int32, hook func()) {
	rng := sim.NewRNG(g.seed)
	var batch, fresh []fovPos
	var kids []int
	for {
		batch = fr.take(context.Background(), batch, 1+rng.Intn(DefaultFloodBatch))
		if len(batch) == 0 {
			return
		}
		if hook != nil {
			hook()
		}
		fresh = fresh[:0]
		for _, p := range batch {
			expanded[p.x].Add(1)
			kids = g.children(p.x, kids[:0])
			for _, c := range kids {
				if claimed.claimAtomic(c) {
					fresh = append(fresh, fovPos{x: c})
				}
			}
			if rng.Intn(4) == 0 {
				runtime.Gosched() // shake the interleaving
			}
		}
		fr.give(fresh)
	}
}

// runLanes runs lane(k) for k in [0, lanes) the three ways a flood's lanes
// can meet: as goroutines, through parallel.For (lane goroutines, or inline
// when they are busy), and one after another on the caller.
func runLanes(how string, lanes int, lane func(k int)) {
	switch how {
	case "goroutines":
		var wg sync.WaitGroup
		for k := 0; k < lanes; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				lane(k)
			}(k)
		}
		wg.Wait()
	case "parallel.For":
		defer parallel.SetWorkers(parallel.SetWorkers(lanes))
		parallel.For(lanes, func(k0, k1 int) {
			for k := k0; k < k1; k++ {
				lane(k)
			}
		})
	case "serial":
		for k := 0; k < lanes; k++ {
			lane(k)
		}
	}
}

// TestFrontierExpandsEveryCenterOnce: whatever the lane count, however the
// lanes are scheduled — including one after another, where no two are ever
// live together — every reachable center is expanded exactly once, nothing
// else is, and every lane returns. The chain graph keeps the frontier at one
// center, so all but one lane wait at every step and each give must wake
// them (a lost wake-up, or a missed "last holder is done", hangs the test).
func TestFrontierExpandsEveryCenterOnce(t *testing.T) {
	graphs := map[string]frontierGraph{
		"bushy": {n: 4000, seed: 7, fanout: 3},
		"chain": {n: 1500, seed: 9, fanout: 1},
	}
	for name, g := range graphs {
		seeds := []int{0, 1, 2, 3, g.n / 2, g.n - 1}
		if g.fanout == 1 {
			seeds = []int{0}
		}
		want := g.closure(seeds)
		for _, lanes := range []int{1, 2, 8} {
			for _, how := range []string{"goroutines", "parallel.For", "serial"} {
				t.Run(fmt.Sprintf("%s/lanes=%d/%s", name, lanes, how), func(t *testing.T) {
					claimed := borrowVisited(g.n)
					defer claimed.release()
					var accepted []fovPos
					for _, s := range seeds {
						claimed.claim(s)
						accepted = append(accepted, fovPos{x: s})
					}
					expanded := make([]atomic.Int32, g.n)
					fr := newFrontier(accepted, lanes, false)
					runLanes(how, lanes, func(int) { frontierLane(g, fr, claimed, expanded, nil) })
					for v := range expanded {
						if got := expanded[v].Load(); got != 1 && want[v] || got != 0 && !want[v] {
							t.Fatalf("center %d expanded %d times, reachable=%v", v, got, want[v])
						}
					}
					if len(fr.queue) != 0 || fr.holding != 0 {
						t.Fatalf("flood over with %d centers queued and %d lanes holding", len(fr.queue), fr.holding)
					}
				})
			}
		}
	}
}

// TestFrontierBudgetIsFIFO: the budgeted frontier hands out the oldest
// centers first and never more than the limit.
func TestFrontierBudgetIsFIFO(t *testing.T) {
	fr := newFrontier([]fovPos{{x: 0}, {x: 1}, {x: 2}}, 1, true)
	got := fr.take(context.Background(), nil, 2)
	if len(got) != 2 || got[0].x != 0 || got[1].x != 1 {
		t.Fatalf("first batch = %v, want centers 0, 1", got)
	}
	fr.give([]fovPos{{x: 3}})
	if got = fr.take(context.Background(), got, DefaultFloodBatch); len(got) != 2 || got[0].x != 2 || got[1].x != 3 {
		t.Fatalf("second batch = %v, want centers 2, 3", got)
	}
	fr.give(nil)
	if got = fr.take(context.Background(), got, 0); len(got) != 0 {
		t.Fatalf("a spent budget took %v", got)
	}
}

// TestFrontierLanePanicReleasesTheOthers: a lane that panics while it holds
// a batch will never give it back. The other lanes — on the chain graph they
// are all waiting for exactly that give — must return, and the panic must
// come out of reraise on the caller.
func TestFrontierLanePanicReleasesTheOthers(t *testing.T) {
	g := frontierGraph{n: 1500, seed: 3, fanout: 1}
	for _, lanes := range []int{2, 8} {
		for _, how := range []string{"goroutines", "parallel.For"} {
			t.Run(fmt.Sprintf("lanes=%d/%s", lanes, how), func(t *testing.T) {
				claimed := borrowVisited(g.n)
				defer claimed.release()
				claimed.claim(0)
				expanded := make([]atomic.Int32, g.n)
				fr := newFrontier([]fovPos{{x: 0}}, lanes, false)
				var batches atomic.Int32
				runLanes(how, lanes, func(int) {
					defer fr.recoverLane()
					frontierLane(g, fr, claimed, expanded, func() {
						if batches.Add(1) == 100 {
							panic("lane down")
						}
					})
				})
				defer func() {
					if p := recover(); p != "lane down" {
						t.Fatalf("reraise gave %v, want the lane's panic", p)
					}
					if n := batches.Load(); n != 100 {
						t.Fatalf("%d batches were taken, want none after the panic at 100", n)
					}
				}()
				fr.reraise()
			})
		}
	}
}

// TestSegmentLanePanicReraisedOnCaller drives the same through SegmentCtx:
// the progress callback is the caller's code running on a flood lane. Its
// panic must surface on the goroutine that called SegmentCtx at every lane
// count, and the next flood must be undisturbed.
func TestSegmentLanePanicReraisedOnCaller(t *testing.T) {
	net, img, seeds := batchScene(t)
	wantMask, wantStats := net.Segment(img, seeds, 0)
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			defer parallel.SetWorkers(parallel.SetWorkers(workers))
			func() {
				defer func() {
					if p := recover(); p != "progress down" {
						t.Fatalf("SegmentCtx panicked with %v, want the callback's panic", p)
					}
				}()
				net.SegmentCtx(context.Background(), img, seeds, 0, func(steps int) {
					if steps >= 2*progressEvery {
						panic("progress down")
					}
				})
				t.Fatal("SegmentCtx returned although its progress callback panicked")
			}()
			mask, stats := net.Segment(img, seeds, 0)
			if stats != wantStats {
				t.Fatalf("flood after the panic: stats %+v, want %+v", stats, wantStats)
			}
			for i := range wantMask.Data {
				if mask.Data[i] != wantMask.Data[i] {
					t.Fatalf("flood after the panic: mask voxel %d diverges", i)
				}
			}
		})
	}
}

// newFrontier starts a borrowed frontier at seeds, as Flood starts one at
// its accepted seeds.
func newFrontier(seeds []fovPos, lanes int, fifo bool) *frontier {
	f := borrowFrontier()
	f.queue = append(f.queue, seeds...)
	f.lanes, f.fifo = max(lanes, 1), fifo
	return f
}
