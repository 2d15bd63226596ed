package merra

import (
	"fmt"
	"sync"
	"testing"

	"chaseci/internal/parallel"
)

// TestSynthesisAllocsFlat pins the row-parallel synthesis's allocation
// budget: the per-step plan, the dispatch task and the row scratch recycle
// through pools, so a steady-state IVTVolumeCtx allocates the volume's
// header and nothing per step, and StateInto over fields already on the grid
// allocates nothing at all — at every worker count.
func TestSynthesisAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; alloc pins run in the non-race job")
	}
	g := Grid{NLon: 72, NLat: 48, NLev: 8}
	gen := NewGenerator(g, 3)
	levels := PressureLevels(g.NLev)
	st := gen.State(0)
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			prev := parallel.SetWorkers(workers)
			defer parallel.SetWorkers(prev)
			for _, steps := range []int{1, 12} {
				IVTVolume(gen, levels, 0, steps).Release() // warm the pools and the free list
				allocs := testing.AllocsPerRun(20, func() {
					IVTVolume(gen, levels, 0, steps).Release()
				})
				if allocs > 1 {
					t.Errorf("IVTVolume over %d steps: %v allocs/op, want <= 1 (the volume's header)", steps, allocs)
				}
			}
			// What an ivt job does: build a generator on a seed of its own
			// and synthesize the chain's 12 steps from it. The plan rebuilds
			// its track table in place for the new seed, so the build adds
			// nothing to the volume's header (the Generator stays on the
			// stack); it was 2 while every generator built its own table.
			seed := uint64(100)
			allocs := testing.AllocsPerRun(20, func() {
				seed++
				IVTVolume(NewGenerator(g, seed), levels, 0, 12).Release()
			})
			if allocs > 1 {
				t.Errorf("NewGenerator + IVTVolume: %v allocs/op, want <= 1 (the volume's header)", allocs)
			}
			gen.StateInto(st, 1)
			if allocs := testing.AllocsPerRun(20, func() { gen.StateInto(st, 1) }); allocs != 0 {
				t.Errorf("StateInto: %v allocs/op, want 0", allocs)
			}
		})
	}
}

// TestGeneratorConcurrentUse: thredds serves State from concurrent HTTP
// handlers, and jobs derive volumes from whatever generator they hold, so a
// Generator must be immutable and cache nothing lazily. Concurrent State and
// IVTVolumeCtx calls on one generator must each see exactly what a lone
// call on a fresh generator does; run with -race.
func TestGeneratorConcurrentUse(t *testing.T) {
	g := Grid{NLon: 24, NLat: 16, NLev: 4}
	const seed, start, steps = 5, 195, 8
	levels := PressureLevels(g.NLev)
	ref := NewGenerator(g, seed)
	wantStates := make([]string, steps)
	for s := range wantStates {
		st := ref.State(start + s)
		wantStates[s] = digestFloats(st.Q.Data, st.U.Data, st.V.Data)
	}
	wantVol := digestFloats(IVTVolume(ref, levels, start, steps).Data)

	gen := NewGenerator(g, seed)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for s, want := range wantStates {
				st := gen.State(start + s)
				if got := digestFloats(st.Q.Data, st.U.Data, st.V.Data); got != want {
					t.Errorf("concurrent State(%d) digest %s, want %s", start+s, got, want)
				}
			}
		}()
		go func() {
			defer wg.Done()
			for range 2 {
				vol := IVTVolume(gen, levels, start, steps)
				if got := digestFloats(vol.Data); got != wantVol {
					t.Errorf("concurrent IVTVolume digest %s, want %s", got, wantVol)
				}
				vol.Release()
			}
		}()
	}
	wg.Wait()
}
