package connect

import (
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentLabellingsKeepTheirOwnScratch: labellings running at once
// each take their own pooled scratch, and one released mid-stream hands its
// storage to the next without touching the others. Four goroutines label
// their own volumes over and over, each releasing its result before the
// next, and every result must be the serial reference's; run with -race.
func TestConcurrentLabellingsKeepTheirOwnScratch(t *testing.T) {
	const goroutines, rounds = 4, 20
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		v := randomMask(uint64(100+g), 5+g, 9, 11+g, 0.3)
		want := labelSerialReference(v, Conn26, 2)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				got := Label(v, Conn26, 2)
				if err := sameResult(got, want); err != nil {
					t.Errorf("goroutine %d round %d: %v", g, r, err)
					return
				}
				got.Release()
			}
		}()
	}
	wg.Wait()
}

// sameResult is requireSameResult as an error, for goroutines other than
// the test's own.
func sameResult(got, want *Result) error {
	if len(got.Objects) != len(want.Objects) {
		return fmt.Errorf("object count: got %d, want %d", len(got.Objects), len(want.Objects))
	}
	for i, o := range got.Objects {
		r := want.Objects[i]
		if o.ID != r.ID || o.Voxels != r.Voxels || o.Genesis != r.Genesis ||
			o.Termination != r.Termination || o.BBox != r.BBox || o.PeakArea != r.PeakArea ||
			fmt.Sprint(o.Pathway) != fmt.Sprint(r.Pathway) {
			return fmt.Errorf("object %d: got %+v, want %+v", i, o, r)
		}
	}
	for i := range want.Labels {
		if got.Labels[i] != want.Labels[i] {
			return fmt.Errorf("label voxel %d: got %d, want %d", i, got.Labels[i], want.Labels[i])
		}
	}
	return nil
}
