package service

import (
	"strconv"
	"testing"
)

// TestEvictFIFO: the eviction queue pops ids in the order they were pushed,
// interleaved or not; a popped slot is cleared, so the queue keeps no
// evicted id alive; and compaction keeps that order while holding the
// backing array to the ids still queued.
func TestEvictFIFO(t *testing.T) {
	// Each op pushes the next n ids (n > 0) or pops -n times (n < 0).
	cases := []struct {
		name string
		ops  []int
	}{
		{"empty", []int{-1}},
		{"push then pop", []int{3, -3, -1}},
		{"interleaved", []int{1, 1, -1, 1, -2, -1}},
		{"past compaction", []int{200, -150, 10, -60, -1}},
		{"repeated compaction", []int{65, -65, 130, -66, 1, -65, 70, -70, -1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var f evictFIFO
			next, due := 0, 0 // the next id pushed, the next id due out
			for _, n := range c.ops {
				for ; n > 0; n-- {
					f.push(strconv.Itoa(next))
					next++
				}
				for ; n < 0; n++ {
					id, ok := f.pop()
					if due == next {
						if ok {
							t.Fatalf("pop on an empty queue = %q", id)
						}
						continue
					}
					if !ok || id != strconv.Itoa(due) {
						t.Fatalf("pop = %q,%v; want %d", id, ok, due)
					}
					due++
				}
				for i, id := range f.buf[:f.head] {
					if id != "" {
						t.Fatalf("popped slot %d still holds %q", i, id)
					}
				}
				if queued := len(f.buf) - f.head; queued != next-due {
					t.Fatalf("queue holds %d ids, want %d", queued, next-due)
				}
				if f.head > 64 && f.head > len(f.buf)/2 {
					t.Fatalf("%d popped slots ahead of %d queued ids were not compacted away",
						f.head, len(f.buf)-f.head)
				}
			}
		})
	}
}
