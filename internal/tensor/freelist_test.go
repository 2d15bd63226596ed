package tensor

import (
	"math"
	"sync"
	"testing"
)

// resetFreeList empties the shared list so a test sees only its own
// buffers, and again on the way out.
func resetFreeList(t *testing.T) {
	t.Helper()
	empty := func() {
		freeList.mu.Lock()
		clear(freeList.byLen)
		freeList.bytes = 0
		freeList.mu.Unlock()
	}
	empty()
	t.Cleanup(empty)
}

func freeListBytes() int {
	freeList.mu.Lock()
	defer freeList.mu.Unlock()
	return freeList.bytes
}

func TestFreeListReusesByExactLengthLIFO(t *testing.T) {
	resetFreeList(t)
	a, b := GetFloats(64), GetFloats(64)
	a[0], b[0] = 1, 2
	PutFloats(a)
	PutFloats(b)
	if got := freeListBytes(); got != 2*64*4 {
		t.Fatalf("retained %d bytes, want %d", got, 2*64*4)
	}
	if c := GetFloats(32); len(c) != 32 || freeListBytes() != 2*64*4 {
		t.Fatal("a different length must not draw from the 64-element stock")
	}
	// Last in, first out — and handed back dirty.
	if c := GetFloats(64); &c[0] != &b[0] || c[0] != 2 {
		t.Fatal("want the most recently returned buffer, contents intact")
	}
	if c := GetFloats(64); &c[0] != &a[0] {
		t.Fatal("want the earlier buffer second")
	}
	if got := freeListBytes(); got != 0 {
		t.Fatalf("retained %d bytes after draining, want 0", got)
	}
}

func TestFreeListCapFlushesAndRefills(t *testing.T) {
	resetFreeList(t)
	const n = maxFreeBytes / 4 / 4 // four of these fill the list exactly
	for i := 0; i < 4; i++ {
		PutFloats(make([]float32, n))
	}
	if got := freeListBytes(); got != maxFreeBytes {
		t.Fatalf("retained %d bytes, want the cap %d", got, maxFreeBytes)
	}
	// One more would exceed the cap: the stale stock goes, the newcomer stays.
	small := make([]float32, 8)
	PutFloats(small)
	if got := freeListBytes(); got != 8*4 {
		t.Fatalf("retained %d bytes after overflow, want only the newcomer's %d", got, 8*4)
	}
	if c := GetFloats(8); &c[0] != &small[0] {
		t.Fatal("the buffer that triggered the flush was not retained")
	}
	// A buffer larger than the whole cap is never retained.
	PutFloats(make([]float32, maxFreeBytes/4+1))
	if got := freeListBytes(); got != 0 {
		t.Fatalf("retained %d bytes of an over-cap buffer", got)
	}
	// Distinct lengths are capped the same way.
	for n := 1; n <= maxFreeLens+1; n++ {
		PutFloats(make([]float32, n))
	}
	if got := len(freeList.byLen); got != 1 {
		t.Fatalf("list tracks %d lengths after overflowing the length cap, want 1", got)
	}
}

func TestFreeListWordsShareTheFloatStock(t *testing.T) {
	resetFreeList(t)
	f := GetFloats(16)
	PutFloats(f)
	w := GetWords(16)
	if len(w) != 16 {
		t.Fatalf("GetWords(16) has %d words", len(w))
	}
	w[3] = math.Float32bits(1.5)
	if f[3] != 1.5 {
		t.Fatal("GetWords did not reuse the float buffer's memory")
	}
	PutWords(w)
	if g := GetFloats(16); &g[0] != &f[0] {
		t.Fatal("PutWords did not return the memory to the float stock")
	}
	if w := GetWords(0); len(w) != 0 {
		t.Fatal("GetWords(0) must be empty")
	}
}

func TestPoisonReleasedFillsNaN(t *testing.T) {
	resetFreeList(t)
	PoisonReleased(true)
	defer PoisonReleased(false)
	b := []float32{1, 2, 3}
	PutFloats(b)
	for i, v := range GetFloats(3) {
		if !math.IsNaN(float64(v)) {
			t.Fatalf("element %d = %v, want NaN", i, v)
		}
	}
}

// TestFreeListConcurrent hammers the list from several goroutines; under
// -race it checks the locking, and the ownership check catches a buffer
// handed to two borrowers at once.
func TestFreeListConcurrent(t *testing.T) {
	resetFreeList(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				b := GetFloats(32 + i%3)
				for j := range b {
					b[j] = float32(g)
				}
				for j := range b {
					if b[j] != float32(g) {
						t.Errorf("buffer shared between borrowers")
						return
					}
				}
				PutFloats(b)
			}
		}(g)
	}
	wg.Wait()
}
