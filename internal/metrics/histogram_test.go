package metrics

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

func TestHistogramQuantileAccuracy(t *testing.T) {
	// 1..10000 uniformly: quantiles are known exactly; log buckets at 30
	// per decade bound relative error by the bucket ratio (~8%).
	h := NewHistogram(1, 10000, 30)
	for i := 1; i <= 10000; i++ {
		h.Observe(float64(i))
	}
	if h.Count() != 10000 {
		t.Fatalf("Count = %d", h.Count())
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.50, 5000}, {0.95, 9500}, {0.99, 9900},
	} {
		got := h.Quantile(tc.q)
		if rel := math.Abs(got-tc.want) / tc.want; rel > 0.10 {
			t.Errorf("Quantile(%v) = %v, want ~%v (rel err %.1f%%)", tc.q, got, tc.want, rel*100)
		}
	}
	if h.Max() != 10000 {
		t.Fatalf("Max = %v", h.Max())
	}
	if mean := h.Mean(); math.Abs(mean-5000.5) > 1 {
		t.Fatalf("Mean = %v, want ~5000.5", mean)
	}
}

// TestHistogramBoundsCloseTheirBuckets puts every stored bound in the
// bucket it closes and the next float up in the bucket after, so a value
// on a boundary is not read one bucket high.
func TestHistogramBoundsCloseTheirBuckets(t *testing.T) {
	for _, tc := range []struct {
		name      string
		lo, hi    float64
		perDecade int
	}{
		{"1e-6..10 at 15", 1e-6, 10, 15},
		{"1..1000 at 1", 1, 1000, 1},
		{"1..10000 at 30", 1, 10000, 30},
		{"0.001..10 at 10", 0.001, 10, 10},
		{"0.5..2 at 100", 0.5, 2, 100},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := NewHistogram(tc.lo, tc.hi, tc.perDecade)
			for i, b := range h.bounds {
				if got := h.bucketOf(b); got != i+1 {
					t.Errorf("bound %d (%v) in bucket %d, want %d", i, b, got, i+1)
				}
				if got := h.bucketOf(math.Nextafter(b, math.Inf(1))); got != i+2 {
					t.Errorf("just above bound %d (%v) in bucket %d, want %d", i, b, got, i+2)
				}
			}
		})
	}
	t.Run("median on a bound", func(t *testing.T) {
		// {10, 10, 100} over decade buckets: the median is in (1, 10].
		h := NewHistogram(1, 1000, 1)
		for _, v := range []float64{10, 10, 100} {
			h.Observe(v)
		}
		if q := h.Quantile(0.5); q <= 1 || q > 10 {
			t.Fatalf("median of {10, 10, 100} = %v, want in (1, 10]", q)
		}
	})
}

// TestHistogramUnderflowAndOverflow checks the two open buckets: a value at
// or below lo reads back inside [0, lo], and one above the last bound reads
// back between that bound and the observed max.
func TestHistogramUnderflowAndOverflow(t *testing.T) {
	h := NewHistogram(1, 100, 1)
	if got := h.bucketOf(1); got != 0 {
		t.Fatalf("lo itself in bucket %d, want the underflow bucket 0", got)
	}
	if got := h.bucketOf(math.Nextafter(1, 2)); got != 1 {
		t.Fatalf("just above lo in bucket %d, want 1", got)
	}
	last := h.bounds[len(h.bounds)-1]
	if got, want := h.bucketOf(last*2), len(h.bounds)+1; got != want {
		t.Fatalf("2x the last bound in bucket %d, want the overflow bucket %d", got, want)
	}

	under := NewHistogram(1, 100, 1)
	under.Observe(0.25)
	under.Observe(0.5)
	if q := under.Quantile(0.5); q < 0 || q > 1 {
		t.Fatalf("median of underflow values = %v, want in [0, 1]", q)
	}
	over := NewHistogram(1, 100, 1)
	over.Observe(500)
	over.Observe(900)
	if q := over.Quantile(0.5); q < 100 || q > 900 {
		t.Fatalf("median of overflow values = %v, want in [100, 900]", q)
	}
	if q := over.Quantile(1); q != 900 {
		t.Fatalf("q1 of overflow values = %v, want the max 900", q)
	}
}

// TestHistogramEmptyReadsZero: every read of a histogram that saw nothing
// is 0.
func TestHistogramEmptyReadsZero(t *testing.T) {
	h := NewHistogram(1e-6, 10, 15)
	if h.Count() != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Fatalf("empty Count/Mean/Max = %d/%v/%v, want 0/0/0", h.Count(), h.Mean(), h.Max())
	}
	for _, q := range []float64{0, 0.5, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Fatalf("empty Quantile(%v) = %v, want 0", q, got)
		}
	}
}

// TestHistogramQuantileClampsQ: a q outside [0, 1] reads as the nearer end.
func TestHistogramQuantileClampsQ(t *testing.T) {
	h := NewHistogram(1, 1000, 10)
	for _, v := range []float64{3, 30, 300} {
		h.Observe(v)
	}
	if lo, q0 := h.Quantile(-3), h.Quantile(0); lo != q0 {
		t.Fatalf("Quantile(-3) = %v, Quantile(0) = %v", lo, q0)
	}
	if hi, q1 := h.Quantile(7), h.Quantile(1); hi != q1 || q1 != 300 {
		t.Fatalf("Quantile(7) = %v, Quantile(1) = %v, want both 300", hi, q1)
	}
}

// TestHistogramQuantileMonotone: over a random sample the estimate never
// falls as q rises, and never exceeds the observed max.
func TestHistogramQuantileMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	h := NewHistogram(1e-3, 1e3, 15)
	for i := 0; i < 2000; i++ {
		h.Observe(math.Exp(rng.NormFloat64() * 3))
	}
	prev := math.Inf(-1)
	for i := 0; i <= 100; i++ {
		q := h.Quantile(float64(i) / 100)
		if q < prev {
			t.Fatalf("Quantile(%.2f) = %v < Quantile(%.2f) = %v", float64(i)/100, q, float64(i-1)/100, prev)
		}
		if q > h.Max() {
			t.Fatalf("Quantile(%.2f) = %v above the max %v", float64(i)/100, q, h.Max())
		}
		prev = q
	}
}

// TestNewHistogramClampsArguments pins each clamp NewHistogram applies to
// rough arguments, and that the bounds still reach hi.
func TestNewHistogramClampsArguments(t *testing.T) {
	for _, tc := range []struct {
		name          string
		lo, hi        float64
		perDecade     int
		wantLo        float64
		wantHi        float64
		wantPerDecade int
	}{
		{"lo<=0", -1, 10, 5, 1e-6, 10, 5},
		{"hi<=lo", 2, 1, 5, 2, 2000, 5},
		{"perDecade<1", 1, 100, 0, 1, 100, 10},
		{"all rough", 0, -5, -3, 1e-6, 1e-3, 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := NewHistogram(tc.lo, tc.hi, tc.perDecade)
			if h.lo != tc.wantLo {
				t.Fatalf("lo = %v, want %v", h.lo, tc.wantLo)
			}
			if want := math.Pow(10, 1/float64(tc.wantPerDecade)); h.ratio != want {
				t.Fatalf("ratio = %v, want %v (%d per decade)", h.ratio, want, tc.wantPerDecade)
			}
			last := h.bounds[len(h.bounds)-1]
			if last < tc.wantHi || (len(h.bounds) > 1 && h.bounds[len(h.bounds)-2] >= tc.wantHi) {
				t.Fatalf("bounds end at %v (%d bounds), want the first bound >= %v", last, len(h.bounds), tc.wantHi)
			}
			if len(h.counts) != len(h.bounds)+2 {
				t.Fatalf("%d counts for %d bounds, want bounds+2", len(h.counts), len(h.bounds))
			}
		})
	}
}

func TestHistogramEdges(t *testing.T) {
	h := NewHistogram(0.001, 10, 10)
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile != 0")
	}
	h.Observe(1e-9) // underflow
	h.Observe(1e9)  // overflow
	if q := h.Quantile(0); q < 0 {
		t.Fatalf("q0 = %v", q)
	}
	if q := h.Quantile(1); q != 1e9 {
		t.Fatalf("q1 = %v, want clamped to observed max 1e9", q)
	}
	// Out-of-range q values clamp instead of panicking.
	_ = h.Quantile(-3)
	_ = h.Quantile(7)
	// Degenerate constructor args are clamped, not fatal.
	bad := NewHistogram(-1, -2, 0)
	bad.Observe(0.5)
	if bad.Count() != 1 {
		t.Fatal("clamped histogram dropped an observation")
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram(1e-6, 10, 20)
	var wg sync.WaitGroup
	const gs, per = 8, 5000
	for g := 0; g < gs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(i%100+1) / 1000)
			}
		}(g)
	}
	wg.Wait()
	if h.Count() != gs*per {
		t.Fatalf("Count = %d, want %d (lost updates)", h.Count(), gs*per)
	}
	if q := h.Quantile(0.5); q < 0.02 || q > 0.09 {
		t.Fatalf("median = %v, want ~0.05", q)
	}
}
