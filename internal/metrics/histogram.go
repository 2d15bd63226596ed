package metrics

import (
	"math"
	"sync"
)

// Histogram is a thread-safe log-bucketed histogram with quantile
// estimation — the latency-recording primitive the bench/ program's probes
// use. Unlike the Registry's Counter/Gauge series (single-threaded, full
// history), a Histogram takes concurrent Observe calls and keeps only bucket
// counts, so recording a million latencies costs a few hundred words.
//
// Buckets are geometric: bucketsPerDecade buckets per 10x between lo and
// hi, plus an underflow and an overflow bucket, so relative quantile error
// is bounded by the bucket ratio (~15% at 15 buckets/decade) across the
// whole range.
type Histogram struct {
	mu     sync.Mutex
	lo     float64
	ratio  float64   // upper/lower bound ratio per bucket
	bounds []float64 // bounds[i] = upper bound of bucket i+1 (bucket 0 = underflow)
	counts []uint64
	n      uint64
	sum    float64
	max    float64
}

// NewHistogram builds a histogram covering [lo, hi] with bucketsPerDecade
// geometric buckets per decade. Arguments are clamped to sane values
// (lo > 0, hi > lo, at least 1 bucket/decade), so callers can pass rough
// ranges without error handling.
func NewHistogram(lo, hi float64, bucketsPerDecade int) *Histogram {
	if lo <= 0 {
		lo = 1e-6
	}
	if hi <= lo {
		hi = lo * 1e3
	}
	if bucketsPerDecade < 1 {
		bucketsPerDecade = 10
	}
	ratio := math.Pow(10, 1/float64(bucketsPerDecade))
	var bounds []float64
	for b := lo * ratio; ; b *= ratio {
		bounds = append(bounds, b)
		if b >= hi {
			break
		}
	}
	return &Histogram{
		lo:     lo,
		ratio:  ratio,
		bounds: bounds,
		// counts[0] covers (-inf, lo]; counts[i] covers (bounds[i-1]/ratio,
		// bounds[i-1]]; the last slot is the overflow bucket.
		counts: make([]uint64, len(bounds)+2),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	idx := h.bucketOf(v)
	h.mu.Lock()
	h.counts[idx]++
	h.n++
	h.sum += v
	if v > h.max {
		h.max = v
	}
	h.mu.Unlock()
}

func (h *Histogram) bucketOf(v float64) int {
	if v <= h.lo {
		return 0
	}
	// The log index is the first guess; the stored bounds decide, so a
	// value equal to a bound lands in the bucket that bound closes.
	idx := 1 + int(math.Log(v/h.lo)/math.Log(h.ratio))
	if idx < 1 {
		idx = 1
	}
	if idx > len(h.bounds)+1 {
		idx = len(h.bounds) + 1 // overflow
	}
	for idx > 1 && v <= h.bounds[idx-2] {
		idx--
	}
	for idx <= len(h.bounds) && v > h.bounds[idx-1] {
		idx++
	}
	return idx
}

// bucketBounds returns bucket idx's (lower, upper] value range.
func (h *Histogram) bucketBounds(idx int) (float64, float64) {
	switch {
	case idx == 0:
		return 0, h.lo
	case idx <= len(h.bounds):
		return h.bounds[idx-1] / h.ratio, h.bounds[idx-1]
	default:
		// Overflow: attribute mass to [last bound, observed max].
		return h.bounds[len(h.bounds)-1], h.max
	}
}

// Quantile estimates the q-quantile (q in [0, 1]) by linear interpolation
// within the containing bucket. Returns 0 when nothing was observed.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.n)
	var cum float64
	for idx, c := range h.counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if rank <= next {
			loB, hiB := h.bucketBounds(idx)
			if hiB < loB {
				hiB = loB
			}
			frac := (rank - cum) / float64(c)
			v := loB + frac*(hiB-loB)
			if v > h.max {
				v = h.max
			}
			return v
		}
		cum = next
	}
	return h.max
}

// Count returns how many values were observed.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

// Mean returns the observed mean (0 when empty).
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Max returns the largest observed value.
func (h *Histogram) Max() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}
