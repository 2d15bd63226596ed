package main

import (
	"sort"
	"time"
)

// sliceStat is what one measured slice of one workload produced. A unit is
// what one latency sample covers: a job, or for connect_chain a whole chain.
type sliceStat struct {
	Elapsed time.Duration
	// Units that completed and verified, and units that failed (refused,
	// errored, timed out, ended non-succeeded, or failed verification).
	OK, Failed int
	CPU        time.Duration // process user+sys over the slice
	AllocBytes uint64        // MemStats.TotalAlloc delta
	Mallocs    uint64        // MemStats.Mallocs delta
	WireBytes  int64         // submit + ack + result-envelope bodies; polls excluded
	Polls      int64
	Shed       int64 // 429 replies
	GCCycles   uint32
	GCPause    time.Duration
	HeapStart  uint64 // HeapAlloc after a forced GC, slice start and end
	HeapEnd    uint64
	Lat        []time.Duration // one per verified unit
	// Per-step wall and wire inside a chain (connect_chain only).
	StepWall [3][]time.Duration
	StepWire [3]int64
}

func (s *sliceStat) perUnit(v float64) float64 {
	if s.OK == 0 {
		return 0
	}
	return v / float64(s.OK)
}

func (s *sliceStat) jobsPerSec() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.OK) / s.Elapsed.Seconds()
}

// spread is a median-of-slices figure with the extremes beside it; All holds
// the per-slice values in slice order.
type spread struct {
	Median, Min, Max float64
	All              []float64
}

// value is the spread as a reported figure: the median, with the extremes
// and the per-slice values beside it.
func (sp spread) value(unit string) metricValue {
	lo, hi := sp.Min, sp.Max
	return metricValue{Value: sp.Median, Unit: unit, Min: &lo, Max: &hi, Slices: sp.All}
}

// medianOf returns the median of vs (mean of the middle two when even) with
// the min and max; the zero spread for an empty input.
func medianOf(vs []float64) spread {
	if len(vs) == 0 {
		return spread{}
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	m := s[len(s)/2]
	if len(s)%2 == 0 {
		m = (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	return spread{Median: m, Min: s[0], Max: s[len(s)-1], All: vs}
}

// overSlices applies f to every slice and summarizes the per-slice values.
func overSlices(slices []*sliceStat, f func(*sliceStat) float64) spread {
	vs := make([]float64, len(slices))
	for i, s := range slices {
		vs[i] = f(s)
	}
	return medianOf(vs)
}

// pooled concatenates the latency samples of every slice.
func pooled(slices []*sliceStat) []time.Duration {
	n := 0
	for _, s := range slices {
		n += len(s.Lat)
	}
	out := make([]time.Duration, 0, n)
	for _, s := range slices {
		out = append(out, s.Lat...)
	}
	return out
}

// minBeyond is how many samples must lie beyond a percentile's rank for the
// percentile to count as measured.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of sorted and
// how many samples lie strictly beyond its rank. sorted must be ascending.
func percentile(sorted []time.Duration, q float64) (v time.Duration, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := int(q*float64(n) + 0.999999999) // ceil without float dust
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n - rank
}

func medianDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	v, _ := percentile(s, 0.5)
	return v
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
