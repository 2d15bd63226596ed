package metrics

import "math"

// MaxOf and MeanOf are the aggregates the paper's figures report over a
// series' samples: peak and mean throughput.

// MaxOf returns the maximum sample value in samples, or 0 for none.
func MaxOf(samples []Sample) float64 {
	max := math.Inf(-1)
	for _, s := range samples {
		if s.Value > max {
			max = s.Value
		}
	}
	if math.IsInf(max, -1) {
		return 0
	}
	return max
}

// MeanOf returns the arithmetic mean of samples, or 0 for none.
func MeanOf(samples []Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, s := range samples {
		sum += s.Value
	}
	return sum / float64(len(samples))
}
