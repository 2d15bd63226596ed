package metrics

import (
	"fmt"
	"strings"
	"time"
)

// This file renders time-series as terminal charts, so cmd/benchtab can
// draw the paper's Figures 3-6.

// ChartOptions controls ASCII rendering.
type ChartOptions struct {
	Width  int    // plot columns (default 72)
	Height int    // plot rows (default 12)
	Title  string // optional header line
	Unit   string // y-axis unit suffix, e.g. "MB/s"
}

func (o *ChartOptions) defaults() {
	if o.Width <= 0 {
		o.Width = 72
	}
	if o.Height <= 0 {
		o.Height = 12
	}
}

// Chart renders samples as an ASCII area chart. Samples are bucketed into
// Width columns by time with step-function carry-forward between updates.
func Chart(samples []Sample, opts ChartOptions) string {
	opts.defaults()
	var b strings.Builder
	if opts.Title != "" {
		fmt.Fprintf(&b, "%s\n", opts.Title)
	}
	if len(samples) == 0 {
		b.WriteString("(no data)\n")
		return b.String()
	}
	t0, t1 := samples[0].At, samples[len(samples)-1].At
	span := t1 - t0
	if span <= 0 {
		span = 1
	}
	// Step-function semantics: each column takes the value of the last
	// sample at or before its bucket (carry-forward), so sparse gauge
	// updates render as the plateaus they represent.
	lastIn := make([]float64, opts.Width)
	has := make([]bool, opts.Width)
	for _, s := range samples {
		col := int(int64(s.At-t0) * int64(opts.Width-1) / int64(span))
		lastIn[col] = s.Value
		has[col] = true
	}
	cols := make([]float64, opts.Width)
	maxV := 0.0
	last := 0.0
	for i := range cols {
		if has[i] {
			last = lastIn[i]
		}
		cols[i] = last
		if cols[i] > maxV {
			maxV = cols[i]
		}
	}
	if maxV == 0 {
		maxV = 1
	}
	// Render rows top-down.
	for row := opts.Height; row >= 1; row-- {
		threshold := maxV * (float64(row) - 0.5) / float64(opts.Height)
		label := ""
		if row == opts.Height {
			label = formatValue(maxV, opts.Unit)
		} else if row == 1 {
			label = formatValue(0, opts.Unit)
		}
		fmt.Fprintf(&b, "%12s |", label)
		for _, v := range cols {
			if v >= threshold {
				b.WriteByte('#')
			} else {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%12s +%s\n", "", strings.Repeat("-", opts.Width))
	fmt.Fprintf(&b, "%12s  %-*s%s\n", "", opts.Width-len(fmtDur(t1)), fmtDur(t0), fmtDur(t1))
	return b.String()
}

// Sparkline renders samples as a single-line unicode sparkline, used for
// compact per-worker rows in the Fig 3 reproduction.
func Sparkline(samples []Sample, width int) string {
	if width <= 0 {
		width = 40
	}
	if len(samples) == 0 {
		return strings.Repeat(" ", width)
	}
	levels := []rune("▁▂▃▄▅▆▇█")
	t0, t1 := samples[0].At, samples[len(samples)-1].At
	span := t1 - t0
	if span <= 0 {
		span = 1
	}
	lastIn := make([]float64, width)
	has := make([]bool, width)
	for _, s := range samples {
		col := int(int64(s.At-t0) * int64(width-1) / int64(span))
		lastIn[col] = s.Value
		has[col] = true
	}
	maxV := 0.0
	vals := make([]float64, width)
	last := 0.0
	for i := range vals {
		if has[i] {
			last = lastIn[i]
		}
		vals[i] = last
		if last > maxV {
			maxV = last
		}
	}
	if maxV == 0 {
		maxV = 1
	}
	var b strings.Builder
	for _, v := range vals {
		idx := int(v / maxV * float64(len(levels)-1))
		if idx < 0 {
			idx = 0
		}
		if idx >= len(levels) {
			idx = len(levels) - 1
		}
		b.WriteRune(levels[idx])
	}
	return b.String()
}

func formatValue(v float64, unit string) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.2fG%s", v/1e9, unit)
	case v >= 1e6:
		return fmt.Sprintf("%.2fM%s", v/1e6, unit)
	case v >= 1e3:
		return fmt.Sprintf("%.2fk%s", v/1e3, unit)
	default:
		return fmt.Sprintf("%.2f%s", v, unit)
	}
}

func fmtDur(d time.Duration) string {
	d = d.Round(time.Second)
	return d.String()
}
