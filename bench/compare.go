package main

import (
	"fmt"
	"io"
)

// compareRow is one (workload, end-to-end metric) pair of two reports.
type compareRow struct {
	Workload, Metric, Unit string
	A, B                   float64
	Ratio                  float64 // B / A
	Bound                  float64
	Verdict                string // ok, worse, unresolved
}

// worsening is how much b is worse than a as a share of a, signed so that
// positive means worse, for a metric whose better direction is given.
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// relSpread is a metric's spread across slices as a share of its value.
func relSpread(v metricValue) float64 {
	if v.Min == nil || v.Max == nil || v.Value == 0 {
		return 0
	}
	return (*v.Max - *v.Min) / v.Value
}

// verdict applies the regression rule to one pair: worse when B's figure is
// beyond the bound; unresolved when it is within the bound but either side is
// a percentile with fewer than minBeyond samples beyond its rank, or either
// side's spread across slices is wider than the bound, unless every slice of
// B reads better than every slice of A; ok otherwise.
func verdict(a, b metricValue, d metricDef) string {
	if worsening(a.Value, b.Value, d.Better) > d.Bound {
		return "worse"
	}
	if a.undersampled() || b.undersampled() {
		return "unresolved"
	}
	if relSpread(a) <= d.Bound && relSpread(b) <= d.Bound {
		return "ok"
	}
	if a.Min != nil && b.Min != nil {
		if d.Better == "higher" && *b.Min > *a.Max {
			return "ok"
		}
		if d.Better == "lower" && *b.Max < *a.Min {
			return "ok"
		}
	}
	return "unresolved"
}

// compareReports lines up every (workload, compared metric) pair present in
// both reports, plus failed_share, which may not increase at all.
func compareReports(a, b *report) []compareRow {
	var rows []compareRow
	for _, wl := range workloads {
		wa, wb := a.Workloads[wl.name], b.Workloads[wl.name]
		if wa == nil || wb == nil {
			continue
		}
		for _, d := range compared() {
			va, okA := wa.metric(d.Name)
			vb, okB := wb.metric(d.Name)
			if !okA || !okB {
				continue
			}
			row := compareRow{Workload: wl.name, Metric: d.Name, Unit: d.Unit,
				A: va.Value, B: vb.Value, Bound: d.Bound, Verdict: verdict(va, vb, d)}
			if va.Value != 0 {
				row.Ratio = vb.Value / va.Value
			}
			rows = append(rows, row)
		}
		row := compareRow{Workload: wl.name, Metric: "failed_share", Unit: "ratio",
			A: wa.FailedShare, B: wb.FailedShare, Verdict: "ok"}
		if wa.FailedShare != 0 {
			row.Ratio = wb.FailedShare / wa.FailedShare
		}
		if wb.FailedShare > wa.FailedShare {
			row.Verdict = "worse"
		}
		rows = append(rows, row)
	}
	return rows
}

// printCompare writes one row per pair and reports whether any is worse.
func printCompare(w io.Writer, a, b *report, rows []compareRow) (anyWorse bool) {
	fmt.Fprintf(w, "A: commit=%s seed=%d rounds=%d slice=%gs\nB: commit=%s seed=%d rounds=%d slice=%gs\n",
		a.Header.Commit, a.Header.Seed, a.Header.Rounds, a.Header.SliceS,
		b.Header.Commit, b.Header.Seed, b.Header.Rounds, b.Header.SliceS)
	fmt.Fprintf(w, "%-16s %-18s %14s %14s %-5s %18s %6s  %s\n", "workload", "metric", "A", "B", "unit", "B/A (base A)", "bound", "verdict")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %-18s %14.4f %14.4f %-5s %9.4f of %-8.4g %6g  %s\n",
			r.Workload, r.Metric, r.A, r.B, r.Unit, r.Ratio, r.A, r.Bound, r.Verdict)
		if r.Verdict == "worse" {
			anyWorse = true
		}
	}
	return anyWorse
}
