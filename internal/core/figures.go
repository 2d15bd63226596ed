package core

import (
	"fmt"
	"strings"
	"time"

	"chaseci/internal/metrics"
	"chaseci/internal/workflow"
)

// This file turns a completed ConnectRun's metric series into the paper's
// figures: the per-worker download dashboard (Fig 3), the network usage
// chart (Fig 4), the training phases (Fig 5), and the inference utilization
// series (Fig 6). cmd/benchtab and bench_test.go both render through these.

// Fig3 renders the download-job orchestration dashboard: per-worker CPU
// sparklines over the step-1 window plus totals, the shape of the paper's
// Figure 3.
func (run *ConnectRun) Fig3(width int) string {
	if width <= 0 {
		width = 60
	}
	reg := run.Eco.Metrics
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 3 — Kubernetes data download job orchestration (%d workers, Redis queue)\n",
		DownloadWorkers)
	series := reg.Select("connect_worker_cpu", nil)
	for _, s := range series {
		fmt.Fprintf(&b, "  %-14s %s\n", s.Labels["pod"], metrics.Sparkline(s.Samples, width))
	}
	report := run.Workflow.Report()
	dl := stepByName(report, "1-download")
	fmt.Fprintf(&b, "  total run time %v, %.0f GB transferred (%d NetCDF files)\n",
		dl.Duration.Round(time.Minute), run.BytesDownloaded.Value()/1e9,
		run.Config.Archive.NumFiles())
	return b.String()
}

// Fig4 renders network usage during the download with peak statistics, the
// shape of the paper's Figure 4.
func (run *ConnectRun) Fig4(width, height int) string {
	reg := run.Eco.Metrics
	rate := reg.Select("connect_download_rate_bytes", nil)
	var b strings.Builder
	b.WriteString("Fig 4 — network usage during download job\n")
	if len(rate) == 0 || len(rate[0].Samples) == 0 {
		b.WriteString("(no samples)\n")
		return b.String()
	}
	s := rate[0]
	b.WriteString(metrics.Chart(s.Samples, metrics.ChartOptions{
		Width: width, Height: height, Title: "aggregate download rate", Unit: "B/s",
	}))
	peak := metrics.MaxOf(s.Samples)
	mean := metrics.MeanOf(s.Samples)
	fmt.Fprintf(&b, "  peak %.0f MB/s, mean %.0f MB/s (paper: max 593 MB/s bursts; fluid model reports sustained rate)\n",
		peak/1e6, mean/1e6)
	return b.String()
}

// Fig5 renders the training-job phase timeline: data preparation then FFN
// optimization, the shape of the paper's Figure 5.
func (run *ConnectRun) Fig5(width int) string {
	reg := run.Eco.Metrics
	var b strings.Builder
	b.WriteString("Fig 5 — training job: data preparation (phase 1) then FFN training (phase 2)\n")
	phases := reg.Select("connect_train_phase", nil)
	if len(phases) == 0 {
		b.WriteString("(no samples)\n")
		return b.String()
	}
	s := phases[0]
	var prepStart, trainStart, trainEnd time.Duration
	for _, sm := range s.Samples {
		switch sm.Value {
		case 1:
			prepStart = sm.At
		case 2:
			trainStart = sm.At
		case 0:
			trainEnd = sm.At
		}
	}
	prep := trainStart - prepStart
	train := trainEnd - trainStart
	total := prep + train
	if total > 0 {
		prepCols := int(float64(width) * float64(prep) / float64(total))
		fmt.Fprintf(&b, "  [%s%s]\n", strings.Repeat("p", prepCols), strings.Repeat("T", width-prepCols))
	}
	fmt.Fprintf(&b, "  prep %v, training %v, total %v (paper: 306m total on one 1080ti)\n",
		prep.Round(time.Minute), train.Round(time.Minute), (prep + train).Round(time.Minute))
	return b.String()
}

// Fig6 renders the inference job's resource series: CPUs, memory and GPUs in
// use over the whole run, the shape of the paper's Figure 6 (three stacked
// panels).
func (run *ConnectRun) Fig6(width, height int) string {
	reg := run.Eco.Metrics
	var b strings.Builder
	b.WriteString("Fig 6 — inference job utilization\n")
	for _, panel := range []struct {
		metric, title, unit string
	}{
		{"k8s_cpu_in_use", "CPUs in use", ""},
		{"k8s_mem_in_use_bytes", "memory in use", "B"},
		{"k8s_gpus_in_use", "GPUs in use", ""},
	} {
		ss := reg.Select(panel.metric, nil)
		if len(ss) == 0 {
			continue
		}
		b.WriteString(metrics.Chart(ss[0].Samples, metrics.ChartOptions{
			Width: width, Height: height, Title: "  " + panel.title, Unit: panel.unit,
		}))
	}
	return b.String()
}

// Table1 renders the resource summary table in the paper's Table I layout.
func (run *ConnectRun) Table1() string {
	return "Table I — Nautilus resource summary for all steps in the workflow\n" + run.Workflow.Report().RenderTable()
}

func stepByName(r workflow.Report, name string) workflow.StepReport {
	for _, s := range r.Steps {
		if s.Name == name {
			return s
		}
	}
	return workflow.StepReport{}
}
