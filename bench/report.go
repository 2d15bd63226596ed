package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"

	"chaseci/internal/tensor"
)

// metricValue is one reported figure. Min and Max are the extremes across
// slices (across set-ups for setup_s); Samples and Beyond are the pooled
// sample count and how many samples lie beyond a percentile's rank.
type metricValue struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Min     *float64  `json:"min,omitempty"`
	Max     *float64  `json:"max,omitempty"`
	Slices  []float64 `json:"slices,omitempty"`
	Samples int       `json:"samples,omitempty"`
	Beyond  int       `json:"beyond,omitempty"`
}

// undersampled reports a percentile with too few samples beyond its rank.
func (v metricValue) undersampled() bool { return v.Samples > 0 && v.Beyond < minBeyond }

type workloadReport struct {
	Clients     int                    `json:"clients"`
	PollUS      float64                `json:"poll_us"`
	Attempted   int                    `json:"ops_attempted"`
	Failed      int                    `json:"ops_failed"`
	FailedShare float64                `json:"failed_share"`
	Correct     bool                   `json:"correct"`
	Errors      []string               `json:"errors,omitempty"`
	EndToEnd    map[string]metricValue `json:"end_to_end"`
	PerLayer    map[string]metricValue `json:"per_layer"`
}

// metric finds a figure by name among the end-to-end and per-layer ones.
func (wr *workloadReport) metric(name string) (metricValue, bool) {
	if v, ok := wr.EndToEnd[name]; ok {
		return v, true
	}
	v, ok := wr.PerLayer[name]
	return v, ok
}

// header records what a reader needs to trust a comparison.
type header struct {
	Commit      string  `json:"commit"`
	GoVersion   string  `json:"go_version"`
	NProc       int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	SpanKernels bool    `json:"span_kernels_active"`
	QuantAsm    bool    `json:"quant_asm_active"`
	Seed        uint64  `json:"seed"`
	Rounds      int     `json:"rounds"`
	SliceS      float64 `json:"slice_s"`
	TotalWallS  float64 `json:"total_wall_s"`
}

type report struct {
	Header    header                     `json:"header"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

func (b *bench) header() header {
	return header{
		Commit:      gitCommit(),
		GoVersion:   runtime.Version(),
		NProc:       b.nproc,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		SpanKernels: tensor.SpanKernelsActive(),
		QuantAsm:    tensor.QuantAsmActive(),
		Seed:        b.cfg.seed,
		Rounds:      b.cfg.rounds,
		SliceS:      b.cfg.slice.Seconds(),
	}
}

// gitCommit asks git for the checkout's commit; a tree that is not a git
// repository (the driver's checkout) reports "unknown".
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// print writes every metric by name with its unit, workload by workload.
func (r *report) print(w io.Writer) {
	h := r.Header
	fmt.Fprintf(w, "# chased benchmark commit=%s %s nproc=%d GOMAXPROCS=%d span_kernels=%v quant_asm=%v seed=%d rounds=%d slice=%gs wall=%.1fs\n",
		h.Commit, h.GoVersion, h.NProc, h.GOMAXPROCS, h.SpanKernels, h.QuantAsm, h.Seed, h.Rounds, h.SliceS, h.TotalWallS)
	for _, wl := range workloads {
		wr := r.Workloads[wl.name]
		if wr == nil {
			continue
		}
		fmt.Fprintf(w, "\nworkload %s  clients=%d poll=%gus closed-loop  ops_attempted=%d ops_failed=%d failed_share=%g correct=%v\n",
			wl.name, wr.Clients, wr.PollUS, wr.Attempted, wr.Failed, wr.FailedShare, wr.Correct)
		for _, e := range wr.Errors {
			fmt.Fprintf(w, "  error: %s\n", e)
		}
		for _, d := range endToEnd {
			v, ok := wr.EndToEnd[d.Name]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "  %-34s %14.4f %-5s", d.Name, v.Value, v.Unit)
			if v.Min != nil {
				fmt.Fprintf(w, " [%.4f .. %.4f]", *v.Min, *v.Max)
			}
			fmt.Fprintf(w, "  bound %g\n", d.Bound)
		}
		for _, d := range perLayer {
			v, ok := wr.PerLayer[d.Name]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "  %-34s %14.4f %-5s", d.Name, v.Value, v.Unit)
			if v.Min != nil {
				fmt.Fprintf(w, " [%.4f .. %.4f]", *v.Min, *v.Max)
			}
			if v.Samples > 0 {
				fmt.Fprintf(w, " n=%d beyond=%d", v.Samples, v.Beyond)
				if v.undersampled() {
					fmt.Fprintf(w, " (fewer than %d: tail under-sampled, -compare calls it unresolved)", minBeyond)
				}
			}
			fmt.Fprintf(w, "  -> %s\n", d.Moves)
		}
	}
}

func (r *report) write(path string) error {
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// resultLine is the driver's contract: the last line of standard output.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (wr *workloadReport) resultLine(layers bool) resultLine {
	src := wr.EndToEnd
	if layers {
		src = wr.PerLayer
	}
	line := resultLine{Correct: wr.Correct, Attempted: wr.Attempted, Failed: wr.Failed,
		Metrics: make(map[string]lineMetric, len(src))}
	for name, v := range src {
		line.Metrics[name] = lineMetric{Value: v.Value, Unit: v.Unit}
	}
	return line
}
