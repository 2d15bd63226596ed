// Command bench is the chased benchmark: four closed-loop workloads driven
// over loopback HTTP against the job gateway, three bounded end-to-end
// metrics plus the failed share, four timing metrics, per-layer probes and a
// traced run. See README.md in this directory for the workloads, the metric
// definitions and the noise protocol.
//
//	go run ./bench -seed 1 -out run.json            every workload, interleaved
//	go run ./bench -workload ctl_tiny -seconds 25   one workload (the driver's form)
//	go run ./bench -compare A.json B.json           regression verdicts
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

// The values of -trace.
const (
	traceOff  = "0"
	traceOn   = "1"
	traceBoth = "both"
)

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workloadName = fs.String("workload", "", "run one workload and end with the one-line JSON result (default: all four, interleaved)")
		seed         = fs.Uint64("seed", 1, "every input derives from it; the same seed gives the same inputs")
		seconds      = fs.Float64("seconds", 30, "measured seconds per workload, split evenly into -rounds slices")
		trace        = fs.String("trace", traceBoth, "0: end-to-end metrics only, tracing off; 1: per-layer metrics from traced slices and probes; both: measured rounds, then a traced slice and the probes")
		rounds       = fs.Int("rounds", 5, "slices per workload, interleaved round-robin across workloads")
		out          = fs.String("out", "", "write the full report as JSON to this file")
		spans        = fs.String("spans", "", "write the traced slices' spans to this file, one JSON object per line")
		compare      = fs.Bool("compare", false, "compare two -out files given as arguments; exit non-zero if any metric is worse")
		smoke        = fs.Bool("smoke", false, "a seconds-long run for tests, whatever -rounds and -seconds say: 200 ms slices, 1 round, 1 set-up, 3 probe repetitions")
		recordGolden = fs.String("record-golden", "", "record the golden digests of this seed to this file instead of checking them")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}

	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare wants two report files, got %d", fs.NArg()))
		}
		a, err := readReport(fs.Arg(0))
		if err != nil {
			return fail(err)
		}
		b, err := readReport(fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if printCompare(stdout, a, b, compareReports(a, b)) {
			return 1
		}
		return 0
	}

	if *trace != traceOff && *trace != traceOn && *trace != traceBoth {
		return fail(fmt.Errorf("-trace wants 0, 1 or both, got %q", *trace))
	}
	cfg := config{seed: *seed, rounds: *rounds,
		measured: *trace != traceOn, layers: *trace != traceOff, smoke: *smoke}
	if *workloadName != "" {
		idx, w := workloadByName(*workloadName)
		if w == nil {
			return fail(fmt.Errorf("unknown workload %q", *workloadName))
		}
		cfg.workloads = []int{idx}
		cfg.alternate = *trace == traceOn
	} else {
		for i := range workloads {
			cfg.workloads = append(cfg.workloads, i)
		}
	}
	if *smoke {
		cfg.rounds = 1
		if cfg.alternate {
			cfg.rounds = 2 // one traced and one untraced slice
		}
		*seconds = 0.2 * float64(cfg.rounds)
	}
	if cfg.rounds < 1 || *seconds <= 0 {
		return fail(fmt.Errorf("-rounds must be at least 1 and -seconds positive"))
	}
	cfg.slice = time.Duration(*seconds / float64(cfg.rounds) * float64(time.Second))
	if *recordGolden != "" {
		cfg.record = &goldenFile{Seed: *seed, Digests: make(map[string][]string)}
	}

	b, err := newBench(cfg)
	if err != nil {
		return fail(err)
	}
	rep, err := b.run()
	if err != nil {
		return fail(err)
	}
	rep.print(stdout)
	if *out != "" {
		if err := rep.write(*out); err != nil {
			return fail(err)
		}
	}
	if *spans != "" && b.tr != nil {
		if err := b.tr.writeSpans(*spans); err != nil {
			return fail(err)
		}
	}
	if cfg.record != nil {
		raw, _ := json.MarshalIndent(cfg.record, "", "  ")
		if err := os.WriteFile(*recordGolden, append(raw, '\n'), 0o644); err != nil {
			return fail(err)
		}
	}

	// A healthy run fails nothing: a wrong result, or a unit that was refused,
	// errored, timed out or ended non-succeeded, makes the exit code 1.
	code := 0
	for _, wr := range rep.Workloads {
		if !wr.Correct || wr.Failed > 0 {
			code = 1
		}
	}
	if *workloadName != "" {
		line, _ := json.Marshal(rep.Workloads[*workloadName].resultLine(*trace == traceOn))
		fmt.Fprintf(stdout, "%s\n", line)
	}
	return code
}
