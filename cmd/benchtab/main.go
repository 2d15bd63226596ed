// Command benchtab regenerates every table and figure of the paper's
// evaluation from the simulated CHASE-CI ecosystem:
//
//	benchtab -table1      Table I  (resource summary, full archive scale)
//	benchtab -fig3        Figure 3 (download orchestration, 10 workers)
//	benchtab -fig4        Figure 4 (network usage during download)
//	benchtab -fig5        Figure 5 (training phases)
//	benchtab -fig6        Figure 6 (inference utilization)
//	benchtab -fig1        Figure 1 (distributed storage placement + healing)
//	benchtab -all         everything above
//
// Add -scale N to slice the archive to N granules (default: full 112,249).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"chaseci/internal/core"
	"chaseci/internal/merra"
)

func main() {
	var (
		table1 = flag.Bool("table1", false, "regenerate Table I")
		fig1   = flag.Bool("fig1", false, "regenerate Figure 1 (storage)")
		fig3   = flag.Bool("fig3", false, "regenerate Figure 3")
		fig4   = flag.Bool("fig4", false, "regenerate Figure 4")
		fig5   = flag.Bool("fig5", false, "regenerate Figure 5")
		fig6   = flag.Bool("fig6", false, "regenerate Figure 6")
		all    = flag.Bool("all", false, "everything")
		scale  = flag.Int("scale", 0, "slice the archive to N granules (0 = full)")
	)
	flag.Parse()
	if *all {
		*table1, *fig1, *fig3, *fig4, *fig5, *fig6 = true, true, true, true, true, true
	}
	if !*table1 && !*fig1 && !*fig3 && !*fig4 && !*fig5 && !*fig6 {
		flag.Usage()
		os.Exit(2)
	}

	if *fig1 {
		runFig1()
	}

	needRun := *table1 || *fig3 || *fig4 || *fig5 || *fig6
	if needRun {
		cfg := core.PaperConnectConfig()
		if *scale > 0 {
			cfg.Archive = merra.MERRA2().Slice(*scale)
		}
		eco := core.Nautilus()
		run, err := eco.NewConnectWorkflow(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("running the CONNECT workflow at %d granules (virtual time)...\n\n",
			cfg.Archive.NumFiles())
		start := time.Now()
		if _, err := run.Execute(); err != nil {
			fatal(err)
		}
		fmt.Printf("simulated %v of cluster time in %v of wall time\n\n",
			eco.Clock.Now().Round(time.Minute), time.Since(start).Round(time.Millisecond))
		if *table1 {
			fmt.Println(run.Table1())
		}
		if *fig3 {
			fmt.Println(run.Fig3(60))
		}
		if *fig4 {
			fmt.Println(run.Fig4(72, 10))
		}
		if *fig5 {
			fmt.Println(run.Fig5(60))
		}
		if *fig6 {
			fmt.Println(run.Fig6(72, 8))
		}
	}
}

func runFig1() {
	fmt.Println("Fig 1 — Kubernetes/Rook/Ceph on PRP: distributed PB+ storage")
	eco := core.Nautilus()
	fmt.Printf("  %d OSDs across %d sites, %.1f PB raw, %dx replication\n",
		len(eco.Storage.OSDs()), eco.Sites(),
		eco.StorageBytes()/1e15, eco.Storage.Replicas())
	// Place a science dataset and show distribution.
	for i := 0; i < 200; i++ {
		eco.Storage.Put("science-data", fmt.Sprintf("granule-%04d", i), 4e9, nil)
	}
	for _, osd := range eco.Storage.OSDs() {
		fmt.Printf("  %-18s %6.1f GB\n", osd.ID, osd.Used()/1e9)
	}
	// Fail an OSD, show healing.
	recover, _ := eco.Storage.FailOSD("ucsd-osd-00")
	fmt.Printf("  failed ucsd-osd-00: %.1f GB re-replicating...\n", recover/1e9)
	eco.Clock.Run()
	h := eco.Storage.HealthReport()
	fmt.Printf("  after recovery: %d/%d PGs active, health OK=%v\n\n",
		h.PGsActive, h.PGsTotal, h.OK())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchtab:", err)
	os.Exit(1)
}
