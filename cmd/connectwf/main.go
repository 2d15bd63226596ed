// Command connectwf runs the Section III case study end to end: the 4-step
// CONNECT object-segmentation workflow (THREDDS download -> FFN training ->
// distributed multi-GPU inference -> visualization) on a simulated Nautilus
// cluster, with the real FFN/CONNECT computation embedded at experiment
// scale. The deployment is the paper's (10 download workers, 50 inference
// GPUs); a failed step exits 1 naming the step, the job and the cause.
//
//	connectwf -plan            print the workflow step graph (Fig 2) and exit
//	connectwf -scale N         slice the archive to N granules (default 2000)
//	connectwf -full            run at the paper's full 112,249-granule scale
//	connectwf -real=false      skip the real FFN/CONNECT computation
//	connectwf -ui              serve the PPoDS status page while running
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"chaseci/internal/core"
	"chaseci/internal/gpusim"
	"chaseci/internal/merra"
	"chaseci/internal/workflow"
)

func main() {
	var (
		plan  = flag.Bool("plan", false, "print the workflow plan and exit")
		scale = flag.Int("scale", 2000, "archive granules to process")
		full  = flag.Bool("full", false, "use the full 112,249-granule archive")
		real  = flag.Bool("real", true, "run the real FFN/CONNECT compute path")
		ui    = flag.Bool("ui", false, "serve the web status page (Section VI) while running")
	)
	flag.Parse()

	cfg := core.PaperConnectConfig()
	if !*full {
		cfg.Archive = merra.MERRA2().Slice(*scale)
	}
	if *real {
		cfg.Real = core.DefaultRealCompute()
	}

	eco := core.Nautilus()
	run, err := eco.NewConnectWorkflow(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "connectwf:", err)
		os.Exit(1)
	}

	if *plan {
		fmt.Print(run.Workflow.RenderPlan())
		return
	}

	fmt.Printf("CONNECT workflow: %d granules (%.1f GB subset), %d download workers, %d inference GPUs\n\n",
		cfg.Archive.NumFiles(), cfg.Archive.TotalBytes(true)/1e9,
		core.DownloadWorkers, gpusim.Paper().InferGPUs)

	var status *workflow.StatusServer
	if *ui {
		var err error
		status, err = workflow.ServeStatus(run.Workflow, "127.0.0.1:0")
		if err != nil {
			fmt.Fprintln(os.Stderr, "connectwf:", err)
			os.Exit(1)
		}
		defer status.Close()
		fmt.Printf("PPoDS status page: http://%s/\n\n", status.Addr())
	}

	start := time.Now()
	if err := run.Workflow.Run(nil); err != nil {
		fmt.Fprintln(os.Stderr, "connectwf:", err)
		os.Exit(1)
	}
	for !run.Workflow.Done() {
		eco.Clock.RunFor(5 * time.Minute)
		if status != nil {
			status.Update(run.Workflow)
		}
	}
	if status != nil {
		status.Update(run.Workflow)
	}
	if err := run.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "connectwf:", err)
		os.Exit(1)
	}
	report := run.Workflow.Report()
	fmt.Printf("completed %v of cluster time in %v wall time\n\n",
		eco.Clock.Now().Round(time.Second), time.Since(start).Round(time.Millisecond))

	fmt.Println(report.RenderTable())
	for _, s := range report.Steps {
		fmt.Printf("  %-14s %-10s %v\n", s.Name, s.Status, s.Duration.Round(time.Second))
	}

	if rr := run.RealResult; rr != nil {
		fmt.Println("\nreal-compute results (chased/v1 jobs over synthetic MERRA-2 IVT in the cluster's store):")
		fmt.Printf("  training loss %.3f -> %.3f over %d train_dist rounds\n",
			rr.TrainLossHead, rr.TrainLossTail, cfg.Real.TrainSteps)
		fmt.Printf("  segmentation precision %.2f, recall %.2f, IoU %.2f\n",
			rr.Precision, rr.Recall, rr.IoU)
		fmt.Printf("  FFN found %d objects; CONNECT baseline found %d\n",
			rr.FFNObjects, rr.CONNObjects)
		for _, art := range []struct{ what, ref string }{{"checkpoint", rr.CheckpointRef}, {"mask", rr.MaskRef}} {
			info, _ := eco.Datasets.Stat(art.ref)
			fmt.Printf("  %-10s %d bytes, %d replicas: ceph://datasets/%s\n",
				art.what, info.Bytes, len(eco.Datasets.Placement(art.ref)), art.ref)
		}
		fmt.Println("\n" + rr.ReportText)
	}
}
