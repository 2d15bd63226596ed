package core

import (
	"fmt"
	"testing"
	"time"

	"chaseci/internal/cluster"
	"chaseci/internal/merra"
	"chaseci/internal/workflow"
)

// The related-work claim: "graphics and machine learning processes can
// cohabitate, as remote researchers have the ability to run GPU compute jobs
// on the same hardware which is being used locally for visualization."

func TestCohabitationInferencePlusCAVE(t *testing.T) {
	eco := Nautilus()

	// Foreground science: the inference-heavy workflow at reduced scale.
	cfg := PaperConnectConfig()
	cfg.Archive = merra.MERRA2().Slice(2000)
	run, err := eco.NewConnectWorkflow(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := run.Workflow.Run(nil); err != nil {
		t.Fatal(err)
	}

	// Drive the workflow until inference is in flight (GPUs busy), then run
	// a display wall's GPU job, one pod per tile, on the same cluster.
	eco.Clock.RunWhile(func() bool {
		return stepByName(run.Workflow.Report(), "3-inference").Status != workflow.StatusRunning
	})
	eco.Clock.RunFor(time.Minute)
	if _, err := eco.Cluster.CreateNamespace("suncave", nil); err != nil {
		t.Fatal(err)
	}
	const tiles = 12
	wall, err := eco.Cluster.CreateJob(cluster.JobSpec{
		Name: "tile-render", Namespace: "suncave", Parallelism: tiles,
		Template: cluster.PodTemplate{
			Requests:     cluster.Resources{CPU: 1, Memory: 4e9, GPUs: 1},
			NodeSelector: map[string]string{"gpu": "1080ti"},
			Run:          func(pc *cluster.PodCtx) { pc.After(time.Second, pc.Succeed) },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ok := false
	wall.OnComplete(func(done bool) { ok = done })
	eco.Clock.RunWhile(func() bool { return !wall.Done() })
	rendered := 0
	for _, p := range wall.Pods() {
		if p.Phase == cluster.PodSucceeded {
			rendered++
		}
	}
	if !ok || rendered != tiles {
		t.Fatalf("display job while inference held 50 GPUs: %d of %d tiles, ok=%v", rendered, tiles, ok)
	}
	if stepByName(run.Workflow.Report(), "3-inference").Status != workflow.StatusRunning {
		t.Fatal("inference finished before the display job did; the GPUs were not shared")
	}

	// The workflow must still complete.
	eco.Clock.RunWhile(func() bool { return !run.Workflow.Done() })
	if run.Workflow.Failed() {
		t.Fatal("workflow failed while cohabiting with visualization")
	}
}

func TestCohabitationBackgroundWANTraffic(t *testing.T) {
	// Science DMZ: heavy tenant traffic between other campuses must not
	// materially slow the download (the THREDDS uplink is the bottleneck,
	// and the backbone is overprovisioned).
	baseline := func(load bool) time.Duration {
		eco := Nautilus()
		if load {
			// 40 tenant flows hammering the calit2 and sdsc uplinks.
			for i := 0; i < 20; i++ {
				eco.Net.Transfer("ucsd", "calit2", 1e12, nil)
			}
			for i := 0; i < 20; i++ {
				eco.Net.Transfer("sdsc", "ucmerced", 1e12, nil)
			}
		}
		cfg := PaperConnectConfig()
		cfg.Archive = merra.MERRA2().Slice(4000)
		run, err := eco.NewConnectWorkflow(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := run.Workflow.Run(nil); err != nil {
			t.Fatal(err)
		}
		eco.Clock.RunWhile(func() bool {
			return stepByName(run.Workflow.Report(), "1-download").Status != workflow.StatusSucceeded
		})
		return stepByName(run.Workflow.Report(), "1-download").Duration
	}
	quiet := baseline(false)
	busy := baseline(true)
	slowdown := float64(busy) / float64(quiet)
	if slowdown > 1.10 {
		t.Fatalf("download slowed %.2fx under background WAN load; Science DMZ model broken", slowdown)
	}
}

func TestNamespaceQuotaIsolatesTenants(t *testing.T) {
	// A greedy tenant with a quota cannot starve the workflow namespace.
	eco := Nautilus()
	greedyQuota := cluster.Resources{CPU: 40, Memory: 200e9, GPUs: 20}
	eco.Cluster.CreateNamespace("greedy", &greedyQuota)
	// Greedy tenant asks for far more than its quota.
	var hogs []*cluster.Pod
	for i := 0; i < 30; i++ {
		p, _ := eco.Cluster.CreatePod(cluster.PodSpec{
			Name:      fmt.Sprintf("hog-%d", i),
			Namespace: "greedy",
			Requests:  cluster.Resources{CPU: 8, Memory: 32e9, GPUs: 4},
			Run:       func(pc *cluster.PodCtx) { /* holds resources forever */ },
		})
		hogs = append(hogs, p)
	}
	cfg := PaperConnectConfig()
	cfg.Archive = merra.MERRA2().Slice(1000)
	run, err := eco.NewConnectWorkflow(cfg)
	if err != nil {
		t.Fatal(err)
	}
	report, err := run.Execute()
	if err != nil {
		t.Fatalf("workflow failed under greedy tenant: %v", err)
	}
	if len(report.Steps) != 4 {
		t.Fatal("incomplete report")
	}
	// The greedy pods still holding resources stay within the quota.
	var used cluster.Resources
	for _, p := range hogs {
		if p.Phase == cluster.PodRunning {
			used = used.Add(p.Spec.Requests)
		}
	}
	if !used.Fits(greedyQuota) {
		t.Fatalf("greedy namespace used %v beyond quota %v", used, greedyQuota)
	}
}
