// Failover: Section V's claim — "if a node is taken offline the pods on
// that node will be rescheduled on another node" — exercised against the
// case-study workflow. The example starts the download step, kills nodes
// hosting busy workers mid-run, and shows that the Job controller respawns
// pods, the Redis messages they were processing are re-queued, and the
// workflow still lands every byte.
package main

import (
	"fmt"
	"log"
	"time"

	"chaseci/internal/core"
	"chaseci/internal/merra"
)

func main() {
	eco := core.Nautilus()
	cfg := core.PaperConnectConfig()
	cfg.Archive = merra.MERRA2().Slice(6000)
	run, err := eco.NewConnectWorkflow(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := run.Workflow.Run(nil); err != nil {
		log.Fatal(err)
	}

	// Let the download establish itself, then kill two busy nodes.
	eco.Clock.RunFor(15 * time.Second)
	killed := []string{}
	for _, n := range eco.Cluster.Nodes() {
		if len(killed) >= 2 {
			break
		}
		if n.Allocated().CPU > 0 {
			eco.Cluster.KillNode(n.Name)
			killed = append(killed, n.Name)
		}
	}
	fmt.Printf("killed nodes mid-download: %v\n", killed)

	// Bring one back later, as a repaired machine rejoining would.
	eco.Clock.After(2*time.Minute, func() {
		eco.Cluster.RestoreNode(killed[0])
		fmt.Printf("restored %s at t=%v\n", killed[0], eco.Clock.Now().Round(time.Second))
	})

	eco.Clock.RunWhile(func() bool { return !run.Workflow.Done() })
	if run.Workflow.Failed() {
		log.Fatal("workflow failed — self-healing broke")
	}

	want := cfg.Archive.TotalBytes(true)
	stored := eco.Storage.BucketSize("connect-data")
	fmt.Printf("workflow completed in %v of cluster time\n", eco.Clock.Now().Round(time.Second))
	fmt.Printf("archive bytes expected %.2f GB, stored %.2f GB (every message exactly once)\n",
		want/1e9, stored/1e9)

	// Show the orchestration events that made it work.
	fmt.Println("\nself-healing events:")
	for _, e := range eco.Cluster.Events() {
		switch e.Kind {
		case "NodeLost", "NodeReady", "JobPodEvicted":
			fmt.Printf("  %8v %-14s %s\n", e.At.Round(time.Second), e.Kind, e.Object)
		}
	}

	// Count respawned pods.
	respawns := 0
	for _, e := range eco.Cluster.Events() {
		if e.Kind == "JobPodEvicted" {
			respawns++
		}
	}
	fmt.Printf("\n%d pods were evicted by node loss and respawned elsewhere\n", respawns)
}
