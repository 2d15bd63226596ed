// Quickstart: boot a simulated CHASE-CI (Nautilus) cluster, authenticate a
// researcher through the CILogon-style federation, create a namespace, run a
// small GPU batch job, and read the monitoring data back — the minimal tour
// of the public API.
package main

import (
	"fmt"
	"log"
	"time"

	"chaseci/internal/cluster"
	"chaseci/internal/core"
)

func main() {
	// 1. Build the ecosystem: nodes, storage, WAN, monitoring, auth.
	eco := core.Nautilus()
	fmt.Printf("cluster up: %d GPUs across %d sites, %.1f PB storage\n",
		eco.TotalGPUs(), eco.Sites(), eco.StorageBytes()/1e15)

	// 2. Authenticate via the identity federation and claim a namespace.
	token, err := eco.Auth.Login("researcher@ucsd.edu")
	if err != nil {
		log.Fatal(err)
	}
	id, err := eco.Auth.Validate(token)
	if err != nil {
		log.Fatal(err)
	}
	ns, err := eco.Cluster.CreateNamespace("quickstart", &cluster.Resources{
		CPU: 16, Memory: cluster.GB(64), GPUs: 8,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("namespace %q created for %s, quota %d GPUs\n", ns.Name, id.User, ns.Quota.GPUs)

	// 3. Submit a batch Job: 4 pods, 2 GPUs each, ~30 virtual minutes.
	job, err := eco.Cluster.CreateJob(cluster.JobSpec{
		Name: "hello-gpu", Namespace: "quickstart",
		Parallelism: 4,
		Template: cluster.PodTemplate{
			Requests: cluster.Resources{CPU: 2, Memory: cluster.GB(8), GPUs: 2},
			Run: func(pc *cluster.PodCtx) {
				fmt.Printf("  pod %d running on %s\n", pc.Index(), pc.NodeName())
				pc.After(30*time.Minute, pc.Succeed)
			},
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	// 4. Drive virtual time to completion.
	eco.Clock.Run()
	fmt.Printf("job done=%v after %v of cluster time\n", job.Done(), eco.Clock.Now())

	// 5. Read monitoring data back, Grafana-style.
	for _, s := range eco.Metrics.Select("k8s_gpus_in_use", nil) {
		peak := 0.0
		for _, smp := range s.Samples {
			if smp.Value > peak {
				peak = smp.Value
			}
		}
		fmt.Printf("peak GPUs in use: %.0f\n", peak)
	}

	// 6. Store a result in the Ceph object store and read it back.
	mount := eco.Storage.MountBucket("quickstart")
	if err := mount.WriteFile("results/summary.txt", []byte("4 pods x 2 GPUs x 30m")); err != nil {
		log.Fatal(err)
	}
	data, err := mount.ReadFile("results/summary.txt")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stored result: %s\n", data)
}
