package cluster

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"chaseci/internal/sim"
)

func TestJobRunsToCompletion(t *testing.T) {
	clk, c := testCluster(3)
	var completedOK *bool
	j, err := c.CreateJob(JobSpec{
		Name: "download", Namespace: "connect",
		Parallelism: 10,
		Template: PodTemplate{
			Requests: Resources{CPU: 3},
			Run:      sleepPod(10 * time.Minute),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	j.OnComplete(func(ok bool) { completedOK = &ok })
	clk.Run()
	if !j.Done() {
		t.Fatal("job not done")
	}
	if j.succeeded != 10 {
		t.Fatalf("succeeded = %d, want 10", j.succeeded)
	}
	if completedOK == nil || !*completedOK {
		t.Fatal("OnComplete not fired with ok=true")
	}
}

func TestJobParallelismRespected(t *testing.T) {
	clk, c := testCluster(10)
	j, _ := c.CreateJob(JobSpec{
		Name: "j", Namespace: "connect",
		Parallelism: 4, Completions: 12,
		Template: PodTemplate{Requests: Resources{CPU: 1}, Run: sleepPod(time.Minute)},
	})
	maxActive := 0
	c.OnPodPhase(func(p *Pod) {
		if len(j.active) > maxActive {
			maxActive = len(j.active)
		}
	})
	clk.Run()
	if maxActive > 4 {
		t.Fatalf("active pods peaked at %d, want <= 4", maxActive)
	}
	if !j.Done() || j.succeeded != 12 {
		t.Fatalf("done=%v succeeded=%d, want true/12", j.Done(), j.succeeded)
	}
}

func TestJobWorkerIndicesDistinct(t *testing.T) {
	clk, c := testCluster(3)
	seen := map[int]bool{}
	c.CreateJob(JobSpec{
		Name: "j", Namespace: "connect", Parallelism: 5,
		Template: PodTemplate{Run: func(ctx *PodCtx) {
			if seen[ctx.Index()] {
				t.Errorf("duplicate worker index %d", ctx.Index())
			}
			seen[ctx.Index()] = true
			ctx.After(time.Second, ctx.Succeed)
		}},
	})
	clk.Run()
	if len(seen) != 5 {
		t.Fatalf("saw %d indices, want 5", len(seen))
	}
}

func TestJobRespawnsAfterNodeLoss(t *testing.T) {
	clk, c := testCluster(3)
	j, _ := c.CreateJob(JobSpec{
		Name: "j", Namespace: "connect", Parallelism: 3,
		Template: PodTemplate{Requests: Resources{CPU: 2}, Run: sleepPod(20 * time.Minute)},
	})
	clk.RunUntil(time.Minute)
	// Kill a node hosting at least one job pod.
	var victim string
	for _, p := range j.Pods() {
		if p.Phase == PodRunning {
			victim = p.Node
			break
		}
	}
	c.KillNode(victim)
	clk.Run()
	if !j.Done() {
		t.Fatalf("job did not complete after node loss (failures=%d)", j.failures)
	}
	if j.failures != 0 {
		t.Fatalf("node loss charged %d failures against backoff, want 0", j.failures)
	}
	if len(j.Pods()) <= 3 {
		t.Fatalf("expected respawned pods, total created = %d", len(j.Pods()))
	}
}

func TestJobBackoffLimit(t *testing.T) {
	clk, c := testCluster(2)
	failed := false
	j, _ := c.CreateJob(JobSpec{
		Name: "crashy", Namespace: "connect",
		Parallelism: 1, BackoffLimit: 2,
		Template: PodTemplate{Run: func(ctx *PodCtx) {
			ctx.After(time.Second, func() { ctx.Fail("CrashLoop") })
		}},
	})
	j.OnComplete(func(ok bool) { failed = !ok })
	clk.Run()
	if !j.failed || !failed {
		t.Fatalf("job failed=%v callback-failed=%v, want true/true", j.failed, failed)
	}
	// BackoffLimit=2 tolerates 2 failures; the 3rd kills it => 3 pods total.
	if got := len(j.Pods()); got != 3 {
		t.Fatalf("created %d pods, want 3", got)
	}
}

func TestJobCompletionsDefaultToParallelism(t *testing.T) {
	clk, c := testCluster(3)
	j, _ := c.CreateJob(JobSpec{
		Name: "j", Namespace: "connect", Parallelism: 7,
		Template: PodTemplate{Run: sleepPod(time.Second)},
	})
	clk.Run()
	if j.succeeded != 7 {
		t.Fatalf("succeeded = %d, want 7", j.succeeded)
	}
}

func TestJobInvalidSpecs(t *testing.T) {
	_, c := testCluster(1)
	if _, err := c.CreateJob(JobSpec{Name: "x", Namespace: "connect",
		Template: PodTemplate{Run: sleepPod(0)}}); err == nil {
		t.Fatal("zero parallelism accepted")
	}
	if _, err := c.CreateJob(JobSpec{Name: "x", Namespace: "connect",
		Parallelism: 1}); err == nil {
		t.Fatal("nil Run accepted")
	}
}

func TestPropertyJobAlwaysCompletesOnHealthyCluster(t *testing.T) {
	// Any job with parallelism/completions within cluster capacity completes
	// with exactly `completions` successes and no failures.
	f := func(seed uint64, parRaw, compRaw uint8) bool {
		par := int(parRaw%8) + 1
		comp := int(compRaw%20) + 1
		clk, c := testCluster(4)
		rng := sim.NewRNG(seed)
		j, err := c.CreateJob(JobSpec{
			Name: "p", Namespace: "connect",
			Parallelism: par, Completions: comp,
			Template: PodTemplate{
				Requests: Resources{CPU: 2},
				Run: func(ctx *PodCtx) {
					d := time.Duration(rng.Intn(1000)+1) * time.Millisecond
					ctx.After(d, ctx.Succeed)
				},
			},
		})
		if err != nil {
			return false
		}
		clk.Run()
		return j.Done() && j.succeeded == comp && j.failures == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyNamespaceQuotaNeverExceeded(t *testing.T) {
	// Under random pod churn, the namespace's in-use requests never exceed
	// its quota.
	f := func(seed uint64, nPodsRaw uint8) bool {
		nPods := int(nPodsRaw%30) + 1
		clk := sim.NewClock()
		c := New(clk, nil)
		quota := Resources{CPU: 10, Memory: GB(50), GPUs: 4}
		c.CreateNamespace("q", &quota)
		for i := 0; i < 3; i++ {
			c.AddNode(fmt.Sprintf("n%d", i), "s", FIONA8Capacity(), nil)
		}
		rng := sim.NewRNG(seed)
		violated := false
		c.OnPodPhase(func(*Pod) {
			if !c.namespaces["q"].used.Fits(quota) {
				violated = true
			}
		})
		for i := 0; i < nPods; i++ {
			c.CreatePod(PodSpec{
				Name: fmt.Sprintf("p%d", i), Namespace: "q",
				Requests: Resources{CPU: float64(rng.Intn(6)), GPUs: rng.Intn(3)},
				Run:      sleepPod(time.Duration(rng.Intn(300)) * time.Second),
			})
		}
		clk.Run()
		return !violated
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
