package cluster

import (
	"fmt"
	"testing"
	"time"

	"chaseci/internal/metrics"
	"chaseci/internal/sim"
)

// FIONACapacity is the basic Calit2 FIONA build from Section II: dual
// 12-core CPUs, 96 GB RAM, no GPUs.
func FIONACapacity() Resources { return Resources{CPU: 24, Memory: GB(96), GPUs: 0} }

// testCluster builds a cluster with n FIONA8 nodes and a "connect" namespace.
func testCluster(n int) (*sim.Clock, *Cluster) {
	clk := sim.NewClock()
	c := New(clk, nil)
	c.CreateNamespace("connect", nil)
	for i := 0; i < n; i++ {
		c.AddNode(fmt.Sprintf("fiona8-%02d", i), fmt.Sprintf("site-%d", i%3),
			FIONA8Capacity(), map[string]string{"gpu": "1080ti"})
	}
	return clk, c
}

// sleepPod returns a Run func that succeeds after d of virtual time.
func sleepPod(d time.Duration) func(*PodCtx) {
	return func(ctx *PodCtx) {
		ctx.After(d, ctx.Succeed)
	}
}

func TestPodSchedulesAndRuns(t *testing.T) {
	clk, c := testCluster(2)
	p, err := c.CreatePod(PodSpec{
		Name: "w", Namespace: "connect",
		Requests: Resources{CPU: 2, Memory: GB(4)},
		Run:      sleepPod(time.Minute),
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Phase != PodPending {
		t.Fatalf("initial phase = %v, want Pending", p.Phase)
	}
	clk.Run()
	if p.Phase != PodSucceeded {
		t.Fatalf("final phase = %v, want Succeeded", p.Phase)
	}
	if p.Node == "" {
		t.Fatal("pod never bound to a node")
	}
	if p.EndedAt-p.StartedAt != time.Minute {
		t.Fatalf("runtime = %v, want 1m", p.EndedAt-p.StartedAt)
	}
}

func TestPodUnknownNamespace(t *testing.T) {
	_, c := testCluster(1)
	if _, err := c.CreatePod(PodSpec{Name: "x", Namespace: "nope", Run: sleepPod(0)}); err != ErrNamespaceUnknown {
		t.Fatalf("err = %v, want ErrNamespaceUnknown", err)
	}
}

func TestResourceAccounting(t *testing.T) {
	clk, c := testCluster(1)
	req := Resources{CPU: 4, Memory: GB(8), GPUs: 2}
	c.CreatePod(PodSpec{Name: "a", Namespace: "connect", Requests: req, Run: sleepPod(time.Hour)})
	clk.RunUntil(time.Second)
	n := c.Node("fiona8-00")
	if n.Allocated() != req {
		t.Fatalf("allocated = %v, want %v", n.Allocated(), req)
	}
	clk.Run()
	if !n.Allocated().IsZero() {
		t.Fatalf("allocated after completion = %v, want zero", n.Allocated())
	}
}

func TestNodeNeverOversubscribed(t *testing.T) {
	clk, c := testCluster(1) // 24 CPU, 8 GPU
	for i := 0; i < 10; i++ {
		c.CreatePod(PodSpec{
			Name: fmt.Sprintf("p%d", i), Namespace: "connect",
			Requests: Resources{CPU: 10, GPUs: 3},
			Run:      sleepPod(time.Minute),
		})
	}
	over := false
	c.OnPodPhase(func(p *Pod) {
		for _, n := range c.Nodes() {
			a := n.Allocated()
			if a.CPU > n.Capacity.CPU+1e-9 || a.GPUs > n.Capacity.GPUs {
				over = true
			}
		}
	})
	clk.Run()
	if over {
		t.Fatal("node was oversubscribed")
	}
	if got := podsInPhase(c, PodSucceeded); got != 10 {
		t.Fatalf("succeeded = %d, want 10 (queued pods must run as space frees)", got)
	}
}

func TestNodeSelector(t *testing.T) {
	clk := sim.NewClock()
	c := New(clk, nil)
	c.CreateNamespace("ns", nil)
	c.AddNode("cpu-node", "a", FIONACapacity(), map[string]string{"kind": "cpu"})
	c.AddNode("gpu-node", "a", FIONA8Capacity(), map[string]string{"kind": "gpu"})
	p, _ := c.CreatePod(PodSpec{
		Name: "viz", Namespace: "ns",
		NodeSelector: map[string]string{"kind": "gpu"},
		Run:          sleepPod(time.Second),
	})
	clk.Run()
	if p.Node != "gpu-node" {
		t.Fatalf("pod bound to %s, want gpu-node", p.Node)
	}
}

func TestUnschedulablePodWaitsForNode(t *testing.T) {
	clk := sim.NewClock()
	c := New(clk, nil)
	c.CreateNamespace("ns", nil)
	p, _ := c.CreatePod(PodSpec{
		Name: "w", Namespace: "ns",
		Requests: Resources{GPUs: 1},
		Run:      sleepPod(time.Second),
	})
	clk.RunFor(time.Minute)
	if p.Phase != PodPending || p.Reason != "Unschedulable" {
		t.Fatalf("phase=%v reason=%q, want Pending/Unschedulable", p.Phase, p.Reason)
	}
	c.AddNode("late", "a", FIONA8Capacity(), nil)
	clk.Run()
	if p.Phase != PodSucceeded {
		t.Fatalf("phase after node join = %v, want Succeeded", p.Phase)
	}
}

func TestQuotaBlocksThenAdmits(t *testing.T) {
	clk := sim.NewClock()
	c := New(clk, nil)
	quota := Resources{CPU: 4, Memory: GB(100), GPUs: 8}
	c.CreateNamespace("capped", &quota)
	c.AddNode("n", "a", FIONA8Capacity(), nil)
	a, _ := c.CreatePod(PodSpec{Name: "a", Namespace: "capped",
		Requests: Resources{CPU: 3}, Run: sleepPod(time.Minute)})
	b, _ := c.CreatePod(PodSpec{Name: "b", Namespace: "capped",
		Requests: Resources{CPU: 3}, Run: sleepPod(time.Minute)})
	clk.RunUntil(30 * time.Second)
	if a.Phase != PodRunning {
		t.Fatalf("pod a phase = %v, want Running", a.Phase)
	}
	if b.Phase != PodPending || b.Reason != "QuotaExceeded" {
		t.Fatalf("pod b phase=%v reason=%q, want Pending/QuotaExceeded", b.Phase, b.Reason)
	}
	clk.Run()
	if b.Phase != PodSucceeded {
		t.Fatalf("pod b final phase = %v, want Succeeded after quota freed", b.Phase)
	}
}

func TestQuotaIsPerNamespace(t *testing.T) {
	clk := sim.NewClock()
	c := New(clk, nil)
	quota := Resources{CPU: 1, Memory: GB(1)}
	c.CreateNamespace("small", &quota)
	c.CreateNamespace("big", nil)
	c.AddNode("n", "a", FIONA8Capacity(), nil)
	blocked, _ := c.CreatePod(PodSpec{Name: "x", Namespace: "small",
		Requests: Resources{CPU: 8}, Run: sleepPod(time.Second)})
	free, _ := c.CreatePod(PodSpec{Name: "y", Namespace: "big",
		Requests: Resources{CPU: 8}, Run: sleepPod(time.Second)})
	clk.RunFor(time.Minute)
	if blocked.Phase != PodPending {
		t.Fatalf("over-quota pod phase = %v, want Pending", blocked.Phase)
	}
	if free.Phase != PodSucceeded {
		t.Fatalf("other-namespace pod phase = %v, want Succeeded", free.Phase)
	}
}

func TestKillNodeFailsPods(t *testing.T) {
	clk, c := testCluster(1)
	p, _ := c.CreatePod(PodSpec{Name: "w", Namespace: "connect",
		Requests: Resources{CPU: 1}, Run: sleepPod(time.Hour)})
	clk.RunUntil(time.Second)
	if p.Phase != PodRunning {
		t.Fatalf("phase = %v, want Running", p.Phase)
	}
	c.KillNode("fiona8-00")
	if p.Phase != PodFailed || p.Reason != "NodeLost" {
		t.Fatalf("phase=%v reason=%q after node kill", p.Phase, p.Reason)
	}
	// The pod's pending sleep callback must not fire Succeed afterwards.
	clk.Run()
	if p.Phase != PodFailed {
		t.Fatalf("pod phase changed after death: %v", p.Phase)
	}
}

func TestRestoreNodeSchedulesPending(t *testing.T) {
	clk, c := testCluster(1)
	c.KillNode("fiona8-00")
	p, _ := c.CreatePod(PodSpec{Name: "w", Namespace: "connect",
		Requests: Resources{CPU: 1}, Run: sleepPod(time.Second)})
	clk.RunFor(time.Minute)
	if p.Phase != PodPending {
		t.Fatalf("phase = %v, want Pending with no ready nodes", p.Phase)
	}
	c.RestoreNode("fiona8-00")
	clk.Run()
	if p.Phase != PodSucceeded {
		t.Fatalf("phase = %v, want Succeeded after restore", p.Phase)
	}
}

func TestSchedulerSpreadsLoad(t *testing.T) {
	clk, c := testCluster(4)
	counts := map[string]int{}
	var pods []*Pod
	for i := 0; i < 8; i++ {
		p, _ := c.CreatePod(PodSpec{Name: fmt.Sprintf("w%d", i), Namespace: "connect",
			Requests: Resources{CPU: 4, GPUs: 2}, Run: sleepPod(time.Hour)})
		pods = append(pods, p)
	}
	clk.RunUntil(time.Second)
	for _, p := range pods {
		counts[p.Node]++
	}
	for node, n := range counts {
		if n != 2 {
			t.Fatalf("node %s got %d pods, want 2 (even spread): %v", node, n, counts)
		}
	}
}

func TestClusterMetricsPublished(t *testing.T) {
	clk := sim.NewClock()
	reg := metrics.NewRegistry(clk)
	c := New(clk, reg)
	c.CreateNamespace("ns", nil)
	c.AddNode("n", "a", FIONA8Capacity(), nil)
	c.CreatePod(PodSpec{Name: "w", Namespace: "ns",
		Requests: Resources{CPU: 5, GPUs: 3}, Run: sleepPod(time.Minute)})
	last := func(name string) float64 {
		s := reg.Select(name, nil)[0].Samples
		return s[len(s)-1].Value
	}
	clk.RunUntil(time.Second)
	if v := last("k8s_gpus_in_use"); v != 3 {
		t.Fatalf("gpus_in_use = %v, want 3", v)
	}
	if v := last("k8s_cpu_in_use"); v != 5 {
		t.Fatalf("cpu_in_use = %v, want 5", v)
	}
	clk.Run()
	if v := last("k8s_pods_running"); v != 0 {
		t.Fatalf("pods_running at end = %v, want 0", v)
	}
}

func TestEventsLogged(t *testing.T) {
	clk, c := testCluster(1)
	c.CreatePod(PodSpec{Name: "w", Namespace: "connect", Run: sleepPod(time.Second)})
	clk.Run()
	kinds := map[string]bool{}
	for _, e := range c.Events() {
		kinds[e.Kind] = true
	}
	for _, want := range []string{"NodeReady", "PodCreated", "PodScheduled", "PodSucceeded"} {
		if !kinds[want] {
			t.Fatalf("event log missing %s: %v", want, kinds)
		}
	}
}

func TestDuplicateNodeAndNamespace(t *testing.T) {
	_, c := testCluster(1)
	if _, err := c.AddNode("fiona8-00", "x", FIONACapacity(), nil); err != ErrDuplicate {
		t.Fatalf("duplicate node err = %v, want ErrDuplicate", err)
	}
	if _, err := c.CreateNamespace("connect", nil); err != ErrDuplicate {
		t.Fatalf("duplicate namespace err = %v, want ErrDuplicate", err)
	}
}

func TestPodFailPropagates(t *testing.T) {
	clk, c := testCluster(1)
	p, _ := c.CreatePod(PodSpec{Name: "w", Namespace: "connect",
		Run: func(ctx *PodCtx) {
			ctx.After(time.Second, func() { ctx.Fail("OOMKilled") })
		}})
	clk.Run()
	if p.Phase != PodFailed || p.Reason != "OOMKilled" {
		t.Fatalf("phase=%v reason=%q", p.Phase, p.Reason)
	}
}

func TestTotalCapacityTracksReadyNodes(t *testing.T) {
	_, c := testCluster(3)
	want := 3 * 8
	if got := c.TotalCapacity().GPUs; got != want {
		t.Fatalf("GPUs = %d, want %d", got, want)
	}
	c.KillNode("fiona8-01")
	if got := c.TotalCapacity().GPUs; got != 16 {
		t.Fatalf("GPUs after kill = %d, want 16", got)
	}
}

// A scheduling pass runs schedDelay after the first pod becomes pending,
// and pods created while it is pending join that one pass.
func TestSchedulingPassFollowsDelay(t *testing.T) {
	clk, c := testCluster(2)
	clk.RunFor(time.Second)
	create := func(name string) *Pod {
		t.Helper()
		p, err := c.CreatePod(PodSpec{
			Name: name, Namespace: "connect",
			Requests: Resources{CPU: 1, Memory: GB(1)},
			Run:      sleepPod(time.Minute),
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	first := create("first")
	clk.RunFor(50 * time.Millisecond)
	second := create("second")
	clk.RunFor(149 * time.Millisecond)
	if first.Phase != PodPending || second.Phase != PodPending {
		t.Fatalf("phases before the pass = %v, %v; want Pending", first.Phase, second.Phase)
	}
	clk.RunFor(time.Millisecond)
	want := time.Second + schedDelay
	for _, p := range []*Pod{first, second} {
		if p.Phase != PodRunning || p.StartedAt != want {
			t.Fatalf("pod %s: %v at %v, want Running at %v", p.Spec.Name, p.Phase, p.StartedAt, want)
		}
	}
}

// podsInPhase counts the pods of namespace "connect" in a phase.
func podsInPhase(c *Cluster, phase PodPhase) int {
	n := 0
	for _, p := range c.pods {
		if p.Spec.Namespace == "connect" && p.Phase == phase {
			n++
		}
	}
	return n
}
