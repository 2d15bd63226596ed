package cluster

import (
	"testing"
	"time"

	"chaseci/internal/sim"
)

func TestTaintRepelsUntoleratingPods(t *testing.T) {
	clk := sim.NewClock()
	c := New(clk, nil)
	c.CreateNamespace("ns", nil)
	c.AddNode("viz-node", "ucsd", FIONA8Capacity(), nil)
	if err := c.TaintNode("viz-node", Taint{Key: "reserved", Value: "suncave"}); err != nil {
		t.Fatal(err)
	}
	p, _ := c.CreatePod(PodSpec{Name: "plain", Namespace: "ns", Run: sleepPod(time.Second)})
	clk.RunFor(time.Minute)
	if p.Phase != PodPending || p.Reason != "Unschedulable" {
		t.Fatalf("untolerating pod phase=%v reason=%q, want Pending/Unschedulable", p.Phase, p.Reason)
	}
}

func TestTolerationAdmits(t *testing.T) {
	clk := sim.NewClock()
	c := New(clk, nil)
	c.CreateNamespace("ns", nil)
	c.AddNode("viz-node", "ucsd", FIONA8Capacity(), nil)
	c.TaintNode("viz-node", Taint{Key: "reserved", Value: "suncave"})
	p, _ := c.CreatePod(PodSpec{
		Name: "wall", Namespace: "ns",
		Tolerations: map[string]string{"reserved": "suncave"},
		Run:         sleepPod(time.Second),
	})
	clk.Run()
	if p.Phase != PodSucceeded || p.Node != "viz-node" {
		t.Fatalf("tolerating pod phase=%v node=%s", p.Phase, p.Node)
	}
}

func TestTolerateAnyValue(t *testing.T) {
	clk := sim.NewClock()
	c := New(clk, nil)
	c.CreateNamespace("ns", nil)
	c.AddNode("n", "s", FIONA8Capacity(), nil)
	c.TaintNode("n", Taint{Key: "tenant", Value: "groupA"})
	p, _ := c.CreatePod(PodSpec{
		Name: "w", Namespace: "ns",
		Tolerations: map[string]string{"tenant": ""}, // any value
		Run:         sleepPod(time.Second),
	})
	clk.Run()
	if p.Phase != PodSucceeded {
		t.Fatalf("any-value toleration rejected: %v/%s", p.Phase, p.Reason)
	}
}

func TestTolerationValueMismatch(t *testing.T) {
	clk := sim.NewClock()
	c := New(clk, nil)
	c.CreateNamespace("ns", nil)
	c.AddNode("n", "s", FIONA8Capacity(), nil)
	c.TaintNode("n", Taint{Key: "tenant", Value: "groupA"})
	p, _ := c.CreatePod(PodSpec{
		Name: "w", Namespace: "ns",
		Tolerations: map[string]string{"tenant": "groupB"},
		Run:         sleepPod(time.Second),
	})
	clk.RunFor(time.Minute)
	if p.Phase != PodPending {
		t.Fatalf("mismatched toleration admitted: %v", p.Phase)
	}
}

func TestUntaintUnblocksPending(t *testing.T) {
	clk := sim.NewClock()
	c := New(clk, nil)
	c.CreateNamespace("ns", nil)
	c.AddNode("n", "s", FIONA8Capacity(), nil)
	c.TaintNode("n", Taint{Key: "maintenance", Value: "1"})
	p, _ := c.CreatePod(PodSpec{Name: "w", Namespace: "ns", Run: sleepPod(time.Second)})
	clk.RunFor(time.Minute)
	if p.Phase != PodPending {
		t.Fatalf("pod phase = %v before untaint", p.Phase)
	}
	c.UntaintNode("n", "maintenance")
	clk.Run()
	if p.Phase != PodSucceeded {
		t.Fatalf("pod phase = %v after untaint", p.Phase)
	}
}

func TestTaintOverwriteAndList(t *testing.T) {
	clk := sim.NewClock()
	c := New(clk, nil)
	c.AddNode("n", "s", FIONACapacity(), nil)
	c.TaintNode("n", Taint{Key: "k", Value: "v1"})
	c.TaintNode("n", Taint{Key: "k", Value: "v2"})
	taints := c.Node("n").Taints()
	if len(taints) != 1 || taints[0].Value != "v2" {
		t.Fatalf("taints = %v", taints)
	}
	if err := c.TaintNode("ghost", Taint{Key: "k"}); err != ErrNodeUnknown {
		t.Fatalf("taint unknown node err = %v", err)
	}
	if err := c.UntaintNode("ghost", "k"); err != ErrNodeUnknown {
		t.Fatalf("untaint unknown node err = %v", err)
	}
}

func TestRunningPodsSurviveNewTaint(t *testing.T) {
	// NoSchedule semantics: tainting does not evict running pods.
	clk := sim.NewClock()
	c := New(clk, nil)
	c.CreateNamespace("ns", nil)
	c.AddNode("n", "s", FIONA8Capacity(), nil)
	p, _ := c.CreatePod(PodSpec{Name: "w", Namespace: "ns", Run: sleepPod(time.Hour)})
	clk.RunFor(time.Second)
	if p.Phase != PodRunning {
		t.Fatalf("pod phase = %v", p.Phase)
	}
	c.TaintNode("n", Taint{Key: "reserved", Value: "x"})
	clk.Run()
	if p.Phase != PodSucceeded {
		t.Fatalf("running pod was disturbed by taint: %v/%s", p.Phase, p.Reason)
	}
}
