package cluster

import (
	"testing"
	"time"
)

// zero reports whether r is the zero allocation.
func zero(r Resources) bool {
	return r.CPU == 0 && r.Memory == 0 && r.GPUs == 0
}

// TestDoubleDrainReleasesOnce is the regression test for node-loss
// accounting: killing a node twice (or otherwise reaching finishPod through
// overlapping drain paths) must release each pod's resources exactly once.
func TestDoubleDrainReleasesOnce(t *testing.T) {
	clk, c := testCluster(1)
	req := Resources{CPU: 4, Memory: GB(8), GPUs: 2}
	p, err := c.CreatePod(PodSpec{
		Name: "w", Namespace: "connect", Requests: req,
		Run: sleepPod(time.Hour),
	})
	if err != nil {
		t.Fatal(err)
	}
	clk.RunUntil(time.Second) // bind
	n := c.Node("fiona8-00")
	if got := n.Allocated(); got != req {
		t.Fatalf("allocated = %v, want %v", got, req)
	}
	if err := c.KillNode("fiona8-00"); err != nil {
		t.Fatal(err)
	}
	if err := c.KillNode("fiona8-00"); err != nil { // second drain must be a no-op
		t.Fatal(err)
	}
	// Belt and suspenders: drive finishPod at the already-terminal pod again.
	c.finishPod(p, PodFailed, "NodeLost")
	if got := n.Allocated(); !zero(got) {
		t.Fatalf("allocated after double drain = %v, want zero", got)
	}
	if got := c.namespaces["connect"].used; !zero(got) {
		t.Fatalf("namespace used after double drain = %v, want zero", got)
	}
	// Kill → restore → kill must not go negative either.
	if err := c.RestoreNode("fiona8-00"); err != nil {
		t.Fatal(err)
	}
	if err := c.KillNode("fiona8-00"); err != nil {
		t.Fatal(err)
	}
	if got := n.Allocated(); !zero(got) {
		t.Fatalf("allocated after kill/restore/kill = %v, want zero", got)
	}
}

// TestDeletePendingPodNotifiesOwner pins the fix for the controller
// accounting gap: deleting a Pending pod must flow through the terminal
// path so its owner drops it from the active set — a Job charges the
// failure and stamps out a replacement.
func TestDeletePendingPodNotifiesOwner(t *testing.T) {
	clk, c := testCluster(1)
	// Saturate the node so worker pods beyond the first stay Pending.
	whole := FIONA8Capacity()
	j, err := c.CreateJob(JobSpec{
		Name: "train", Namespace: "connect", Parallelism: 3, BackoffLimit: 3,
		Template: PodTemplate{
			Requests: Resources{CPU: whole.CPU, Memory: whole.Memory, GPUs: whole.GPUs},
			Run:      sleepPod(time.Hour),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	clk.RunUntil(time.Second)
	if got := podsInPhase(c, PodPending); got != 2 {
		t.Fatalf("pending pods = %d, want 2", got)
	}
	var pending *Pod
	for _, p := range j.Pods() {
		if p.Phase == PodPending {
			pending = p
			break
		}
	}
	c.DeletePod(pending)
	if got := j.failures; got != 1 {
		t.Fatalf("failures after deleting a pending pod = %d, want 1", got)
	}
	if got := len(j.Pods()); got != 4 {
		t.Fatalf("pods = %d, want 4 (three workers and one replacement)", got)
	}
	if got := podsInPhase(c, PodPending); got != 2 {
		t.Fatalf("pending pods after the delete = %d, want 2 (one left, one replacement)", got)
	}
	if got := len(j.active); got != 3 {
		t.Fatalf("active = %d, want 3", got)
	}
}

func TestClaimLifecycle(t *testing.T) {
	_, c := testCluster(1)
	req := Resources{CPU: 2, Memory: GB(4), GPUs: 1}
	if err := c.Claim("nope", "job-1", req); err != ErrNodeUnknown {
		t.Fatalf("claim on unknown node: err = %v, want ErrNodeUnknown", err)
	}
	if err := c.Claim("fiona8-00", "job-1", req); err != nil {
		t.Fatal(err)
	}
	if err := c.Claim("fiona8-00", "job-1", req); err != ErrDuplicate {
		t.Fatalf("duplicate claim: err = %v, want ErrDuplicate", err)
	}
	if err := c.Claim("fiona8-00", "job-2", Resources{GPUs: 99}); err != ErrInsufficient {
		t.Fatalf("oversized claim: err = %v, want ErrInsufficient", err)
	}
	n := c.Node("fiona8-00")
	if got := n.Allocated(); got != req {
		t.Fatalf("allocated = %v, want %v", got, req)
	}
	if !c.ReleaseClaim("fiona8-00", "job-1") {
		t.Fatal("first release returned false")
	}
	if c.ReleaseClaim("fiona8-00", "job-1") {
		t.Fatal("second release returned true; must be exactly-once")
	}
	if got := n.Allocated(); !zero(got) {
		t.Fatalf("allocated after release = %v, want zero", got)
	}
}

// TestKillNodeDropsClaimsOnce: node loss releases claims exactly once and
// reports their ids in the NodeEvent; a later ReleaseClaim by the claim's
// owner is inert.
func TestKillNodeDropsClaimsOnce(t *testing.T) {
	_, c := testCluster(1)
	req := Resources{CPU: 2, Memory: GB(4), GPUs: 1}
	for _, id := range []string{"job-b", "job-a"} {
		if err := c.Claim("fiona8-00", id, req); err != nil {
			t.Fatal(err)
		}
	}
	var events []NodeEvent
	c.OnNodeEvent(func(ev NodeEvent) { events = append(events, ev) })
	if err := c.KillNode("fiona8-00"); err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Ready {
		t.Fatalf("events = %+v, want one not-ready event", events)
	}
	got := events[0].DroppedClaims
	if len(got) != 2 || got[0] != "job-a" || got[1] != "job-b" {
		t.Fatalf("dropped claims = %v, want [job-a job-b]", got)
	}
	n := c.Node("fiona8-00")
	if got := n.Allocated(); !zero(got) {
		t.Fatalf("allocated after node loss = %v, want zero", got)
	}
	if c.ReleaseClaim("fiona8-00", "job-a") {
		t.Fatal("release after node loss returned true; claim was already dropped")
	}
	if got := n.Allocated(); !zero(got) {
		t.Fatalf("allocated went negative after stale release: %v", got)
	}
	// Claims cannot land on a lost node.
	if err := c.Claim("fiona8-00", "job-c", req); err != ErrNodeNotReady {
		t.Fatalf("claim on lost node: err = %v, want ErrNodeNotReady", err)
	}
	if err := c.RestoreNode("fiona8-00"); err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || !events[1].Ready {
		t.Fatalf("events after restore = %+v, want ready event appended", events)
	}
	if err := c.Claim("fiona8-00", "job-c", req); err != nil {
		t.Fatalf("claim after restore: %v", err)
	}
	if got := c.Claims("fiona8-00"); len(got) != 1 || got[0] != "job-c" {
		t.Fatalf("claims = %v, want [job-c]", got)
	}
}
