package sched

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"chaseci/internal/api"
	"chaseci/internal/cluster"
	"chaseci/internal/dataset"
	"chaseci/internal/gpusim"
	"chaseci/internal/netsim"
)

// testFabric builds a 3-site topology with a known replica layout:
// site-a holds nodes a0 (osd-a) and a1, site-b holds b0 (osd-b), site-c
// holds c0 with no storage. Replication factor 2 puts every dataset on
// osd-a and osd-b, so a0 and b0 are the replica-local nodes.
func testFabric(t *testing.T, cfg FabricConfig) *Fabric {
	t.Helper()
	cfg.Replicas = 2
	f := NewFabric(cfg)
	for _, s := range []string{"site-a", "site-b", "site-c"} {
		f.AddSite(s)
	}
	f.AddLink("site-a", "site-b", netsim.Gbps(40), 2*time.Millisecond)
	f.AddLink("site-b", "site-c", netsim.Gbps(10), 3*time.Millisecond)
	f.AddLink("site-a", "site-c", netsim.Gbps(10), 5*time.Millisecond)
	add := func(name, site, osd string) {
		t.Helper()
		err := f.AddNode(NodeSpec{
			Name: name, Site: site, Capacity: cluster.FIONA8Capacity(),
			Model: gpusim.Powered1080Ti(), OSD: osd,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	add("a0", "site-a", "osd-a")
	add("a1", "site-a", "")
	add("b0", "site-b", "osd-b")
	add("c0", "site-c", "")
	return f
}

func putVolume(t *testing.T, f *Fabric, fill float32) string {
	t.Helper()
	data := make([]float32, 4*4*4)
	for i := range data {
		data[i] = fill
	}
	enc, err := dataset.EncodeVolume(4, 4, 4, data)
	if err != nil {
		t.Fatal(err)
	}
	info, err := f.Datasets.Put(enc, "tester")
	if err != nil {
		t.Fatal(err)
	}
	return info.ID
}

func segJob(id, ref string) *Workload {
	w := &Workload{JobID: id, Kind: api.KindSegment, Owner: "tester", Voxels: 64}
	if ref != "" {
		w.Refs = []string{ref}
	}
	return w
}

func TestPlacementPrefersReplicaLocal(t *testing.T) {
	f := testFabric(t, FabricConfig{})
	s := New(f)
	ref := putVolume(t, f, 1)

	pl, err := s.Place(segJob("j1", ref))
	if err != nil || pl == nil {
		t.Fatalf("Place: pl=%v err=%v", pl, err)
	}
	if pl.Node != "a0" || pl.Locality != api.LocalityReplicaLocal {
		t.Fatalf("want a0/replica-local, got %s/%s", pl.Node, pl.Locality)
	}
	if pl.TransferMS != 0 || pl.Score != 0 {
		t.Fatalf("replica-local placement should be free, got transfer=%v score=%v", pl.TransferMS, pl.Score)
	}
	if pl.EstJoules <= 0 {
		t.Fatalf("segment on a powered GPU should have an energy estimate, got %v", pl.EstJoules)
	}
	// Second identical job: a0 now carries load, so the other replica holder
	// b0 wins on the load tiebreak at equal (zero) cost.
	pl2, err := s.Place(segJob("j2", ref))
	if err != nil || pl2 == nil {
		t.Fatalf("Place j2: %v %v", pl2, err)
	}
	if pl2.Node != "b0" || pl2.Locality != api.LocalityReplicaLocal {
		t.Fatalf("want b0/replica-local, got %s/%s", pl2.Node, pl2.Locality)
	}
}

func TestPlacementDeterministic(t *testing.T) {
	f := testFabric(t, FabricConfig{})
	s := New(f)
	ref := putVolume(t, f, 2)
	var first *api.Placement
	for i := 0; i < 25; i++ {
		pl, err := s.Place(segJob("job", ref))
		if err != nil || pl == nil {
			t.Fatalf("iter %d: pl=%v err=%v", i, pl, err)
		}
		if first == nil {
			first = pl
		} else if *pl != *first {
			t.Fatalf("iter %d: placement drifted: %+v vs %+v", i, *pl, *first)
		}
		s.Release("job")
	}
}

func TestLocalityDegradesUnderLoad(t *testing.T) {
	f := testFabric(t, FabricConfig{})
	s := New(f)
	ref := putVolume(t, f, 3)
	whole := cluster.FIONA8Capacity()

	// Saturate both replica-local nodes: next job must fall back to a1
	// (same site as the osd-a replica).
	for _, n := range []string{"a0", "b0"} {
		if err := f.Cluster.Claim(n, "block-"+n, whole); err != nil {
			t.Fatal(err)
		}
	}
	pl, err := s.Place(segJob("j-site", ref))
	if err != nil || pl == nil {
		t.Fatalf("Place: %v %v", pl, err)
	}
	if pl.Node != "a1" || pl.Locality != api.LocalitySameSite {
		t.Fatalf("want a1/same-site, got %s/%s", pl.Node, pl.Locality)
	}
	if pl.TransferMS <= 0 {
		t.Fatal("same-site staging should cost LAN time")
	}

	// Saturate a1 too: only c0 remains, and it must pay the WAN.
	if err := f.Cluster.Claim("a1", "block-a1", whole.Sub(RequestFor(api.KindSegment, 64))); err != nil {
		t.Fatal(err)
	}
	pl2, err := s.Place(segJob("j-remote", ref))
	if err != nil || pl2 == nil {
		t.Fatalf("Place remote: %v %v", pl2, err)
	}
	if pl2.Node != "c0" || pl2.Locality != api.LocalityRemote {
		t.Fatalf("want c0/remote, got %s/%s", pl2.Node, pl2.Locality)
	}
	if pl2.TransferMS < 3 {
		t.Fatalf("remote staging should include WAN latency, got %vms", pl2.TransferMS)
	}
}

func TestPinToUnknownNodeUnschedulable(t *testing.T) {
	s := New(testFabric(t, FabricConfig{}))
	// A pin to a node that doesn't exist is statically impossible.
	w3 := segJob("j3", "")
	w3.Spec = &api.PlacementSpec{Node: "nope"}
	if _, err := s.Place(w3); !errors.Is(err, ErrUnschedulable) {
		t.Fatalf("bad pin should be unschedulable, got %v", err)
	}
}

// A site restriction wins over data gravity, and a site with no node is
// statically impossible.
func TestSitePinPlacesWithinTheSite(t *testing.T) {
	f := testFabric(t, FabricConfig{})
	s := New(f)
	w := segJob("j1", putVolume(t, f, 1))
	w.Spec = &api.PlacementSpec{Site: "site-c"}
	if pl, err := s.Place(w); err != nil || pl == nil || pl.Node != "c0" || pl.Site != "site-c" {
		t.Fatalf("site-c job: placement %+v, err %v; want c0 at site-c", pl, err)
	}
	w2 := segJob("j2", "")
	w2.Spec = &api.PlacementSpec{Site: "site-z"}
	if _, err := s.Place(w2); !errors.Is(err, ErrUnschedulable) {
		t.Fatalf("a site with no node should be unschedulable, got %v", err)
	}
}

func TestOwnerQuota(t *testing.T) {
	f := testFabric(t, FabricConfig{
		OwnerQuota: &cluster.Resources{CPU: 4, Memory: cluster.GB(8), GPUs: 1},
	})
	s := New(f)
	if pl, err := s.Place(segJob("j1", "")); err != nil || pl == nil {
		t.Fatalf("first job within quota should place: %v %v", pl, err)
	}
	if _, err := s.Place(segJob("j2", "")); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("second GPU job should bust the 1-GPU quota, got %v", err)
	}
	other := segJob("j3", "")
	other.Owner = "someone-else"
	if pl, err := s.Place(other); err != nil || pl == nil {
		t.Fatalf("quota is per-owner; other owner should place: %v %v", pl, err)
	}
	// Releasing frees the quota.
	s.Release("j1")
	if pl, err := s.Place(segJob("j4", "")); err != nil || pl == nil {
		t.Fatalf("after release, owner should place again: %v %v", pl, err)
	}
}

func TestParkAndBindOnRelease(t *testing.T) {
	f := NewFabric(FabricConfig{Replicas: 1})
	f.AddSite("s")
	if err := f.AddNode(NodeSpec{
		Name: "only", Site: "s", Capacity: cluster.FIONA8Capacity(),
		Model: gpusim.Powered1080Ti(), OSD: "osd-0",
	}); err != nil {
		t.Fatal(err)
	}
	s := New(f)
	var boundID string
	var boundPl *api.Placement
	s.OnBind(func(id string, pl *api.Placement) { boundID, boundPl = id, pl })

	whole := segJob("big", "")
	whole.Req = cluster.FIONA8Capacity()
	if pl, err := s.Place(whole); err != nil || pl == nil {
		t.Fatalf("big job should place: %v %v", pl, err)
	}
	pl, err := s.Place(segJob("waiter", ""))
	if err != nil || pl != nil {
		t.Fatalf("full node: want parked (nil, nil), got %v %v", pl, err)
	}
	if boundID != "" {
		t.Fatal("bind fired early")
	}
	s.Release("big")
	if boundID != "waiter" || boundPl == nil || boundPl.Node != "only" {
		t.Fatalf("parked job should bind on release: id=%q pl=%+v", boundID, boundPl)
	}
}

// TestReleaseOfUnseenIDRunsNoPlacement: releasing an id the scheduler never
// bound or parked (a sweep's lane child ends so) frees nothing, so it only
// drops the id's requeue count. The test frees the node behind the
// scheduler's back, so a placement pass would bind the parked job: it must
// stay parked until a release that frees something.
func TestReleaseOfUnseenIDRunsNoPlacement(t *testing.T) {
	f := NewFabric(FabricConfig{Replicas: 1})
	f.AddSite("s")
	if err := f.AddNode(NodeSpec{
		Name: "only", Site: "s", Capacity: cluster.FIONA8Capacity(),
		Model: gpusim.Powered1080Ti(), OSD: "osd-0",
	}); err != nil {
		t.Fatal(err)
	}
	s := New(f)
	binds := 0
	s.OnBind(func(string, *api.Placement) { binds++ })
	whole := segJob("big", "")
	whole.Req = cluster.FIONA8Capacity()
	if pl, err := s.Place(whole); err != nil || pl == nil {
		t.Fatalf("big job should place: %v %v", pl, err)
	}
	if pl, err := s.Place(segJob("waiter", "")); err != nil || pl != nil {
		t.Fatalf("full node: want parked (nil, nil), got %v %v", pl, err)
	}
	f.Cluster.ReleaseClaim("only", "big")
	s.requeues["child"] = 2

	s.Release("child")
	if binds != 0 || len(s.parked) != 1 || s.BoundNode("waiter") != "" {
		t.Fatalf("release of an unseen id ran a placement pass: %d binds, %d parked", binds, len(s.parked))
	}
	if n := s.Requeues("child"); n != 0 {
		t.Fatalf("requeue count after release = %d, want 0", n)
	}
	s.Release("big")
	if binds != 1 || s.BoundNode("waiter") != "only" {
		t.Fatalf("a release that frees the node should bind the parked job: %d binds, bound to %q", binds, s.BoundNode("waiter"))
	}
}

func TestKillNodeDrainsAndRequeuesReplicaLocal(t *testing.T) {
	f := testFabric(t, FabricConfig{})
	s := New(f)
	ref := putVolume(t, f, 4)

	var drainedNode string
	var drainedIDs []string
	s.OnDrain(func(node string, ids []string) { drainedNode, drainedIDs = node, ids })

	pl, err := s.Place(segJob("j1", ref))
	if err != nil || pl == nil || pl.Node != "a0" {
		t.Fatalf("setup: %v %v", pl, err)
	}
	if err := s.KillNode("a0"); err != nil {
		t.Fatal(err)
	}
	if drainedNode != "a0" || len(drainedIDs) != 1 || drainedIDs[0] != "j1" {
		t.Fatalf("drain callback: node=%q ids=%v", drainedNode, drainedIDs)
	}
	if got := s.Requeues("j1"); got != 1 {
		t.Fatalf("requeues = %d, want 1", got)
	}
	// Re-place, as the service layer would: osd-a is down, so the surviving
	// replica holder b0 must win — and still as replica-local, because the
	// objstore remapped placement to survivors.
	pl2, err := s.Place(segJob("j1", ref))
	if err != nil || pl2 == nil {
		t.Fatalf("re-place: %v %v", pl2, err)
	}
	if pl2.Node != "b0" || pl2.Locality != api.LocalityReplicaLocal {
		t.Fatalf("want b0/replica-local after failover, got %s/%s", pl2.Node, pl2.Locality)
	}
	if pl2.Requeues != 1 {
		t.Fatalf("placement should carry the requeue count, got %d", pl2.Requeues)
	}

	// Restore: a0 is schedulable again and its OSD rejoins placement.
	var restored string
	s.OnRestore(func(node string) { restored = node })
	if err := s.RestoreNode("a0"); err != nil {
		t.Fatal(err)
	}
	if restored != "a0" {
		t.Fatalf("restore callback got %q", restored)
	}
	for _, st := range s.Nodes() {
		if st.Name == "a0" && (!st.Ready || !st.OSDUp) {
			t.Fatalf("a0 should be ready with OSD up: %+v", st)
		}
	}
}

// twoSiteFabric is the fabric the allocation pins below score against: two
// sites, one node with an OSD at each, and one volume replicated on both.
func twoSiteFabric(t *testing.T) (*Fabric, string) {
	t.Helper()
	f := NewFabric(FabricConfig{Replicas: 2})
	f.AddSite("ucsd")
	f.AddSite("sdsu")
	f.AddLink("ucsd", "sdsu", netsim.Gbps(40), 2*time.Millisecond)
	for i, site := range []string{"ucsd", "sdsu"} {
		err := f.AddNode(NodeSpec{
			Name: fmt.Sprintf("fiona-%d", i), Site: site, Capacity: cluster.FIONA8Capacity(),
			Model: gpusim.Powered1080Ti(), OSD: "osd-" + site,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return f, putVolume(t, f, 1)
}

// TestPlaceAndRequeueAllocBounds pins what one scheduling decision costs:
// a data-gravity placement of a 64^3 ref-mode segment job (resolve replicas,
// score both nodes, claim, release) measured 5 allocations, and a full
// node-loss cycle (kill the bound node and its OSD, re-place on the surviving
// replica holder, restore) measured 21 (22 under -race). They were 10 and 25
// (26) while each pass allocated its filter and ref lists and each better
// candidate, and the cycle was 1,556 (1,744) before that. Each bound is
// about twice its measurement. Every decision must stay replica-local and a
// requeue must never land on the dead node.
func TestPlaceAndRequeueAllocBounds(t *testing.T) {
	job := func(ref string) *Workload {
		return &Workload{JobID: "pin", Kind: api.KindSegment, Owner: "pin", Refs: []string{ref}, Voxels: 64 * 64 * 64}
	}
	t.Run("place", func(t *testing.T) {
		f, ref := twoSiteFabric(t)
		s, w := New(f), job(ref)
		allocs := testing.AllocsPerRun(100, func() {
			pl, err := s.Place(w)
			if err != nil || pl == nil {
				t.Fatalf("place: %v %v", pl, err)
			}
			if pl.Locality != api.LocalityReplicaLocal {
				t.Fatalf("placed %s on %s, want replica-local", pl.Locality, pl.Node)
			}
			s.Release(w.JobID)
		})
		t.Logf("Place+Release: %.0f allocs", allocs)
		const bound = 10
		if allocs > bound {
			t.Fatalf("Place+Release allocates %.0f objects, want <= %d", allocs, bound)
		}
	})
	t.Run("requeue", func(t *testing.T) {
		f, ref := twoSiteFabric(t)
		s, w := New(f), job(ref)
		s.OnDrain(func(string, []string) {}) // the service layer's requeue is the Place below
		pl, err := s.Place(w)
		if err != nil || pl == nil {
			t.Fatalf("place: %v %v", pl, err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			victim := pl.Node
			if err := s.KillNode(victim); err != nil {
				t.Fatal(err)
			}
			pl, err = s.Place(w)
			if err != nil || pl == nil {
				t.Fatalf("requeue place: %v %v", pl, err)
			}
			if pl.Node == victim || pl.Locality != api.LocalityReplicaLocal {
				t.Fatalf("requeued %s onto %s after killing %s", pl.Locality, pl.Node, victim)
			}
			if err := s.RestoreNode(victim); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("kill + re-place + restore: %.0f allocs", allocs)
		const bound = 45
		if allocs > bound {
			t.Fatalf("kill + re-place + restore allocates %.0f objects, want <= %d", allocs, bound)
		}
	})
}

func TestNodesInventoryAndMetrics(t *testing.T) {
	f := testFabric(t, FabricConfig{})
	s := New(f)
	ref := putVolume(t, f, 5)
	if _, err := s.Place(segJob("j1", ref)); err != nil {
		t.Fatal(err)
	}
	var a0 *api.NodeStatus
	for _, st := range s.Nodes() {
		if st.Name == "a0" {
			cp := st
			a0 = &cp
		}
	}
	if a0 == nil {
		t.Fatal("a0 missing from inventory")
	}
	if a0.BoundJobs != 1 || a0.AllocGPUs != 1 || a0.OSD != "osd-a" || !a0.OSDUp {
		t.Fatalf("a0 inventory wrong: %+v", *a0)
	}
	text := s.MetricsText()
	for _, want := range []string{
		`sched_placements{locality="replica-local"} 1`,
		`sched_jobs_bound{node="a0"} 1`,
		`sched_node_alloc_gpus{node="a0"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestMetricsTextFollowsState pins MetricsText's layout against the
// scheduler's state: an idle fabric prints only its nodes' four lines, all
// zero and in node order; the placement counters appear once non-zero, in
// locality order whatever order the jobs came in; and a node kill adds the
// requeue counter and zeroes the dead node's lines.
func TestMetricsTextFollowsState(t *testing.T) {
	f := testFabric(t, FabricConfig{})
	s := New(f)
	nodeLines := func(name string, cpu, mem, gpus float64, bound int) string {
		return fmt.Sprintf("sched_node_alloc_cpu{node=%q} %g\n"+
			"sched_node_alloc_mem_bytes{node=%q} %g\n"+
			"sched_node_alloc_gpus{node=%q} %g\n"+
			"sched_jobs_bound{node=%q} %d\n", name, cpu, name, mem, name, gpus, name, bound)
	}
	fromNodes := func() string {
		var b strings.Builder
		for _, n := range s.Nodes() {
			b.WriteString(nodeLines(n.Name, float64(n.AllocCPU), float64(n.AllocMemoryBytes), float64(n.AllocGPUs), n.BoundJobs))
		}
		return b.String()
	}

	idle := nodeLines("a0", 0, 0, 0, 0) + nodeLines("a1", 0, 0, 0, 0) + nodeLines("b0", 0, 0, 0, 0) + nodeLines("c0", 0, 0, 0, 0)
	if got := s.MetricsText(); got != idle {
		t.Fatalf("idle fabric:\n%s\nwant:\n%s", got, idle)
	}

	ref := putVolume(t, f, 7)
	if pl, err := s.Place(segJob("anywhere", "")); err != nil || pl == nil || pl.Locality != api.LocalityAny {
		t.Fatalf("ref-less job: %+v %v", pl, err)
	}
	pl, err := s.Place(segJob("local", ref))
	if err != nil || pl == nil || pl.Locality != api.LocalityReplicaLocal {
		t.Fatalf("ref job: %+v %v", pl, err)
	}
	placed := `sched_placements{locality="replica-local"} 1` + "\n" + `sched_placements{locality="any"} 1` + "\n"
	if got, want := s.MetricsText(), placed+fromNodes(); got != want {
		t.Fatalf("after two placements:\n%s\nwant:\n%s", got, want)
	}

	victim := pl.Node
	if err := s.KillNode(victim); err != nil {
		t.Fatal(err)
	}
	got := s.MetricsText()
	if want := placed + "sched_requeues{} 1\n" + fromNodes(); got != want {
		t.Fatalf("after killing %s:\n%s\nwant:\n%s", victim, got, want)
	}
	if !strings.Contains(got, nodeLines(victim, 0, 0, 0, 0)) {
		t.Fatalf("killed node %s still has allocation lines:\n%s", victim, got)
	}
}

func TestFailOSDNoReplicasTerminal(t *testing.T) {
	f := testFabric(t, FabricConfig{})
	s := New(f)
	ref := putVolume(t, f, 6)

	// Both replica holders die: placement must fail fast with ErrNoReplicas
	// (data loss), not park the job forever.
	if err := s.FailOSD("osd-a"); err != nil {
		t.Fatal(err)
	}
	if err := s.FailOSD("osd-b"); err != nil {
		t.Fatal(err)
	}
	pl, err := s.Place(segJob("j1", ref))
	if !errors.Is(err, ErrNoReplicas) {
		t.Fatalf("want ErrNoReplicas, got pl=%v err=%v", pl, err)
	}
	if !strings.Contains(err.Error(), ref) {
		t.Fatalf("error should name the ref: %v", err)
	}

	// One replica comes back: the job places replica-local on the survivor.
	if err := s.RecoverOSD("osd-b"); err != nil {
		t.Fatal(err)
	}
	pl, err = s.Place(segJob("j1", ref))
	if err != nil || pl == nil || pl.Node != "b0" || pl.Locality != api.LocalityReplicaLocal {
		t.Fatalf("after recover want b0/replica-local, got pl=%+v err=%v", pl, err)
	}
}

func TestPartitionParksAndHealBinds(t *testing.T) {
	f := testFabric(t, FabricConfig{})
	s := New(f)
	ref := putVolume(t, f, 7)

	// Saturate every node that holds or can reach data locally, so the only
	// free capacity is c0 — which needs the WAN to stage the ref.
	for _, n := range []string{"a0", "a1", "b0"} {
		w := segJob("fill-"+n, "")
		w.Req = cluster.FIONA8Capacity()
		pl, err := s.Place(w)
		if err != nil || pl == nil {
			t.Fatalf("fill %s: %v %v", n, pl, err)
		}
	}

	cut := s.PartitionSite("site-c")
	if len(cut) != 2 {
		t.Fatalf("site-c touches 2 links, cut %v", cut)
	}
	var boundID string
	s.OnBind(func(id string, pl *api.Placement) { boundID = id })
	pl, err := s.Place(segJob("j1", ref))
	if err != nil || pl != nil {
		t.Fatalf("partitioned: want parked (nil, nil), got %v %v", pl, err)
	}

	// Heal: the parked job binds onto c0 across the restored WAN.
	s.HealSite("site-c")
	if boundID != "j1" {
		t.Fatalf("heal should bind parked job, bound=%q", boundID)
	}
}

func TestRunTransferTraceAndStall(t *testing.T) {
	f := testFabric(t, FabricConfig{})
	s := New(f)

	// 40 Gbps a<->b link collapses to 1/100th for 2s mid-transfer.
	cap, collapsed := netsim.Gbps(40), netsim.Gbps(40)/100
	err := s.ApplyLinkTrace("site-a", "site-b", []netsim.TracePoint{
		{At: 1 * time.Second, Change: netsim.LinkChange{Capacity: &collapsed}},
		{At: 3 * time.Second, Change: netsim.LinkChange{Capacity: &cap}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// 2s of full rate, of which 2s ran at 1% — the collapse stretches the
	// transfer by ~1.98s beyond the undisturbed 2s.
	rep, err := s.RunTransfer("site-a", "site-b", 2*cap)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stalled || rep.Transferred != 2*cap {
		t.Fatalf("transfer should complete: %+v", rep)
	}
	want := 3982 * time.Millisecond // 1s full + 2s at 1% + 0.98s full + 2ms path latency
	if rep.Elapsed < want-time.Millisecond || rep.Elapsed > want+time.Millisecond {
		t.Fatalf("elapsed = %v, want ~%v", rep.Elapsed, want)
	}

	// A link that dies with no heal scheduled stalls the flow; RunTransfer
	// reports partial progress instead of spinning.
	if err := s.SetLink("site-a", "site-b", netsim.LinkDown(true)); err != nil {
		t.Fatal(err)
	}
	if err := s.SetLink("site-a", "site-c", netsim.LinkDown(true)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunTransfer("site-a", "site-b", cap); err == nil {
		t.Fatal("no path: want error")
	}
}
