package netsim

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"chaseci/internal/metrics"
	"chaseci/internal/sim"
)

// CapacityBps returns a LinkChange setting only the capacity.
func CapacityBps(bps float64) LinkChange { return LinkChange{Capacity: &bps} }

// LossFrac returns a LinkChange setting only the loss fraction.
func LossFrac(f float64) LinkChange { return LinkChange{Loss: &f} }

func twoSiteNet(capacity float64) (*sim.Clock, *Network) {
	c := sim.NewClock()
	n := NewNetwork(c, nil)
	n.AddSite("ucsd")
	n.AddSite("sdsc")
	n.AddLink("ucsd", "sdsc", capacity, 0)
	return c, n
}

func TestSingleFlowUsesFullLink(t *testing.T) {
	c, n := twoSiteNet(100) // 100 B/s
	done := false
	n.Transfer("ucsd", "sdsc", 1000, func() { done = true })
	c.Run()
	if !done {
		t.Fatal("flow never completed")
	}
	if got, want := c.Now(), 10*time.Second; !near(got, want) {
		t.Fatalf("completion at %v, want ~%v", got, want)
	}
}

func TestTwoFlowsShareLinkEqually(t *testing.T) {
	c, n := twoSiteNet(100)
	var done int
	f1 := n.Transfer("ucsd", "sdsc", 1000, func() { done++ })
	f2 := n.Transfer("ucsd", "sdsc", 1000, func() { done++ })
	if f1.rate != 50 || f2.rate != 50 {
		t.Fatalf("rates = %v, %v, want 50, 50", f1.rate, f2.rate)
	}
	c.Run()
	if done != 2 {
		t.Fatalf("done = %d, want 2", done)
	}
	if got, want := c.Now(), 20*time.Second; !near(got, want) {
		t.Fatalf("completion at %v, want ~%v", got, want)
	}
}

// Flows that start together on one route and drain at the same instant
// complete in the order they were started, every time: the engine's flow
// set is a map, so the order must come from the flows themselves.
func TestEqualFlowsCompleteInStartOrder(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		c, n := twoSiteNet(100)
		var order []int
		for i := 0; i < 8; i++ {
			n.Transfer("ucsd", "sdsc", 1000, func() { order = append(order, i) })
		}
		c.Run()
		for i, got := range order {
			if got != i {
				t.Fatalf("trial %d: completion order %v, want start order", trial, order)
			}
		}
		if len(order) != 8 {
			t.Fatalf("trial %d: %d of 8 flows completed", trial, len(order))
		}
	}
}

func TestShortFlowFinishesThenLongSpeedsUp(t *testing.T) {
	c, n := twoSiteNet(100)
	var shortAt, longAt time.Duration
	n.Transfer("ucsd", "sdsc", 500, func() { shortAt = c.Now() })
	n.Transfer("ucsd", "sdsc", 1500, func() { longAt = c.Now() })
	c.Run()
	// Both at 50 B/s until short finishes at t=10; long then has 1000 bytes
	// left at 100 B/s, finishing at t=20.
	if !near(shortAt, 10*time.Second) {
		t.Fatalf("short finished at %v, want ~10s", shortAt)
	}
	if !near(longAt, 20*time.Second) {
		t.Fatalf("long finished at %v, want ~20s", longAt)
	}
}

func TestLatencyDelaysStart(t *testing.T) {
	c := sim.NewClock()
	n := NewNetwork(c, nil)
	n.AddSite("a")
	n.AddSite("b")
	n.AddLink("a", "b", 100, 2*time.Second)
	var doneAt time.Duration
	n.Transfer("a", "b", 100, func() { doneAt = c.Now() })
	c.Run()
	if !near(doneAt, 3*time.Second) { // 2s latency + 1s transfer
		t.Fatalf("done at %v, want ~3s", doneAt)
	}
}

func TestMultiHopBottleneck(t *testing.T) {
	c := sim.NewClock()
	n := NewNetwork(c, nil)
	for _, s := range []string{"a", "b", "c"} {
		n.AddSite(s)
	}
	n.AddLink("a", "b", 1000, 0)
	n.AddLink("b", "c", 10, 0) // bottleneck
	f := n.Transfer("a", "c", 100, nil)
	if f.rate != 10 {
		t.Fatalf("rate = %v, want bottleneck 10", f.rate)
	}
	c.Run()
	if !near(c.Now(), 10*time.Second) {
		t.Fatalf("completed at %v, want ~10s", c.Now())
	}
}

func TestMaxMinUnevenPaths(t *testing.T) {
	// Classic max-min example: flows A->C and B->C share link X->C (cap 100);
	// flow A->X alone on link A->X (cap 30). The A->C flow is limited to 30 by
	// its first hop, so B->C should get the leftover 70, not 50.
	c := sim.NewClock()
	n := NewNetwork(c, nil)
	for _, s := range []string{"a", "x", "cst"} {
		n.AddSite(s)
	}
	n.AddLink("a", "x", 30, 0)
	n.AddLink("x", "cst", 100, 0)
	fa := n.Transfer("a", "cst", 1e6, nil)
	fb := n.Transfer("x", "cst", 1e6, nil)
	if fa.rate != 30 {
		t.Fatalf("constrained flow rate = %v, want 30", fa.rate)
	}
	if fb.rate != 70 {
		t.Fatalf("unconstrained flow rate = %v, want 70 (max-min), got equal-split instead?", fb.rate)
	}
}

func TestForegroundFlowGetsItsFairShare(t *testing.T) {
	// Four background tenant flows fill a link; a foreground flow joining
	// them gets 1/5 of its capacity.
	_, n := twoSiteNet(1000)
	var bg []*Flow
	for i := 0; i < 4; i++ {
		bg = append(bg, n.Transfer("ucsd", "sdsc", 1e9, nil))
	}
	sum := 0.0
	for _, f := range bg {
		sum += f.rate
	}
	if sum < 999 || sum > 1001 {
		t.Fatalf("background aggregate rate = %v, want ~1000", sum)
	}
	if r := n.Transfer("ucsd", "sdsc", 1e6, nil).rate; r < 190 || r > 210 {
		t.Fatalf("foreground rate = %v, want ~200 (1/5 of 1000)", r)
	}
}

func TestScienceDMZOverprovisioning(t *testing.T) {
	// The paper's Science DMZ claim: overprovisioned research links keep a
	// science flow fast despite background tenants elsewhere. Background on
	// a fat link (100 Gbps) must not slow a flow crossing a separate thin
	// bottleneck (1 Gbps).
	clk := sim.NewClock()
	n := NewNetwork(clk, nil)
	for _, s := range []string{"dtn", "core", "lab"} {
		n.AddSite(s)
	}
	n.AddLink("dtn", "core", Gbps(1), 0)   // science source bottleneck
	n.AddLink("core", "lab", Gbps(100), 0) // fat backbone to the lab
	for i := 0; i < 20; i++ {
		n.Transfer("core", "lab", 1e12, nil) // heavy tenant load on backbone
	}
	var doneAt time.Duration
	n.Transfer("dtn", "lab", 125e9, func() { doneAt = clk.Now() }) // 125 GB at 1 Gbps = 1000s
	clk.RunWhile(func() bool { return doneAt == 0 })
	// With no contention the flow takes 1000s; background on the fat link
	// must cost < 3%.
	if doneAt > 1030*time.Second {
		t.Fatalf("science flow took %v under background load, want ~1000s", doneAt)
	}
}

func TestCancelFreesBandwidth(t *testing.T) {
	c, n := twoSiteNet(100)
	f1 := n.Transfer("ucsd", "sdsc", 1e6, nil)
	f2 := n.Transfer("ucsd", "sdsc", 1000, nil)
	if f2.rate != 50 {
		t.Fatalf("pre-cancel rate = %v, want 50", f2.rate)
	}
	f1.Cancel()
	if f2.rate != 100 {
		t.Fatalf("post-cancel rate = %v, want 100", f2.rate)
	}
	c.Run()
	if f1.done {
		t.Fatal("cancelled flow reported done")
	}
	if !f2.done {
		t.Fatal("surviving flow did not complete")
	}
}

func TestCancelledCallbackNeverFires(t *testing.T) {
	c, n := twoSiteNet(100)
	fired := false
	f := n.Transfer("ucsd", "sdsc", 100, func() { fired = true })
	f.Cancel()
	c.Run()
	if fired {
		t.Fatal("cancelled flow's callback fired")
	}
}

func TestSameSiteTransfer(t *testing.T) {
	c, n := twoSiteNet(100)
	done := false
	n.Transfer("ucsd", "ucsd", 1e9, func() { done = true })
	c.Run()
	if !done {
		t.Fatal("local transfer did not complete")
	}
	if c.Now() > time.Second {
		t.Fatalf("local transfer took %v, want well under 1s", c.Now())
	}
}

func TestNoPathPanics(t *testing.T) {
	c := sim.NewClock()
	n := NewNetwork(c, nil)
	n.AddSite("a")
	n.AddSite("b") // no link
	defer func() {
		if recover() == nil {
			t.Fatal("Transfer with no path did not panic")
		}
	}()
	n.Transfer("a", "b", 1, nil)
}

func TestZeroByteTransferCompletes(t *testing.T) {
	c, n := twoSiteNet(100)
	done := false
	n.Transfer("ucsd", "sdsc", 0, func() { done = true })
	c.Run()
	if !done {
		t.Fatal("zero-byte flow never completed")
	}
}

func TestPathShortestHops(t *testing.T) {
	c := sim.NewClock()
	n := NewNetwork(c, nil)
	for _, s := range []string{"a", "b", "c", "d"} {
		n.AddSite(s)
	}
	n.AddLink("a", "b", 1, 0)
	n.AddLink("b", "c", 1, 0)
	n.AddLink("c", "d", 1, 0)
	n.AddLink("a", "d", 1, 0) // direct
	p := n.Path("a", "d")
	if len(p) != 1 {
		t.Fatalf("path has %d hops, want 1 (direct link)", len(p))
	}
}

func TestLinkUtilizationMetrics(t *testing.T) {
	c := sim.NewClock()
	reg := metrics.NewRegistry(c)
	n := NewNetwork(c, reg)
	n.AddSite("a")
	n.AddSite("b")
	n.AddLink("a", "b", 100, 0)
	n.Transfer("a", "b", 1000, nil)
	ss := reg.Select("net_link_bytes_per_sec", nil)
	if len(ss) != 1 {
		t.Fatalf("got %d link series, want 1", len(ss))
	}
	s := ss[0].Samples
	if v := s[len(s)-1].Value; v != 100 {
		t.Fatalf("link utilization = %v, want 100", v)
	}
}

func TestAggregateRate(t *testing.T) {
	_, n := twoSiteNet(100)
	n.Transfer("ucsd", "sdsc", 1e6, nil)
	n.Transfer("ucsd", "sdsc", 1e6, nil)
	if got := n.AggregateRate("sdsc"); got != 100 {
		t.Fatalf("aggregate rate = %v, want 100", got)
	}
}

func TestManyFlowsConservation(t *testing.T) {
	// Total allocated rate on the shared link never exceeds capacity, and all
	// flows eventually finish.
	c, n := twoSiteNet(Gbps(10))
	const flows = 200
	done := 0
	for i := 0; i < flows; i++ {
		n.Transfer("ucsd", "sdsc", 1e9+float64(i)*1e7, func() { done++ })
	}
	sum := 0.0
	for f := range n.flows {
		sum += f.rate
	}
	if sum > Gbps(10)*1.0001 {
		t.Fatalf("allocated %v B/s exceeds capacity %v", sum, Gbps(10))
	}
	c.Run()
	if done != flows {
		t.Fatalf("completed %d/%d flows", done, flows)
	}
}

func TestPropertyFairnessInvariants(t *testing.T) {
	// For random flow sets on a random 3-site chain, max-min allocation must
	// (1) never oversubscribe a link and (2) give equal rates to flows with
	// identical paths.
	f := func(seed uint64, nFlowsRaw uint8) bool {
		rng := sim.NewRNG(seed)
		nFlows := int(nFlowsRaw%20) + 1
		c := sim.NewClock()
		n := NewNetwork(c, nil)
		for _, s := range []string{"a", "b", "cst"} {
			n.AddSite(s)
		}
		cap1 := 10 + rng.Float64()*1000
		cap2 := 10 + rng.Float64()*1000
		n.AddLink("a", "b", cap1, 0)
		n.AddLink("b", "cst", cap2, 0)
		var byPath [2][]*Flow
		for i := 0; i < nFlows; i++ {
			if rng.Intn(2) == 0 {
				byPath[0] = append(byPath[0], n.Transfer("a", "cst", 1e12, nil))
			} else {
				byPath[1] = append(byPath[1], n.Transfer("b", "cst", 1e12, nil))
			}
		}
		// Flows admit synchronously on zero-latency links.
		// Equal path => equal rate.
		for _, group := range byPath {
			for i := 1; i < len(group); i++ {
				if math.Abs(group[i].rate-group[0].rate) > 1e-6 {
					return false
				}
			}
		}
		// No link oversubscribed.
		sumAC, sumBC := 0.0, 0.0
		for _, fl := range byPath[0] {
			sumAC += fl.rate
		}
		for _, fl := range byPath[1] {
			sumBC += fl.rate
		}
		if sumAC > cap1*1.0001 {
			return false
		}
		if sumAC+sumBC > cap2*1.0001 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func near(got, want time.Duration) bool {
	diff := got - want
	if diff < 0 {
		diff = -diff
	}
	return diff <= want/100+time.Millisecond
}

func TestLossDegradesEffectiveCapacity(t *testing.T) {
	c, n := twoSiteNet(100)
	if err := n.SetLink("ucsd", "sdsc", LossFrac(0.5)); err != nil {
		t.Fatal(err)
	}
	var doneAt time.Duration
	n.Transfer("ucsd", "sdsc", 1000, func() { doneAt = c.Now() })
	c.Run()
	// 50% loss halves the goodput: 1000 B at 50 B/s = 20s.
	if !near(doneAt, 20*time.Second) {
		t.Fatalf("lossy transfer finished at %v, want ~20s", doneAt)
	}
}

func TestLinkDownStallsAndRestoreResumes(t *testing.T) {
	c, n := twoSiteNet(100)
	var doneAt time.Duration
	f := n.Transfer("ucsd", "sdsc", 1000, func() { doneAt = c.Now() })
	// Halfway through, the link dies for 10 virtual seconds.
	c.At(5*time.Second, func() { n.SetLink("ucsd", "sdsc", LinkDown(true)) })
	c.At(15*time.Second, func() { n.SetLink("ucsd", "sdsc", LinkDown(false)) })
	c.Run()
	if !f.done {
		t.Fatalf("flow never completed (remaining %.0f)", f.remaining)
	}
	// 5s at 100 B/s, 10s stalled, then 500 B at 100 B/s: done at t=20.
	if !near(doneAt, 20*time.Second) {
		t.Fatalf("transfer finished at %v, want ~20s", doneAt)
	}
}

func TestDownLinkExcludedFromRouting(t *testing.T) {
	c := sim.NewClock()
	n := NewNetwork(c, nil)
	for _, s := range []string{"a", "b", "c"} {
		n.AddSite(s)
	}
	n.AddLink("a", "b", 100, 0)
	n.AddLink("a", "c", 100, 0)
	n.AddLink("c", "b", 100, 0)
	if got := len(n.Path("a", "b")); got != 1 {
		t.Fatalf("direct path = %d hops, want 1", got)
	}
	if err := n.SetLink("a", "b", LinkDown(true)); err != nil {
		t.Fatal(err)
	}
	if got := len(n.Path("a", "b")); got != 2 {
		t.Fatalf("path with direct link down = %d hops, want 2 (via c)", got)
	}
	if err := n.SetLink("a", "b", LinkDown(false)); err != nil {
		t.Fatal(err)
	}
	if got := len(n.Path("a", "b")); got != 1 {
		t.Fatalf("path after restore = %d hops, want 1", got)
	}
}

func TestApplyTraceBandwidthCollapse(t *testing.T) {
	c, n := twoSiteNet(100)
	err := n.ApplyTrace("ucsd", "sdsc", []TracePoint{
		{At: 5 * time.Second, Change: CapacityBps(10)},
		{At: 10 * time.Second, Change: CapacityBps(100)},
	})
	if err != nil {
		t.Fatal(err)
	}
	var doneAt time.Duration
	n.Transfer("ucsd", "sdsc", 1000, func() { doneAt = c.Now() })
	c.Run()
	// 5s at 100 B/s (500 B) + 5s at 10 B/s (50 B) + 4.5s at 100 B/s (450 B).
	if !near(doneAt, 14*time.Second+500*time.Millisecond) {
		t.Fatalf("traced transfer finished at %v, want ~14.5s", doneAt)
	}
}

func TestSetLinkValidation(t *testing.T) {
	_, n := twoSiteNet(100)
	if err := n.SetLink("ucsd", "nowhere", LinkDown(true)); err == nil {
		t.Fatal("SetLink on unknown link succeeded")
	}
	if err := n.SetLink("ucsd", "sdsc", LossFrac(1.5)); err == nil {
		t.Fatal("SetLink accepted loss >= 1")
	}
	if err := n.SetLink("ucsd", "sdsc", CapacityBps(-1)); err == nil {
		t.Fatal("SetLink accepted negative capacity")
	}
	if err := n.ApplyTrace("ucsd", "nowhere", nil); err == nil {
		t.Fatal("ApplyTrace on unknown link succeeded")
	}
}
