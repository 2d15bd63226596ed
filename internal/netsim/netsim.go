// Package netsim models the Pacific Research Platform wide-area network that
// CHASE-CI runs on: named sites (UCSD, Calit2, SDSC, partner campuses)
// connected by 10/40/100 Gbps links. Data movement is simulated with a fluid
// flow model: every active transfer receives a max-min fair share of the
// links along its path, recomputed whenever a flow starts or finishes, and
// progress advances in virtual time on the shared sim.Clock. This reproduces
// the bandwidth/contention shapes behind the paper's Figures 3 and 4
// (10 download workers x 20 parallel aria2 streams sharing the DTN uplink).
package netsim

import (
	"fmt"
	"math"
	"sort"
	"time"

	"chaseci/internal/metrics"
	"chaseci/internal/sim"
)

// Gbps converts gigabits/second to the simulator's bytes/second unit.
func Gbps(g float64) float64 { return g * 1e9 / 8 }

// Network is a topology of sites and links plus the set of active flows.
type Network struct {
	clock *sim.Clock
	reg   *metrics.Registry

	sites map[string]*Site
	links []*Link

	flows      map[*Flow]struct{}
	flowSeq    uint64 // creation count; orders flows that tie on everything else
	lastUpdate time.Duration
	completion *sim.Timer

	pathCache map[[2]string][]*Link
}

// Site is a network endpoint (a campus / DTN location).
type Site struct {
	Name string
}

// Link is a bidirectional pipe between two sites with a fixed capacity in
// bytes/second and a propagation latency. Capacity is shared by flows in
// both directions, matching a full-duplex fiber's per-direction limit being
// dominated by the DTN NIC in the paper's deployments.
//
// Loss and Down model hostile wide-area conditions: Loss is the fraction of
// capacity eaten by retransmission on a lossy path (the fluid-model view of
// packet loss under a loss-tolerant transport), and a Down link carries
// nothing and is excluded from routing until it comes back. Both are mutated
// at runtime through Network.SetLink / ApplyTrace.
type Link struct {
	A, B     string
	Capacity float64 // bytes per second
	Latency  time.Duration
	Loss     float64 // fraction of capacity lost to retransmission [0, 1)
	Down     bool    // a down link carries no traffic and routes nothing

	util *metrics.Gauge
}

func (l *Link) String() string { return fmt.Sprintf("%s<->%s", l.A, l.B) }

// EffectiveCapacity is the goodput ceiling under the link's current
// condition: zero when down, capacity degraded by the loss fraction
// otherwise.
func (l *Link) EffectiveCapacity() float64 {
	if l.Down {
		return 0
	}
	return l.Capacity * (1 - l.Loss)
}

// Flow is one in-flight transfer.
type Flow struct {
	Src, Dst string

	net        *Network
	path       []*Link
	remaining  float64 // bytes left to move
	total      float64
	rate       float64 // current fair-share allocation, bytes/sec
	onComplete func()
	cancelled  bool
	started    time.Duration
	seq        uint64
	done       bool
}

// Transferred returns bytes moved so far.
func (f *Flow) Transferred() float64 { return f.total - f.remaining }

// NewNetwork creates an empty network on the given clock. reg may be nil to
// disable metric recording.
func NewNetwork(clock *sim.Clock, reg *metrics.Registry) *Network {
	return &Network{
		clock:     clock,
		reg:       reg,
		sites:     make(map[string]*Site),
		flows:     make(map[*Flow]struct{}),
		pathCache: make(map[[2]string][]*Link),
	}
}

// AddSite registers a site; adding an existing name is a no-op.
func (n *Network) AddSite(name string) *Site {
	if s, ok := n.sites[name]; ok {
		return s
	}
	s := &Site{Name: name}
	n.sites[name] = s
	return s
}

// AddLink connects two existing sites. It panics if either site is unknown,
// since a mis-wired topology is a programming error in experiment setup.
func (n *Network) AddLink(a, b string, capacity float64, latency time.Duration) *Link {
	if _, ok := n.sites[a]; !ok {
		panic("netsim: AddLink to unknown site " + a)
	}
	if _, ok := n.sites[b]; !ok {
		panic("netsim: AddLink to unknown site " + b)
	}
	if capacity <= 0 {
		panic("netsim: AddLink with non-positive capacity")
	}
	l := &Link{A: a, B: b, Capacity: capacity, Latency: latency}
	if n.reg != nil {
		l.util = n.reg.Gauge("net_link_bytes_per_sec", metrics.Labels{"link": l.String()})
	}
	n.links = append(n.links, l)
	n.pathCache = make(map[[2]string][]*Link) // topology changed
	return l
}

// Links returns the topology's links. The slice is shared — callers mutate
// link state only through SetLink.
func (n *Network) Links() []*Link { return n.links }

// Link returns the link joining two sites (in either direction), or nil.
func (n *Network) Link(a, b string) *Link {
	for _, l := range n.links {
		if (l.A == a && l.B == b) || (l.A == b && l.B == a) {
			return l
		}
	}
	return nil
}

// LinkChange is a partial update to a link's condition: nil fields keep the
// current value. It is the unit of both one-shot SetLink calls and
// trace-driven schedules.
type LinkChange struct {
	Capacity *float64
	Latency  *time.Duration
	Loss     *float64
	Down     *bool
}

// LinkDown returns a LinkChange taking the link down or up.
func LinkDown(down bool) LinkChange { return LinkChange{Down: &down} }

// SetLink applies a condition change to the link between a and b: active
// flows are settled at their old rates first, then fair shares are
// recomputed under the new condition. Taking a link down stalls flows routed
// over it (rate zero) until it comes back; routing (Path) excludes it
// immediately.
func (n *Network) SetLink(a, b string, ch LinkChange) error {
	l := n.Link(a, b)
	if l == nil {
		return fmt.Errorf("netsim: no link %s<->%s", a, b)
	}
	n.settle()
	if ch.Capacity != nil {
		if *ch.Capacity <= 0 {
			return fmt.Errorf("netsim: non-positive capacity for %s", l)
		}
		l.Capacity = *ch.Capacity
	}
	if ch.Latency != nil {
		l.Latency = *ch.Latency
	}
	if ch.Loss != nil {
		if *ch.Loss < 0 || *ch.Loss >= 1 {
			return fmt.Errorf("netsim: loss %g out of [0,1) for %s", *ch.Loss, l)
		}
		l.Loss = *ch.Loss
	}
	if ch.Down != nil {
		l.Down = *ch.Down
	}
	n.pathCache = make(map[[2]string][]*Link) // routing may have changed
	n.reallocate()
	return nil
}

// TracePoint is one step of a recorded network-condition trace.
type TracePoint struct {
	At     time.Duration // virtual time the change takes effect
	Change LinkChange
}

// ApplyTrace schedules a sequence of condition changes on the link between a
// and b at absolute virtual times — the replay mechanism for measured WAN
// traces (congestion collapse, loss storms, maintenance windows). The trace
// is validated against the topology up front; each point fires on the shared
// clock.
func (n *Network) ApplyTrace(a, b string, trace []TracePoint) error {
	if n.Link(a, b) == nil {
		return fmt.Errorf("netsim: no link %s<->%s", a, b)
	}
	for _, p := range trace {
		ch := p.Change
		n.clock.At(p.At, func() { n.SetLink(a, b, ch) })
	}
	return nil
}

// Transfer starts moving size bytes from src to dst and returns the flow.
// onComplete (may be nil) fires in virtual time when the last byte lands.
// Same-site transfers complete after a nominal LAN time at 10 GB/s.
// Transfer panics if no path exists: experiments must use connected
// topologies.
func (n *Network) Transfer(src, dst string, size float64, onComplete func()) *Flow {
	if size < 0 {
		panic("netsim: negative transfer size")
	}
	f := &Flow{
		Src: src, Dst: dst, net: n,
		remaining: size, total: size,
		onComplete: onComplete,
		started:    n.clock.Now(),
		seq:        n.flowSeq,
	}
	n.flowSeq++
	if src == dst {
		// Local copy: model as a fixed-rate local disk/loopback move.
		const localRate = 10e9
		d := time.Duration(size / localRate * float64(time.Second))
		n.clock.After(d, func() {
			f.remaining = 0
			f.done = true
			if onComplete != nil {
				onComplete()
			}
		})
		return f
	}
	path := n.Path(src, dst)
	if path == nil {
		panic(fmt.Sprintf("netsim: no path %s -> %s", src, dst))
	}
	f.path = path
	// Propagation delay before the stream starts filling the pipe. With no
	// latency the flow is admitted synchronously so that callers observe
	// rates immediately after Transfer returns.
	var lat time.Duration
	for _, l := range path {
		lat += l.Latency
	}
	admit := func() {
		if f.cancelled {
			return
		}
		n.settle()
		n.flows[f] = struct{}{}
		n.reallocate()
	}
	if lat == 0 {
		admit()
	} else {
		n.clock.After(lat, admit)
	}
	return f
}

// Cancel aborts an in-flight flow; its completion callback never fires.
func (f *Flow) Cancel() {
	if f.done || f.cancelled {
		return
	}
	f.cancelled = true
	if _, active := f.net.flows[f]; active {
		f.net.settle()
		delete(f.net.flows, f)
		f.net.reallocate()
	}
}

// Path returns the minimum-hop link path between two sites (BFS), or nil.
func (n *Network) Path(src, dst string) []*Link {
	key := [2]string{src, dst}
	if p, ok := n.pathCache[key]; ok {
		return p
	}
	adj := make(map[string][]*Link)
	for _, l := range n.links {
		adj[l.A] = append(adj[l.A], l)
		adj[l.B] = append(adj[l.B], l)
	}
	type hop struct {
		site string
		via  *Link
		prev *hop
	}
	visited := map[string]bool{src: true}
	queue := []*hop{{site: src}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur.site == dst {
			var path []*Link
			for h := cur; h.via != nil; h = h.prev {
				path = append([]*Link{h.via}, path...)
			}
			n.pathCache[key] = path
			return path
		}
		for _, l := range adj[cur.site] {
			if l.Down {
				continue
			}
			next := l.A
			if next == cur.site {
				next = l.B
			}
			if !visited[next] {
				visited[next] = true
				queue = append(queue, &hop{site: next, via: l, prev: cur})
			}
		}
	}
	n.pathCache[key] = nil
	return nil
}

// settle advances every active flow's progress to the current instant at its
// last-computed rate. Must be called before the flow set or rates change.
func (n *Network) settle() {
	now := n.clock.Now()
	dt := (now - n.lastUpdate).Seconds()
	n.lastUpdate = now
	if dt <= 0 {
		return
	}
	for f := range n.flows {
		f.remaining -= f.rate * dt
		if f.remaining < 1e-6 {
			f.remaining = 0
		}
	}
}

// reallocate recomputes max-min fair rates, completes finished flows, and
// schedules the next completion event.
func (n *Network) reallocate() {
	// Complete any flows that have drained.
	var finished []*Flow
	for f := range n.flows {
		if f.remaining <= 0 {
			finished = append(finished, f)
		}
	}
	// Deterministic completion order: flows that tie on start and route
	// complete in the order they were created, not the map's.
	sort.Slice(finished, func(i, j int) bool {
		a, b := finished[i], finished[j]
		if a.started != b.started {
			return a.started < b.started
		}
		if a.Src+a.Dst != b.Src+b.Dst {
			return a.Src+a.Dst < b.Src+b.Dst
		}
		return a.seq < b.seq
	})
	for _, f := range finished {
		delete(n.flows, f)
		f.done = true
	}

	n.assignFairShares()
	n.recordLinkUtilization()

	if n.completion != nil {
		n.completion.Stop()
		n.completion = nil
	}
	next := time.Duration(math.MaxInt64)
	any := false
	for f := range n.flows {
		if f.rate <= 0 {
			continue
		}
		eta := time.Duration(f.remaining / f.rate * float64(time.Second))
		if eta < time.Nanosecond {
			eta = time.Nanosecond
		}
		if eta < next {
			next = eta
			any = true
		}
	}
	if any {
		n.completion = n.clock.After(next, func() {
			n.settle()
			n.reallocate()
		})
	}

	// Fire callbacks after state is consistent; callbacks may start new flows.
	for _, f := range finished {
		if f.onComplete != nil {
			f.onComplete()
		}
	}
}

// assignFairShares runs progressive water-filling: repeatedly find the most
// constrained link (smallest capacity-per-unfrozen-flow), freeze its flows at
// that share, subtract, and continue. The result is the classic max-min fair
// allocation: no flow can gain rate without a frozen flow on its bottleneck
// losing some.
func (n *Network) assignFairShares() {
	remainingCap := make(map[*Link]float64, len(n.links))
	for _, l := range n.links {
		remainingCap[l] = l.EffectiveCapacity()
	}
	unfrozen := make(map[*Flow]struct{}, len(n.flows))
	for f := range n.flows {
		f.rate = 0
		if len(f.path) > 0 {
			unfrozen[f] = struct{}{}
		}
	}
	countOn := func(l *Link) int {
		c := 0
		for f := range unfrozen {
			for _, fl := range f.path {
				if fl == l {
					c++
					break
				}
			}
		}
		return c
	}
	for len(unfrozen) > 0 {
		// Find bottleneck link.
		var bottleneck *Link
		best := math.Inf(1)
		for _, l := range n.links {
			c := countOn(l)
			if c == 0 {
				continue
			}
			share := remainingCap[l] / float64(c)
			if share < best {
				best = share
				bottleneck = l
			}
		}
		if bottleneck == nil {
			break // flows with pathless state; nothing to allocate
		}
		// Freeze all unfrozen flows crossing the bottleneck at `best`.
		for f := range unfrozen {
			crosses := false
			for _, fl := range f.path {
				if fl == bottleneck {
					crosses = true
					break
				}
			}
			if !crosses {
				continue
			}
			f.rate = best
			for _, fl := range f.path {
				remainingCap[fl] -= best
				if remainingCap[fl] < 0 {
					remainingCap[fl] = 0
				}
			}
			delete(unfrozen, f)
		}
	}
}

func (n *Network) recordLinkUtilization() {
	if n.reg == nil {
		return
	}
	for _, l := range n.links {
		sum := 0.0
		for f := range n.flows {
			for _, fl := range f.path {
				if fl == l {
					sum += f.rate
					break
				}
			}
		}
		l.util.Set(sum)
	}
}

// AggregateRate returns the total bytes/second currently flowing into dst,
// the quantity plotted as "throughput" in the Fig 4 reproduction.
func (n *Network) AggregateRate(dst string) float64 {
	sum := 0.0
	for f := range n.flows {
		if f.Dst == dst {
			sum += f.rate
		}
	}
	return sum
}
