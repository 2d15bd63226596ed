package cluster

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"chaseci/internal/metrics"
	"chaseci/internal/sim"
)

// Errors returned by cluster operations.
var (
	ErrNamespaceUnknown = errors.New("cluster: unknown namespace")
	ErrNodeUnknown      = errors.New("cluster: unknown node")
	ErrDuplicate        = errors.New("cluster: object already exists")
	ErrNodeNotReady     = errors.New("cluster: node not ready")
	ErrInsufficient     = errors.New("cluster: insufficient capacity")
)

// Node is a cluster member: a FIONA appliance at some PRP site.
type Node struct {
	Name     string
	Site     string
	Capacity Resources
	Labels   map[string]string
	Ready    bool

	allocated Resources
	pods      map[uint64]*Pod
	claims    map[string]Resources
}

// Allocated returns resources currently bound to pods on the node.
func (n *Node) Allocated() Resources { return n.allocated }

// Available returns unallocated capacity.
func (n *Node) Available() Resources { return n.Capacity.Sub(n.allocated) }

// Namespace is a virtual cluster with optional resource quota (Section IV).
type Namespace struct {
	Name string
	// Quota caps the summed requests of non-terminal pods. Nil means
	// unlimited.
	Quota *Resources

	used Resources
}

// NodeEvent describes a node lifecycle transition for external observers
// (e.g. the placement scheduler in internal/sched).
type NodeEvent struct {
	Node  string
	Site  string
	Ready bool
	// DroppedClaims lists the ids of external claims the node held when it
	// was lost. Their resources are already released; the ids let observers
	// requeue the work they backed without racing a second release.
	DroppedClaims []string
}

// Event is an entry in the cluster's event log.
type Event struct {
	At      time.Duration
	Kind    string // e.g. "PodScheduled", "NodeLost"
	Object  string
	Message string
}

// Cluster is the simulated control plane: state store, scheduler, and node
// lifecycle. The Job controller is layered on top in controllers.go.
type Cluster struct {
	clock *sim.Clock
	reg   *metrics.Registry

	nodes      map[string]*Node
	nodeNames  []string
	namespaces map[string]*Namespace
	pods       map[uint64]*Pod
	pending    []*Pod
	events     []Event
	nextUID    uint64

	schedPending  bool
	phaseWatchers []func(*Pod)
	nodeWatchers  []func(NodeEvent)

	podsRunning *metrics.Gauge
	cpuInUse    *metrics.Gauge
	memInUse    *metrics.Gauge
	gpusInUse   *metrics.Gauge
}

// New creates an empty cluster on the clock. reg may be nil.
func New(clock *sim.Clock, reg *metrics.Registry) *Cluster {
	c := &Cluster{
		clock:      clock,
		reg:        reg,
		nodes:      make(map[string]*Node),
		namespaces: make(map[string]*Namespace),
		pods:       make(map[uint64]*Pod),
	}
	if reg != nil {
		c.podsRunning = reg.Gauge("k8s_pods_running", nil)
		c.cpuInUse = reg.Gauge("k8s_cpu_in_use", nil)
		c.memInUse = reg.Gauge("k8s_mem_in_use_bytes", nil)
		c.gpusInUse = reg.Gauge("k8s_gpus_in_use", nil)
	}
	return c
}

// Clock returns the cluster's virtual clock.
func (c *Cluster) Clock() *sim.Clock { return c.clock }

// logEvent appends to the cluster event log.
func (c *Cluster) logEvent(kind, object, format string, args ...any) {
	c.events = append(c.events, Event{
		At: c.clock.Now(), Kind: kind, Object: object,
		Message: fmt.Sprintf(format, args...),
	})
}

// Events returns the event log.
func (c *Cluster) Events() []Event { return c.events }

// OnPodPhase registers a watcher invoked on every pod phase transition.
func (c *Cluster) OnPodPhase(fn func(*Pod)) { c.phaseWatchers = append(c.phaseWatchers, fn) }

// OnNodeEvent registers a watcher invoked on every node join/loss/restore.
func (c *Cluster) OnNodeEvent(fn func(NodeEvent)) { c.nodeWatchers = append(c.nodeWatchers, fn) }

func (c *Cluster) notifyNode(ev NodeEvent) {
	for _, w := range c.nodeWatchers {
		w(ev)
	}
}

// --- Namespaces -----------------------------------------------------------

// CreateNamespace registers a virtual cluster. quota may be nil (unlimited).
func (c *Cluster) CreateNamespace(name string, quota *Resources) (*Namespace, error) {
	if _, dup := c.namespaces[name]; dup {
		return nil, ErrDuplicate
	}
	ns := &Namespace{Name: name, Quota: quota}
	c.namespaces[name] = ns
	c.logEvent("NamespaceCreated", name, "quota=%v", quota)
	return ns, nil
}

// --- Nodes ----------------------------------------------------------------

// AddNode joins a node to the cluster and kicks the scheduler: CHASE-CI is
// "very dynamic in the fact that nodes can join and leave the cluster at any
// time".
func (c *Cluster) AddNode(name, site string, capacity Resources, labels map[string]string) (*Node, error) {
	if _, dup := c.nodes[name]; dup {
		return nil, ErrDuplicate
	}
	n := &Node{
		Name: name, Site: site, Capacity: capacity,
		Labels: labels, Ready: true,
		pods:   make(map[uint64]*Pod),
		claims: make(map[string]Resources),
	}
	c.nodes[name] = n
	c.nodeNames = append(c.nodeNames, name)
	sort.Strings(c.nodeNames)
	c.logEvent("NodeReady", name, "site=%s capacity=%v", site, capacity)
	c.kickScheduler()
	c.notifyNode(NodeEvent{Node: name, Site: site, Ready: true})
	return n, nil
}

// Node returns the named node, or nil.
func (c *Cluster) Node(name string) *Node { return c.nodes[name] }

// Nodes returns all nodes in name order.
func (c *Cluster) Nodes() []*Node {
	out := make([]*Node, 0, len(c.nodeNames))
	for _, n := range c.nodeNames {
		out = append(out, c.nodes[n])
	}
	return out
}

// KillNode marks a node lost. Every pod on it fails with reason NodeLost and
// owning controllers reschedule replacements elsewhere.
func (c *Cluster) KillNode(name string) error {
	n, ok := c.nodes[name]
	if !ok {
		return ErrNodeUnknown
	}
	if !n.Ready {
		return nil
	}
	n.Ready = false
	c.logEvent("NodeLost", name, "node taken offline")
	// Drop external claims before failing pods: each claim releases its
	// allocation exactly once here, and the ids travel in the NodeEvent so
	// observers requeue without issuing a second ReleaseClaim.
	dropped := make([]string, 0, len(n.claims))
	for id := range n.claims {
		dropped = append(dropped, id)
	}
	sort.Strings(dropped)
	for _, id := range dropped {
		n.allocated = n.allocated.Sub(n.claims[id])
		delete(n.claims, id)
	}
	// Fail pods on the node. Copy first: finishPod mutates n.pods.
	var victims []*Pod
	for _, p := range n.pods {
		victims = append(victims, p)
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i].UID < victims[j].UID })
	for _, p := range victims {
		c.finishPod(p, PodFailed, "NodeLost")
	}
	c.notifyNode(NodeEvent{Node: name, Site: n.Site, Ready: false, DroppedClaims: dropped})
	return nil
}

// RestoreNode brings a lost node back as schedulable.
func (c *Cluster) RestoreNode(name string) error {
	n, ok := c.nodes[name]
	if !ok {
		return ErrNodeUnknown
	}
	if n.Ready {
		return nil
	}
	n.Ready = true
	c.logEvent("NodeReady", name, "node restored")
	c.kickScheduler()
	c.notifyNode(NodeEvent{Node: name, Site: n.Site, Ready: true})
	return nil
}

// --- External claims --------------------------------------------------------

// Claim reserves resources on a node under a caller-chosen id, outside the
// pod lifecycle. The placement scheduler uses claims to pin a job's requests
// to a node while the job executes in the service layer rather than as a
// simulated pod. A claim is released by ReleaseClaim or, exactly once, when
// the node is lost (the id is then reported via OnNodeEvent).
func (c *Cluster) Claim(node, id string, req Resources) error {
	n, ok := c.nodes[node]
	if !ok {
		return ErrNodeUnknown
	}
	if !n.Ready {
		return ErrNodeNotReady
	}
	if _, dup := n.claims[id]; dup {
		return ErrDuplicate
	}
	if !req.Fits(n.Available()) {
		return ErrInsufficient
	}
	n.claims[id] = req
	n.allocated = n.allocated.Add(req)
	c.publishUsage()
	return nil
}

// ReleaseClaim frees a claim. It returns false when the claim no longer
// exists — already released, or dropped by KillNode — so double releases
// (the historical double-drain bug) are inert.
func (c *Cluster) ReleaseClaim(node, id string) bool {
	n, ok := c.nodes[node]
	if !ok {
		return false
	}
	req, ok := n.claims[id]
	if !ok {
		return false
	}
	n.allocated = n.allocated.Sub(req)
	delete(n.claims, id)
	c.publishUsage()
	c.kickScheduler()
	return true
}

// Claims returns the ids of live external claims on a node, sorted.
func (c *Cluster) Claims(node string) []string {
	n, ok := c.nodes[node]
	if !ok {
		return nil
	}
	out := make([]string, 0, len(n.claims))
	for id := range n.claims {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// TotalCapacity sums capacity over ready nodes.
func (c *Cluster) TotalCapacity() Resources {
	var sum Resources
	for _, n := range c.nodes {
		if n.Ready {
			sum = sum.Add(n.Capacity)
		}
	}
	return sum
}

// --- Pods and scheduling ---------------------------------------------------

// CreatePod submits a pod for scheduling. The returned pod is Pending until
// the scheduler binds it.
func (c *Cluster) CreatePod(spec PodSpec) (*Pod, error) {
	if _, ok := c.namespaces[spec.Namespace]; !ok {
		return nil, ErrNamespaceUnknown
	}
	if spec.Run == nil {
		return nil, errors.New("cluster: PodSpec.Run is nil")
	}
	c.nextUID++
	p := &Pod{
		Spec: spec, UID: c.nextUID, Phase: PodPending,
		CreatedAt: c.clock.Now(), cluster: c,
	}
	c.pods[p.UID] = p
	c.pending = append(c.pending, p)
	c.logEvent("PodCreated", p.Name(), "requests=%v", spec.Requests)
	c.kickScheduler()
	return p, nil
}

// schedDelay is the virtual latency between a pod becoming schedulable and
// its binding.
const schedDelay = 200 * time.Millisecond

// kickScheduler schedules a scheduling pass after schedDelay. Multiple kicks
// coalesce into one pass.
func (c *Cluster) kickScheduler() {
	if c.schedPending || len(c.pending) == 0 {
		return
	}
	c.schedPending = true
	c.clock.After(schedDelay, func() {
		c.schedPending = false
		c.schedulePass()
	})
}

// schedulePass tries to bind every pending pod, in FIFO order.
func (c *Cluster) schedulePass() {
	var still []*Pod
	for _, p := range c.pending {
		if p.Phase != PodPending {
			continue // cancelled or failed while queued
		}
		if !c.quotaAdmits(p) {
			p.Reason = "QuotaExceeded"
			still = append(still, p)
			continue
		}
		node := c.pickNode(p)
		if node == nil {
			p.Reason = "Unschedulable"
			still = append(still, p)
			continue
		}
		c.bind(p, node)
	}
	c.pending = still
}

// quotaAdmits checks the namespace quota for the pod's requests.
func (c *Cluster) quotaAdmits(p *Pod) bool {
	ns := c.namespaces[p.Spec.Namespace]
	if ns == nil || ns.Quota == nil {
		return true
	}
	return ns.used.Add(p.Spec.Requests).Fits(*ns.Quota)
}

// pickNode filters ready nodes by selector and fit, then scores by most
// available CPU+GPU (spreading load), breaking ties by name for determinism.
func (c *Cluster) pickNode(p *Pod) *Node {
	var best *Node
	var bestScore float64
	for _, name := range c.nodeNames {
		n := c.nodes[name]
		if !n.Ready {
			continue
		}
		if !matchesSelector(n.Labels, p.Spec.NodeSelector) {
			continue
		}
		if !p.Spec.Requests.Fits(n.Available()) {
			continue
		}
		av := n.Available()
		score := av.CPU + float64(av.GPUs)*10
		if best == nil || score > bestScore {
			best = n
			bestScore = score
		}
	}
	return best
}

func matchesSelector(labels, sel map[string]string) bool {
	for k, v := range sel {
		if labels[k] != v {
			return false
		}
	}
	return true
}

// bind assigns the pod to the node and starts its container.
func (c *Cluster) bind(p *Pod, n *Node) {
	p.Phase = PodRunning
	p.Node = n.Name
	p.Reason = ""
	p.StartedAt = c.clock.Now()
	n.allocated = n.allocated.Add(p.Spec.Requests)
	n.pods[p.UID] = p
	ns := c.namespaces[p.Spec.Namespace]
	ns.used = ns.used.Add(p.Spec.Requests)
	c.logEvent("PodScheduled", p.Name(), "bound to %s", n.Name)
	c.publishUsage()
	c.notifyPhase(p)

	ctx := &PodCtx{pod: p, cluster: c, alive: true}
	p.ctx = ctx
	p.Spec.Run(ctx)
}

// finishPod transitions a pod to a terminal phase and releases resources.
func (c *Cluster) finishPod(p *Pod, phase PodPhase, reason string) {
	if p.Phase.Terminal() {
		return
	}
	wasRunning := p.Phase == PodRunning
	p.Phase = phase
	p.Reason = reason
	p.EndedAt = c.clock.Now()
	if p.ctx != nil {
		p.ctx.alive = false
	}
	if wasRunning && !p.released {
		// One-shot guard: a pod's node/namespace accounting must be returned
		// exactly once no matter how many drain paths reach it.
		p.released = true
		n := c.nodes[p.Node]
		if n != nil {
			n.allocated = n.allocated.Sub(p.Spec.Requests)
			delete(n.pods, p.UID)
		}
		ns := c.namespaces[p.Spec.Namespace]
		ns.used = ns.used.Sub(p.Spec.Requests)
	}
	c.logEvent("Pod"+phase.String(), p.Name(), "%s", reason)
	c.publishUsage()
	c.notifyPhase(p)
	if p.owner != nil {
		p.owner.podTerminated(p)
	}
	// Freed resources may unblock queued pods.
	c.kickScheduler()
}

// DeletePod force-terminates a pod (kubectl delete pod). Pending pods go
// through the same terminal path as running ones so owning controllers hear
// about the termination; previously they were marked Failed in place and
// lingered in controller active sets forever.
func (c *Cluster) DeletePod(p *Pod) {
	c.finishPod(p, PodFailed, "Deleted")
}

func (c *Cluster) notifyPhase(p *Pod) {
	for _, w := range c.phaseWatchers {
		w(p)
	}
}

func (c *Cluster) publishUsage() {
	if c.reg == nil {
		return
	}
	var used Resources
	running := 0
	for _, n := range c.nodes {
		if n.Ready {
			used = used.Add(n.allocated)
			running += len(n.pods)
		}
	}
	c.podsRunning.Set(float64(running))
	c.cpuInUse.Set(used.CPU)
	c.memInUse.Set(used.Memory)
	c.gpusInUse.Set(float64(used.GPUs))
}
