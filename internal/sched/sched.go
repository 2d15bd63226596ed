package sched

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"chaseci/internal/api"
	"chaseci/internal/cluster"
	"chaseci/internal/objstore"
)

// Errors returned by Place.
var (
	// ErrUnschedulable means no fabric node can ever satisfy the workload
	// (pin/site/capacity constraints), so parking is pointless.
	ErrUnschedulable = errors.New("sched: no node can satisfy the placement constraints")
	// ErrQuotaExceeded means the owner's quota cannot admit the request.
	ErrQuotaExceeded = errors.New("sched: owner quota exceeded")
)

// Workload is the scheduler's view of one service job.
type Workload struct {
	JobID string
	Kind  api.Kind
	Owner string
	// Refs are the dataset ids whose replica placement defines the job's
	// data gravity. Empty means no gravity (locality "any").
	Refs []string
	// Voxels sizes the energy estimate (0 = unknown, no estimate).
	Voxels float64
	// Req is the resource request; zero-valued fields are defaulted by
	// RequestFor.
	Req cluster.Resources
	// Spec carries the caller's optional placement constraints.
	Spec *api.PlacementSpec
}

// RequestFor derives a default resource request for a job kind: the
// inference kind (segment) takes one board; memory scales with the
// working set (float volume plus overheads), floored at 1 GB. train_dist
// asks for no board: its placement is the CPU default.
func RequestFor(kind api.Kind, voxels float64) cluster.Resources {
	mem := voxels * 4 * 6
	if mem < 1e9 {
		mem = 1e9
	}
	r := cluster.Resources{CPU: 2, Memory: mem}
	if kind == api.KindSegment {
		r.GPUs = 1
	}
	return r
}

// binding records where a placed workload lives.
type binding struct {
	node string
	w    *Workload
}

// Scheduler is the data-gravity placement engine. It owns the fabric's
// control plane: all node lifecycle (KillNode/RestoreNode) and all placement
// traffic must go through it so the cluster's node-event callbacks always
// fire with s.mu held.
//
// Callbacks (bind/drain/restore) are never invoked under s.mu: mutating
// paths collect them and dispatch after unlock, so the service layer may
// re-enter the scheduler from a callback without deadlocking.
type Scheduler struct {
	mu  sync.Mutex
	fab *Fabric

	bound     map[string]*binding // jobID -> binding
	parked    []*Workload         // admitted but unplaceable right now, FIFO
	requeues  map[string]int      // jobID -> times drained off a lost node
	ownerUsed map[string]cluster.Resources
	downOSDs  map[string]bool

	// cbs accumulates deferred callbacks while s.mu is held.
	cbs []func()

	bindFn    func(jobID string, pl *api.Placement)
	drainFn   func(node string, jobIDs []string)
	restoreFn func(node string)

	placed   map[string]int // locality class -> placements made
	requeued int            // jobs drained off a lost node, all time

	// A placement pass's scratch, reused from pass to pass: the nodes the
	// static filter keeps and the refs' resolved replica sets.
	static []string
	refs   []refInfo
}

// New builds a scheduler over the fabric and subscribes to its node events.
// The fabric must be fully populated first: AddNode fires node events, and
// after New those events must originate from this scheduler's own
// KillNode/RestoreNode calls (which hold s.mu).
func New(fab *Fabric) *Scheduler {
	s := &Scheduler{
		fab:       fab,
		bound:     make(map[string]*binding),
		requeues:  make(map[string]int),
		ownerUsed: make(map[string]cluster.Resources),
		downOSDs:  make(map[string]bool),
		placed:    make(map[string]int),
	}
	fab.Cluster.OnNodeEvent(s.onNodeEvent)
	return s
}

// OnBind registers the callback fired (outside s.mu) when a parked workload
// is later placed. Placements returned directly from Place do not fire it.
func (s *Scheduler) OnBind(fn func(jobID string, pl *api.Placement)) { s.bindFn = fn }

// OnDrain registers the callback fired (outside s.mu) when a node loss
// unbinds jobs; jobIDs is sorted.
func (s *Scheduler) OnDrain(fn func(node string, jobIDs []string)) { s.drainFn = fn }

// OnRestore registers the callback fired (outside s.mu) when a node returns.
func (s *Scheduler) OnRestore(fn func(node string)) { s.restoreFn = fn }

// Place admits and, if possible, binds a workload. Returns:
//   - (pl, nil): bound; pl is the decision.
//   - (nil, nil): admitted but parked — every candidate is busy or down; it
//     binds later via the OnBind callback.
//   - (nil, ErrUnschedulable | ErrQuotaExceeded): rejected.
func (s *Scheduler) Place(w *Workload) (*api.Placement, error) {
	s.mu.Lock()
	pl, err := s.placeLocked(w, true)
	cbs := s.takeCallbacks()
	s.mu.Unlock()
	dispatch(cbs)
	if errors.Is(err, errRetry) {
		err = nil // parked, not rejected
	}
	return pl, err
}

// Release frees a job's binding (or parked slot) and retries parked work.
// Safe to call for unknown ids: one the scheduler neither binds nor parks (a
// sweep's lane child, say) only drops its requeue count, since nothing was
// freed for a retry to use. Must not be called with service locks that the
// bind callback also takes... it dispatches callbacks after unlock.
func (s *Scheduler) Release(jobID string) {
	s.mu.Lock()
	delete(s.requeues, jobID)
	if b, ok := s.bound[jobID]; ok {
		delete(s.bound, jobID)
		s.fab.Cluster.ReleaseClaim(b.node, jobID)
		s.ownerSub(b.w.Owner, b.w.Req)
	} else if i := slices.IndexFunc(s.parked, func(p *Workload) bool { return p.JobID == jobID }); i >= 0 {
		s.parked = slices.Delete(s.parked, i, i+1)
	} else {
		s.mu.Unlock()
		return
	}
	s.tryParkedLocked()
	cbs := s.takeCallbacks()
	s.mu.Unlock()
	dispatch(cbs)
}

// KillNode simulates losing a fabric node: its co-located OSD (if any) fails
// first so re-resolution sees only surviving replicas, then the cluster node
// goes down, dropping claims and draining bound jobs via OnDrain.
func (s *Scheduler) KillNode(name string) error {
	s.mu.Lock()
	spec := s.fab.nodes[name]
	if spec == nil {
		s.mu.Unlock()
		return cluster.ErrNodeUnknown
	}
	if spec.OSD != "" && !s.downOSDs[spec.OSD] {
		// Manager.mu nests under sched.mu by the fabric lock order.
		if err := s.fab.Datasets.FailOSD(spec.OSD); err == nil {
			s.downOSDs[spec.OSD] = true
		}
	}
	err := s.fab.Cluster.KillNode(name) // fires onNodeEvent inline, s.mu held
	cbs := s.takeCallbacks()
	s.mu.Unlock()
	dispatch(cbs)
	return err
}

// RestoreNode reverses KillNode: the OSD rejoins placement and parked work
// is retried.
func (s *Scheduler) RestoreNode(name string) error {
	s.mu.Lock()
	spec := s.fab.nodes[name]
	if spec == nil {
		s.mu.Unlock()
		return cluster.ErrNodeUnknown
	}
	if spec.OSD != "" && s.downOSDs[spec.OSD] {
		if err := s.fab.Datasets.RecoverOSD(spec.OSD); err == nil {
			delete(s.downOSDs, spec.OSD)
		}
	}
	err := s.fab.Cluster.RestoreNode(name) // fires onNodeEvent inline
	cbs := s.takeCallbacks()
	s.mu.Unlock()
	dispatch(cbs)
	return err
}

// Requeues returns how many times the job has been drained and re-placed.
func (s *Scheduler) Requeues(jobID string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.requeues[jobID]
}

// BoundNode returns the node a job is bound to ("" if parked or unknown).
func (s *Scheduler) BoundNode(jobID string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if b, ok := s.bound[jobID]; ok {
		return b.node
	}
	return ""
}

// Nodes reports the fabric inventory for the gateway's /v1/nodes endpoint.
func (s *Scheduler) Nodes() []api.NodeStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	bound := s.boundPerNodeLocked()
	out := make([]api.NodeStatus, 0, len(s.fab.nodeNames))
	for _, name := range s.fab.nodeNames {
		spec := s.fab.nodes[name]
		n := s.fab.Cluster.Node(name)
		alloc := n.Allocated()
		st := api.NodeStatus{
			Name: name, Site: spec.Site, Ready: n.Ready,
			CPU: int(n.Capacity.CPU), MemoryBytes: int64(n.Capacity.Memory), GPUs: n.Capacity.GPUs,
			AllocCPU: int(alloc.CPU), AllocMemoryBytes: int64(alloc.Memory), AllocGPUs: alloc.GPUs,
			OSD: spec.OSD, BoundJobs: bound[name],
		}
		if spec.OSD != "" {
			st.OSDUp = !s.downOSDs[spec.OSD]
		}
		out = append(out, st)
	}
	return out
}

// localities orders the sched_placements lines.
var localities = [...]string{api.LocalityReplicaLocal, api.LocalitySameSite, api.LocalityRemote, api.LocalityAny}

// MetricsText renders the scheduler's state in the one-line format the
// service layer uses: the placement and requeue counters, each once it is
// non-zero, then every fabric node's allocation and bound-job count — the
// numbers GET /v1/nodes serves.
func (s *Scheduler) MetricsText() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var b strings.Builder
	for _, loc := range localities {
		if n := s.placed[loc]; n > 0 {
			fmt.Fprintf(&b, "sched_placements{locality=%q} %g\n", loc, float64(n))
		}
	}
	if s.requeued > 0 {
		fmt.Fprintf(&b, "sched_requeues{} %g\n", float64(s.requeued))
	}
	bound := s.boundPerNodeLocked()
	for _, name := range s.fab.nodeNames {
		alloc := s.fab.Cluster.Node(name).Allocated()
		fmt.Fprintf(&b, "sched_node_alloc_cpu{node=%q} %g\n", name, alloc.CPU)
		fmt.Fprintf(&b, "sched_node_alloc_mem_bytes{node=%q} %g\n", name, alloc.Memory)
		fmt.Fprintf(&b, "sched_node_alloc_gpus{node=%q} %g\n", name, float64(alloc.GPUs))
		fmt.Fprintf(&b, "sched_jobs_bound{node=%q} %g\n", name, float64(bound[name]))
	}
	return b.String()
}

// boundPerNodeLocked counts bound jobs per node in one pass. s.mu held.
func (s *Scheduler) boundPerNodeLocked() map[string]int {
	n := make(map[string]int, len(s.fab.nodeNames))
	for _, b := range s.bound {
		n[b.node]++
	}
	return n
}

// --- Internals --------------------------------------------------------------

func dispatch(cbs []func()) {
	for _, cb := range cbs {
		cb()
	}
}

func (s *Scheduler) takeCallbacks() []func() {
	cbs := s.cbs
	s.cbs = nil
	return cbs
}

func (s *Scheduler) ownerAdd(owner string, r cluster.Resources) {
	s.ownerUsed[owner] = s.ownerUsed[owner].Add(r)
}

func (s *Scheduler) ownerSub(owner string, r cluster.Resources) {
	u := s.ownerUsed[owner].Sub(r)
	if u.IsZero() {
		delete(s.ownerUsed, owner)
	} else {
		s.ownerUsed[owner] = u
	}
}

// refInfo caches one ref's size and replica set for a placement pass.
type refInfo struct {
	id    string
	bytes float64
	reps  []objstore.Replica
}

// placeLocked runs one placement attempt. firstTry distinguishes admission
// (errors reject the job) from parked retries (errors keep it parked).
// s.mu held.
func (s *Scheduler) placeLocked(w *Workload, firstTry bool) (*api.Placement, error) {
	if w.Req.IsZero() {
		w.Req = RequestFor(w.Kind, w.Voxels)
	}
	// Quota admission: the owner's total placed footprint must fit.
	if q := s.fab.cfg.OwnerQuota; q != nil {
		if !s.ownerUsed[w.Owner].Add(w.Req).Fits(*q) {
			if firstTry {
				return nil, ErrQuotaExceeded
			}
			return nil, errRetry
		}
	}

	// Static filter: constraints no amount of waiting will fix.
	static := s.static[:0]
	for _, name := range s.fab.nodeNames {
		n := s.fab.Cluster.Node(name)
		if w.Spec != nil {
			if w.Spec.Node != "" && w.Spec.Node != name {
				continue
			}
			if w.Spec.Site != "" && w.Spec.Site != n.Site {
				continue
			}
		}
		if !w.Req.Fits(n.Capacity) {
			continue
		}
		static = append(static, name)
	}
	s.static = static
	if len(static) == 0 {
		if firstTry {
			return nil, ErrUnschedulable
		}
		return nil, errRetry
	}

	// Resolve each ref's size and replica set once per pass. A ref with no
	// up replica anywhere is data loss, not congestion: fail fast so the
	// service layer can go terminal instead of parking the job forever.
	refs := s.refs[:0]
	for _, id := range w.Refs {
		ri := refInfo{id: id}
		if info, ok := s.fab.Datasets.Stat(id); ok {
			ri.bytes = float64(info.Bytes)
		}
		ri.reps = s.fab.Datasets.Placement(id)
		up := false
		for _, rep := range ri.reps {
			if rep.Up {
				up = true
				break
			}
		}
		if !up {
			if firstTry {
				return nil, fmt.Errorf("%w: ref %s has %d replicas, none up", ErrNoReplicas, id, len(ri.reps))
			}
			return nil, errRetry
		}
		refs = append(refs, ri)
	}
	s.refs = refs

	// Dynamic filter + gravity scoring.
	type cand struct {
		name     string
		costMS   float64
		locality string
		loadFrac float64
	}
	var best cand
	found := false
	for _, name := range static {
		n := s.fab.Cluster.Node(name)
		if !n.Ready || !w.Req.Fits(n.Available()) {
			continue
		}
		costMS, locality, ok := s.gravityLocked(refs, name, n.Site)
		if !ok {
			continue
		}
		c := cand{name: name, costMS: costMS, locality: locality,
			loadFrac: n.Allocated().CPU / n.Capacity.CPU}
		if !found ||
			c.costMS < best.costMS-1e-12 ||
			(c.costMS < best.costMS+1e-12 && (c.loadFrac < best.loadFrac-1e-12 ||
				(c.loadFrac < best.loadFrac+1e-12 && c.name < best.name))) {
			best, found = c, true
		}
	}
	if !found {
		if firstTry {
			s.parked = append(s.parked, w)
		}
		return nil, errRetry
	}

	if err := s.fab.Cluster.Claim(best.name, w.JobID, w.Req); err != nil {
		// Lost a race with concurrent state change; park rather than fail.
		if firstTry {
			s.parked = append(s.parked, w)
		}
		return nil, errRetry
	}
	s.ownerAdd(w.Owner, w.Req)
	s.bound[w.JobID] = &binding{node: best.name, w: w}

	spec := s.fab.nodes[best.name]
	pl := &api.Placement{
		Node:       best.name,
		Site:       spec.Site,
		Locality:   best.locality,
		Score:      -best.costMS,
		TransferMS: best.costMS,
		EstJoules:  s.estJoules(w, spec),
		Requeues:   s.requeues[w.JobID],
	}
	s.placed[best.locality]++
	return pl, nil
}

// errRetry is the internal "not now" sentinel: parked retries that still
// cannot place return it so tryParkedLocked keeps them parked. It never
// escapes the package (Place maps parked admissions to (nil, nil)).
var errRetry = errors.New("sched: retry later")

// gravityLocked scores staging the refs onto node: 0 for replica-local, the
// LAN for same-site, and latency + size/bottleneck over the netsim path for
// remote replicas. ok=false means some ref has no reachable up replica from
// this node. s.mu held.
func (s *Scheduler) gravityLocked(refs []refInfo, node, site string) (costMS float64, locality string, ok bool) {
	if len(refs) == 0 {
		return 0, api.LocalityAny, true
	}
	locality = api.LocalityReplicaLocal
	for _, ri := range refs {
		refCost, refClass, reachable := s.refGravityLocked(ri, node, site)
		if !reachable {
			return 0, "", false
		}
		costMS += refCost
		// The job's class is its worst ref's class.
		if rank(refClass) > rank(locality) {
			locality = refClass
		}
	}
	return costMS, locality, true
}

func rank(class string) int {
	switch class {
	case api.LocalityReplicaLocal:
		return 0
	case api.LocalitySameSite:
		return 1
	default:
		return 2
	}
}

func (s *Scheduler) refGravityLocked(ri refInfo, node, site string) (costMS float64, class string, ok bool) {
	bestRemote := -1.0
	sameSite := false
	for _, rep := range ri.reps {
		if !rep.Up {
			continue
		}
		if s.fab.osdNode[rep.OSD] == node {
			return 0, api.LocalityReplicaLocal, true
		}
		if rep.Site == site {
			sameSite = true
			continue
		}
		// Remote: pay path latency plus serialization at the bottleneck.
		path := s.fab.Net.Path(rep.Site, site)
		if path == nil {
			continue
		}
		ms := 0.0
		bottleneck := -1.0
		for _, l := range path {
			ms += float64(l.Latency) / float64(time.Millisecond)
			if cap := l.EffectiveCapacity(); bottleneck < 0 || cap < bottleneck {
				bottleneck = cap
			}
		}
		if bottleneck <= 0 {
			// Path exists but is fully degraded (down or 100% loss): the
			// replica is unreachable for staging purposes.
			continue
		}
		ms += ri.bytes / bottleneck * 1000
		if bestRemote < 0 || ms < bestRemote {
			bestRemote = ms
		}
	}
	if sameSite {
		return ri.bytes / lanBytesPerSec * 1000, api.LocalitySameSite, true
	}
	if bestRemote >= 0 {
		return bestRemote, api.LocalityRemote, true
	}
	return 0, "", false
}

// estJoules estimates board energy for the workload on the node's device.
func (s *Scheduler) estJoules(w *Workload, spec *NodeSpec) float64 {
	if w.Voxels <= 0 {
		return 0
	}
	devices := w.Req.GPUs
	if devices < 1 {
		devices = 1
	}
	if w.Kind == api.KindSegment {
		return spec.Model.InferEnergyJoules(w.Voxels, devices)
	}
	return spec.Model.EnergyJoules(spec.Model.PrepTime(w.Voxels), 1)
}

// onNodeEvent handles cluster node transitions. It only ever fires from
// Cluster calls made by this scheduler, so s.mu is already held.
func (s *Scheduler) onNodeEvent(ev cluster.NodeEvent) {
	if ev.Ready {
		// Restore callback first, parked retries second: observers recreate
		// the node's worker pool in the restore callback, and a bind
		// delivered ahead of it would land on a node with no pool and
		// strand the job.
		if s.restoreFn != nil {
			fn, node := s.restoreFn, ev.Node
			s.cbs = append(s.cbs, func() { fn(node) })
		}
		s.tryParkedLocked()
		return
	}
	var drained []string
	for _, id := range ev.DroppedClaims {
		b, ok := s.bound[id]
		if !ok {
			continue
		}
		delete(s.bound, id)
		s.ownerSub(b.w.Owner, b.w.Req)
		s.requeues[id]++
		s.requeued++
		drained = append(drained, id)
	}
	sort.Strings(drained)
	if s.drainFn != nil {
		// Fire even with no drained jobs: observers tear down per-node
		// worker pools on any node loss.
		fn, node := s.drainFn, ev.Node
		s.cbs = append(s.cbs, func() { fn(node, drained) })
	}
}

// tryParkedLocked retries parked workloads FIFO; placed ones leave the lot
// and notify via OnBind. s.mu held.
func (s *Scheduler) tryParkedLocked() {
	if len(s.parked) == 0 {
		return
	}
	var still []*Workload
	for _, w := range s.parked {
		pl, err := s.placeLocked(w, false)
		if err != nil || pl == nil {
			still = append(still, w)
			continue
		}
		if s.bindFn != nil {
			fn, id := s.bindFn, w.JobID
			s.cbs = append(s.cbs, func() { fn(id, pl) })
		}
	}
	s.parked = still
}
