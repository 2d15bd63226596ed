package service

import (
	"fmt"

	"chaseci/internal/api"
	"chaseci/internal/queue"
	"chaseci/internal/sched"
)

// Cluster mode: each fabric node runs its own worker pool over a node-scoped
// weighted-fair queue, and the sched.Scheduler decides which queue a job
// lands on by data gravity. Node loss drains the node's pool and requeues
// its jobs through placement against the surviving replicas.

// NewClusterRunnerConfigured builds and starts a Runner that places jobs on
// the fabric's nodes, each with its own pool of cfg.Workers goroutines. The
// fabric's dataset manager becomes the runner's data plane (cfg.Datasets is
// ignored), so submitted refs and OSD replica placement live in the same
// store the scheduler scores against. As in NewRunnerConfigured, the
// *queue.Store argument is unused (pass nil).
func NewClusterRunnerConfigured(reg *Registry, _ *queue.Store, fab *sched.Fabric, cfg RunnerConfig) *Runner {
	r := newRunner(reg, fab.Datasets, cfg, 2)
	r.sched = sched.New(fab)
	r.disp = clusterDispatch{r}
	r.pools = make(map[string]*nodePool)
	r.drains = make(map[string]bool)
	r.sched.OnBind(r.onBind)
	r.sched.OnDrain(r.onDrain)
	r.sched.OnRestore(r.onRestore)
	for _, node := range fab.NodeNames() {
		r.pools[node] = r.startPool()
	}
	return r
}

// clusterDispatch is the cluster dispatcher: placement by the scheduler,
// delivery by bindJob. The state it works on (sched, pools, drains, under
// r.mu) stays on the Runner, where the scheduler's callbacks below use it.
type clusterDispatch struct{ r *Runner }

// admit places the job while Submit holds the shard lock: Place never
// dispatches callbacks on this path, and the lock serializes against Close's
// closed flip so a placed job is always visible to Close's scan. A nil
// placement with no error means parked — the scheduler's OnBind callback
// delivers the job to a node pool once capacity frees up.
func (d clusterDispatch) admit(j *job) (*api.Placement, error) {
	j.wl = d.r.workloadFor(j)
	return d.r.sched.Place(j.wl)
}

func (d clusterDispatch) kick(j *job, pl *api.Placement) {
	if pl != nil {
		d.r.bindJob(j, pl)
	}
}

func (d clusterDispatch) release(id string)               { d.r.sched.Release(id) }
func (d clusterDispatch) drained(id string) bool          { return d.r.takeDrain(id) }
func (d clusterDispatch) liveClaims() map[string][]string { return d.r.sched.LiveClaims() }
func (d clusterDispatch) metricsText() string             { return d.r.sched.MetricsText() }

// workloadFor builds the scheduler's view of a job: its pinned refs, an
// input-size estimate for the energy model, and the caller's constraints.
func (r *Runner) workloadFor(j *job) *sched.Workload {
	return &sched.Workload{
		JobID:  j.id,
		Kind:   j.kind,
		Owner:  j.owner,
		Refs:   append([]string(nil), j.refs...),
		Voxels: r.jobVoxels(j.req),
		Spec:   j.req.Placement,
	}
}

// jobVoxels estimates the job's input volume for the placement energy
// estimate (0 = unknown).
func (r *Runner) jobVoxels(req *api.JobRequest) float64 {
	src := func(v *api.VolumeSource) float64 {
		switch {
		case v.Ref != "":
			if info, ok := r.datasets.Stat(v.Ref); ok {
				return float64(info.D) * float64(info.H) * float64(info.W)
			}
			return 0
		case v.Synth != nil:
			return float64(v.Synth.NLon) * float64(v.Synth.NLat) * float64(v.Synth.Steps)
		default:
			return float64(v.D) * float64(v.H) * float64(v.W)
		}
	}
	switch {
	case req.Segment != nil:
		return src(&req.Segment.Source)
	case req.Label != nil:
		return src(&req.Label.Source)
	case req.IVT != nil:
		s := req.IVT.Synth
		return float64(s.NLon) * float64(s.NLat) * float64(s.Steps)
	default:
		return 0
	}
}

// bindJob publishes a placement decision and hands the job to the chosen
// node's pool. If the node died between the decision and the enqueue, the
// job is sent back through placement instead of stranding on a dead queue.
func (r *Runner) bindJob(j *job, pl *api.Placement) {
	j.placement.Store(pl)
	j.watchers.notify()
	r.mu.Lock()
	pool := r.pools[pl.Node]
	if pool != nil {
		// Push under r.mu: the drain path deletes the pool and sweeps its
		// queue under the same mutex discipline, so an id pushed here is
		// either popped by a live pool or reclaimed by the drain's sweep —
		// never stranded.
		pool.fq.Push(j.owner, j.id)
	}
	r.mu.Unlock()
	if pool == nil {
		// The scheduler already unbound the job when the node died; the
		// drain marker tells us whether this path owns the requeue.
		if r.takeDrain(j.id) {
			r.rePlace(j)
		}
		return
	}
	pool.wakeOne()
}

// takeDrain consumes the job's drain marker (set when its node was lost).
// Exactly one caller sees true per drain, making the requeue exactly-once.
func (r *Runner) takeDrain(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.drains[id] {
		return false
	}
	delete(r.drains, id)
	return true
}

// requeueJob resets a drained job to queued and runs placement again. The
// job's refs stay pinned across the requeue — re-placement resolves them
// against the surviving replicas.
func (r *Runner) requeueJob(j *job) {
	if !j.state.CompareAndSwap(codeRunning, codeQueued) {
		return
	}
	j.started.Store(0)
	j.done.Store(0)
	j.total.Store(0)
	empty := ""
	j.stage.Store(&empty)
	r.gaugeAdd("jobs_running", j.kind, -1)
	r.pendingAdd(j, +1)
	r.count("jobs_requeued", j.kind)
	j.watchers.notify()
	r.rePlace(j)
}

// maxPlacementRetries caps how many drain-requeue cycles a single job may
// survive before it goes terminal failed. Without the budget, a fault
// pattern that keeps killing whichever node a job lands on would bounce the
// job (and its pinned refs) through placement forever.
const maxPlacementRetries = 5

// rePlace runs placement for an already-admitted queued job (after a drain
// or a late bind race). Placement failure is terminal: the cluster shrank
// below the job's static needs. A job over its requeue budget is failed
// rather than re-placed.
func (r *Runner) rePlace(j *job) {
	var pl *api.Placement
	var err error
	if n := r.sched.Requeues(j.id); n > maxPlacementRetries {
		err = fmt.Errorf("placement retry budget exhausted (%d requeues > %d allowed)",
			n, maxPlacementRetries)
	} else {
		pl, err = r.sched.Place(j.wl)
	}
	if err != nil {
		r.endUnrun(j, codeFailed, fmt.Sprintf("placement lost after node failure: %v", err))
		return
	}
	if pl == nil {
		return // parked; OnBind delivers it when capacity frees
	}
	r.bindJob(j, pl)
}

// onBind delivers a parked job's placement (fires outside sched's lock).
func (r *Runner) onBind(id string, pl *api.Placement) {
	j := r.lookupJob(id)
	r.mu.Lock()
	closed := r.closed
	r.mu.Unlock()
	if j == nil || closed || j.state.Load() != codeQueued {
		r.sched.Release(id)
		return
	}
	r.bindJob(j, pl)
}

// onDrain tears down a lost node's pool and requeues everything that was
// bound there: running jobs via their context cancellation (execute's
// requeue path), queued jobs via the queue sweep below.
func (r *Runner) onDrain(node string, ids []string) {
	r.mu.Lock()
	pool := r.pools[node]
	delete(r.pools, node)
	for _, id := range ids {
		r.drains[id] = true
	}
	r.mu.Unlock()
	// Outside r.mu: the job lookup takes a shard mutex, and the two are
	// never held together. The scheduler has already unbound these jobs, so
	// whoever waits on one to be parked or re-bound looks again.
	for _, id := range ids {
		if j := r.lookupJob(id); j != nil {
			if cancel := j.cancel.Load(); cancel != nil {
				(*cancel)()
			}
			j.watchers.notify()
		}
	}
	if pool == nil {
		return
	}
	pool.stop()
	pool.wakeOne()
	// Sweep the dead node's pending queue. Jobs a pool worker popped before
	// the stop requeue themselves through execute's drain check; everything
	// still queued is reclaimed here.
	for _, id := range pool.fq.PopAll() {
		j := r.lookupJob(id)
		if j == nil || j.state.Load() != codeQueued {
			continue
		}
		if r.takeDrain(id) {
			r.rePlace(j)
		}
	}
}

// onRestore restarts a returned node's pool.
func (r *Runner) onRestore(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	if _, live := r.pools[node]; !live {
		r.pools[node] = r.startPool()
	}
}

// --- Cluster-mode accessors (gateway / CLI surface) -------------------------

// ClusterMode reports whether this runner places jobs on a fabric.
func (r *Runner) ClusterMode() bool { return r.sched != nil }

// Scheduler returns the placement scheduler (nil on single-node runners).
func (r *Runner) Scheduler() *sched.Scheduler { return r.sched }

// Nodes returns the fabric inventory (nil on single-node runners).
func (r *Runner) Nodes() []api.NodeStatus {
	if r.sched == nil {
		return nil
	}
	return r.sched.Nodes()
}

// DrainNode simulates losing a fabric node: its OSD fails, its pool stops,
// and its jobs requeue through placement.
func (r *Runner) DrainNode(name string) error {
	if r.sched == nil {
		return fmt.Errorf("service: not a cluster runner")
	}
	return r.sched.KillNode(name)
}

// RestoreNode brings a drained node (and its OSD) back.
func (r *Runner) RestoreNode(name string) error {
	if r.sched == nil {
		return fmt.Errorf("service: not a cluster runner")
	}
	return r.sched.RestoreNode(name)
}
