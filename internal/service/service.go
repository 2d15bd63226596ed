// Package service executes Job API requests (internal/api) against the
// real compute kernels. A Registry maps job kinds to handlers; a Runner
// owns a pool of worker goroutines that drain a weighted-fair pending
// queue and execute each job under a cancellable context.Context with
// kernel-reported progress (the chased HTTP gateway fronts the Runner).
// The Runner's job index is the one record of a job: the 50,000 most
// recently finished jobs resolve by id, with their status and result, and
// older ones are gone.
//
// Scale model: the job registry is lock-striped (see shards.go) so status
// polls, submits, and terminal transitions on different jobs never contend
// on one mutex; admission control (admission.go) bounds per-tenant and
// global pending queues and sheds with ErrOverloaded instead of growing
// without bound; dispatch order is weighted-fair across tenants
// (fairqueue.go) so a flooding identity cannot starve a light one; metrics
// are a fixed table of atomic integers (counters.go), touched without a
// lock, a clock or an allocation.
//
// Execution model: one core — Submit, the worker loop, execute, Cancel,
// Close — runs over worker pools (dispatch.go). A single-node and a cluster
// runner differ only in where a job is queued, which sits behind the
// dispatcher seam: the local dispatcher pushes every job onto its one pool;
// the cluster dispatcher (cluster.go) asks sched.Scheduler for a node,
// pushes onto that node's pool, and requeues through placement when a node
// is lost. The constructor called decides which one a Runner has.
//
// Waiting: there is one way to learn that a job changed — Runner.Await
// (watch.go). Every state transition, placement and Progress call wakes the
// job's watchers, and a woken watcher re-reads the snapshot Status serves;
// nothing is queued per event, a job carries one pointer for it, and with
// nobody watching a wake is one atomic load. The gateway's events stream, a
// sweep parent waiting on its children, internal/core, the scenario engine,
// `chased submit -wait` (through the events stream) and the tests all park
// on it; nothing in the server polls a job on a timer.
//
// Lock ordering: r.mu (cluster control plane; the local dispatcher never
// takes it) and shard mutexes are never held together; r.evictMu is taken
// before a shard mutex, never under one; the fair queues' internal mutexes
// are leaves.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"chaseci/internal/api"
	"chaseci/internal/dataset"
	"chaseci/internal/queue"
	"chaseci/internal/sched"
)

// ErrClosed is returned by Submit after the Runner has been closed.
var ErrClosed = errors.New("service: runner closed")

// maxRetainedJobs bounds the Runner's job index: once exceeded, the
// earliest-finished terminal jobs (with their result payloads) are evicted,
// so the 50,000 most recently finished jobs resolve by id. A retained
// terminal job costs about 0.5 KB of heap (TestRetainedJobHeap), so a full
// index is about 26 MB.
const maxRetainedJobs = 50000

// maxListedJobs bounds List: GET /v1/jobs returns the newest jobs only, so
// its reply stays a few MB however many jobs the index holds.
const maxListedJobs = 10000

// Handler executes one job kind. It must honor jc.Ctx() cancellation
// promptly and may report progress through jc.Progress. The returned value
// is JSON-marshalled into the job's result; returning a non-nil value
// together with ctx.Err() records a partial result for a cancelled job.
type Handler func(jc *JobContext) (any, error)

// Registry maps job kinds to handlers. It is safe for concurrent use;
// registering an already-registered kind replaces the handler (tests use
// this to stub built-ins).
type Registry struct {
	mu       sync.RWMutex
	handlers map[api.Kind]Handler
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{handlers: make(map[api.Kind]Handler)}
}

// Register installs a handler for kind.
func (r *Registry) Register(kind api.Kind, h Handler) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.handlers[kind] = h
}

// Handler looks up the handler for kind.
func (r *Registry) Handler(kind api.Kind) (Handler, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	h, ok := r.handlers[kind]
	return h, ok
}

// Kinds lists registered kinds sorted lexically.
func (r *Registry) Kinds() []api.Kind {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]api.Kind, 0, len(r.handlers))
	for k := range r.handlers {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// state codes; indexes into stateNames. Stored in an atomic so the
// status-poll path reads without locking.
const (
	codeQueued int32 = iota
	codeRunning
	codeSucceeded
	codeFailed
	codeCancelled
	// codeEnding is a queued job that endUnrun has claimed and is still
	// giving back what it holds; it reads queued until that is done.
	codeEnding
)

var stateNames = [...]api.State{
	api.StateQueued, api.StateRunning, api.StateSucceeded, api.StateFailed, api.StateCancelled,
	api.StateQueued,
}

// job is the Runner's in-memory record. Progress and lifecycle fields are
// atomics so Status snapshots allocate nothing and never block a running
// handler.
type job struct {
	id    string
	seq   int64 // submit order, from the runner's id counter
	kind  api.Kind
	name  string
	owner string
	req   *api.JobRequest
	// refs are the source datasets pinned at submit; released (by exactly
	// one of the terminal transitions) when the job can no longer run.
	refs []string

	state                        atomic.Int32
	done, total                  atomic.Int64
	stage                        atomic.Pointer[string]
	submitted, started, finished atomic.Int64 // wall clock, UnixNano
	errMsg                       atomic.Pointer[string]
	// cancel stops the running handler; set by execute before the state
	// leaves queued and cleared when the handler has returned, so it is
	// non-nil exactly while there is something to cancel.
	cancel atomic.Pointer[context.CancelFunc]

	// Cluster-mode fields. wl is the scheduler's view of the job, built once
	// at submit and reused on every re-placement; placement holds the latest
	// (immutable) decision; userCancel distinguishes a caller's Cancel from a
	// drain-induced context cancellation so only the former is terminal.
	wl         *sched.Workload
	placement  atomic.Pointer[api.Placement]
	userCancel atomic.Bool

	// watchers is woken after every change a Status snapshot can show
	// (watch.go).
	watchers watchList

	mu     sync.Mutex
	result json.RawMessage
}

// JobContext is a running handler's view of its job: the cancellation
// context, progress reporting, and the data plane.
type JobContext struct {
	ctx      context.Context
	job      *job
	datasets *dataset.Manager
	runner   *Runner
}

// Ctx returns the job's cancellation context. Handlers must pass it to the
// context-aware kernel entrypoints.
func (jc *JobContext) Ctx() context.Context { return jc.ctx }

// Request returns the validated job request.
func (jc *JobContext) Request() *api.JobRequest { return jc.job.req }

// Datasets returns the runner's content-addressed dataset manager, against
// which handlers resolve source refs and offload ref-mode results.
func (jc *JobContext) Datasets() *dataset.Manager { return jc.datasets }

// Owner returns the authenticated identity the job was submitted under,
// recorded on datasets the job stores.
func (jc *JobContext) Owner() string { return jc.job.owner }

// RefMode reports whether the job asked for ref-mode results.
func (jc *JobContext) RefMode() bool { return jc.job.req.ResultMode == api.ResultModeRef }

// Progress records kernel progress (total 0 = unknown) and the current
// stage. It is cheap — atomic stores, one atomic load to find that nobody is
// watching, and an allocation only when the stage changes — and safe to call
// from multiple goroutines, so kernel callbacks can invoke it directly.
func (jc *JobContext) Progress(done, total int64, stage string) {
	j := jc.job
	j.done.Store(done)
	j.total.Store(total)
	if p := j.stage.Load(); p == nil || *p != stage {
		s := stage // the copy escapes, not the parameter
		j.stage.Store(&s)
	}
	j.watchers.notify()
}

// RunnerConfig tunes a Runner. The zero value of every field means
// "default"; negative bounds mean unlimited.
type RunnerConfig struct {
	// Workers is the size of each worker pool: the one pool of a
	// single-node runner (<= 0 defaults to 4), or every node's pool on a
	// cluster runner (<= 0 defaults to 2).
	Workers int
	// Datasets is the content-addressed data plane every ref in requests
	// and results resolves against (nil = a private local store; cluster
	// runners always use the fabric's).
	Datasets *dataset.Manager
	// MaxPendingPerTenant / MaxPending bound the pending queues; submits
	// beyond a bound shed with ErrOverloaded (0 = defaults, < 0 =
	// unlimited).
	MaxPendingPerTenant int
	MaxPending          int
	// TenantWeights sets weighted-fair dispatch shares (unlisted tenants
	// weigh 1).
	TenantWeights map[string]int
}

func (cfg RunnerConfig) bound(v, def int) int {
	switch {
	case v == 0:
		return def
	case v < 0:
		return 0 // unlimited in admission terms
	default:
		return v
	}
}

// Runner executes submitted jobs on worker pools: one pool on a single-node
// runner, one per live fabric node on a cluster runner.
type Runner struct {
	reg      *Registry
	workers  int // goroutines per pool
	datasets *dataset.Manager
	nets     *netCache // inference networks shared across jobs (netcache.go)

	// disp decides where an admitted job is queued (dispatch.go).
	disp dispatcher

	// sched places jobs on fabric nodes (nil on single-node runners).
	sched *sched.Scheduler

	// retries is the transient-error retry loop's policy + jitter stream.
	retries *retryState

	// Sharded job registry (shards.go): jobs are striped by job-id hash;
	// seq numbers them, njobs tracks the total, retain the cap, and
	// evictOrder queues the terminal ones in finish order, the order they
	// are evicted in.
	shards     [regShards]regShard
	seq        atomic.Int64
	njobs      atomic.Int64
	retain     atomic.Int64
	evictMu    sync.Mutex
	evictOrder evictFIFO // under evictMu

	// Admission control; every pool's fair queue takes its weights.
	adm     *admission
	streams atomic.Int64 // live NDJSON event streams (gateway-reported)

	// anyJob is woken when some job is queued (a waiting sweep parent has
	// something to steal), leaves the queue (a shed submit has room) or ends
	// (a parent's child may be done). watches counts open watches for
	// LeakCheck.
	anyJob  watchList
	watches atomic.Int64

	// mu guards the cluster control plane only; never held together with a
	// shard mutex. pools holds one worker pool per live node, drains marks
	// jobs knocked off a lost node so exactly one path requeues each, and
	// closed settles restore/bind races with Close.
	mu     sync.Mutex
	pools  map[string]*nodePool
	drains map[string]bool
	closed bool

	met *counterTable // counters.go

	baseCtx context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup
}

// NewRunnerConfigured builds and starts a single-node Runner: one worker
// pool of cfg.Workers goroutines draining one weighted-fair queue. The
// store argument is unused (pass nil): the job index is the one record of
// a job. The parameter stays until the benchmark program, which passes a
// store, stops doing so.
func NewRunnerConfigured(reg *Registry, _ *queue.Store, cfg RunnerConfig) *Runner {
	ds := cfg.Datasets
	if ds == nil {
		ds = dataset.NewLocal()
	}
	r := newRunner(reg, ds, cfg, 4)
	r.disp = localDispatch{r.startPool()}
	return r
}

// newRunner builds everything single-node and cluster runners share: the
// sharded registry, admission control, the counter table, and the lifecycle
// context. The caller installs the dispatcher and starts its pools.
func newRunner(reg *Registry, ds *dataset.Manager, cfg RunnerConfig, defaultWorkers int) *Runner {
	baseCtx, stop := context.WithCancel(context.Background())
	r := &Runner{
		reg:      reg,
		workers:  cfg.Workers,
		datasets: ds,
		nets:     newNetCache(netCacheBytes),
		retries:  newRetryState(),
		adm: newAdmission(
			cfg.bound(cfg.MaxPendingPerTenant, defaultMaxPendingPerTenant),
			cfg.bound(cfg.MaxPending, defaultMaxPending),
			cfg.TenantWeights,
		),
		met:     newCounterTable(),
		baseCtx: baseCtx,
		stop:    stop,
	}
	if r.workers <= 0 {
		r.workers = defaultWorkers
	}
	for i := range r.shards {
		r.shards[i].jobs = make(map[string]*job)
	}
	r.retain.Store(maxRetainedJobs)
	return r
}

// Close stops every worker pool: running jobs are cancelled through their
// contexts, and jobs still queued — on a pool's queue, parked unplaced, or
// landed by a racing Submit after the closed check — are marked cancelled
// rather than stranded "queued" forever. Close blocks until every worker has
// exited.
func (r *Runner) Close() {
	// Flip the control-plane flag first so node pools cannot be recreated
	// by a racing restore while the wait group is draining, then every
	// shard's flag under its own mutex: a Submit holding a shard lock
	// either observes closed (and refuses) or completed its insert+enqueue
	// beforehand, in which case the scan below sees it.
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		sh.closed = true
		sh.mu.Unlock()
	}
	r.stop()
	r.wg.Wait()
	var queued []*job
	r.eachJob(func(j *job) {
		if j.state.Load() == codeQueued {
			queued = append(queued, j)
		}
	})
	for _, j := range queued {
		r.endUnrun(j, codeCancelled, ErrClosed.Error())
	}
}

// terminalMetric names the per-kind counter each terminal state increments.
var terminalMetric = [...]string{
	codeSucceeded: "jobs_succeeded", codeFailed: "jobs_failed", codeCancelled: "jobs_cancelled",
}

// endUnrun ends a queued job that will never run (Cancel, Close, a failed
// re-placement), paying what execute's completion would have: the pins, the
// pending counts, the terminal counter, any node claim.
// The CAS makes it exactly-once against a worker's queued→running and
// against the other callers; false means one of them won. As in execute, the
// terminal state is published (finish) after everything has been given back:
// a waiter woken by the requeue that led here reads the job within
// microseconds, and "terminal" must already mean "nothing left to release".
func (r *Runner) endUnrun(j *job, final int32, msg string) bool {
	if !j.state.CompareAndSwap(codeQueued, codeEnding) {
		return false
	}
	r.releaseJobRefs(j)
	r.pendingAdd(j, -1)
	r.count(terminalMetric[final], j.kind)
	r.disp.release(j.id)
	j.errMsg.Store(&msg)
	r.finish(j, final)
	return true
}

// finish publishes a job's terminal state, last of all, so whoever reads
// the state as terminal — a poller, or a watcher that an earlier change
// woke — already finds the counters and everything the job held given
// back. The job joins the eviction queue just before, so the queue's order
// is the order in which jobs are seen to end.
func (r *Runner) finish(j *job, final int32) {
	j.finished.Store(time.Now().UnixNano())
	r.observeDuration(j)
	r.evictMu.Lock()
	r.evictOrder.push(j.id)
	r.evictMu.Unlock()
	j.state.Store(final)
	j.watchers.notify()
	r.anyJob.notify()
}

// releaseJobRefs unpins the job's source datasets. Exactly one terminal
// transition calls it per job — execute's completion or endUnrun — so
// each submit-time Pin is matched by one Unpin.
func (r *Runner) releaseJobRefs(j *job) {
	for _, ref := range j.refs {
		r.datasets.Unpin(ref)
	}
	j.refs = nil
}

// Submit validates req, reserves admission for its tenant, registers it as
// a queued job, and wakes the worker pool. owner is the authenticated
// identity recorded on the job; when its pending bound (or the global one)
// is full the submit sheds with an error unwrapping to ErrOverloaded.
//
// The returned status is a snapshot taken at return, after the pool was
// woken: a worker may already have picked the job up, so the ack can read
// queued or running (or, for a job that short, terminal). Callers that need
// "accepted" check the error and the id, not State == queued.
func (r *Runner) Submit(req *api.JobRequest, owner string) (api.JobStatus, error) {
	if r.baseCtx.Err() != nil {
		return api.JobStatus{}, ErrClosed
	}
	if err := req.Validate(); err != nil {
		return api.JobStatus{}, err
	}
	if _, ok := r.reg.Handler(req.Kind); !ok {
		return api.JobStatus{}, fmt.Errorf("service: no handler registered for kind %q", req.Kind)
	}
	// Admission first: the bound check-and-reserve is atomic, so the
	// pending count can never overshoot the cap no matter how many submits
	// race. Every refusal below this point must repay the reservation.
	if err := r.adm.tryReserve(owner); err != nil {
		r.countTenant("jobs_shed", owner)
		return api.JobStatus{}, err
	}
	// Dangling and mistyped refs fail fast at submit (same ErrInvalid
	// surface as schema problems) instead of minutes later on a worker.
	// Each ref is pinned (before the check, so a concurrent delete cannot
	// slip between the two) until the job reaches a terminal state — a ref
	// accepted here is still resolvable when a worker finally runs the job.
	refs := req.Refs()
	sources := len(refs) // Refs puts the checkpoint ref, if any, last
	if req.CheckpointRef() != "" {
		sources--
	}
	for i, ref := range refs {
		r.datasets.Pin(ref)
		if err := r.checkRef(ref, owner, i >= sources); err != nil {
			r.refuse(refs[:i+1], owner)
			return api.JobStatus{}, err
		}
	}
	seq := r.seq.Add(1)
	j := &job{
		id:    fmt.Sprintf("job-%06d", seq),
		seq:   seq,
		kind:  req.Kind,
		name:  req.Name,
		owner: owner,
		req:   req,
		refs:  refs,
	}
	j.state.Store(codeQueued)
	j.submitted.Store(time.Now().UnixNano())

	// Admit and insert under the job's shard mutex — the same one Close
	// flips the shard's closed flag under — so a job is either refused or
	// visible to Close's scan, never stranded queued with no worker left to
	// pop it.
	sh := r.shardFor(j.id)
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		r.refuse(refs, owner)
		return api.JobStatus{}, ErrClosed
	}
	// Admit before the insert: a refusal (unschedulable / over quota) then
	// leaves nothing to undo, and a worker or bind callback that gets the id
	// first waits on this shard mutex in lookupJob until the job is there.
	pl, err := r.disp.admit(j)
	if err != nil {
		sh.mu.Unlock()
		r.refuse(refs, owner)
		return api.JobStatus{}, err
	}
	sh.jobs[j.id] = j
	r.njobs.Add(1)
	sh.mu.Unlock()

	r.count("jobs_submitted", j.kind)
	r.pendingGauges(j, +1)
	r.disp.kick(j, pl)
	return r.statusOf(j), nil
}

// checkRef is Submit's test of one ref: owner may see it, and it names the
// kind of dataset its place in the request reads — a checkpoint where a
// network is loaded, a volume or a mask where a field is. VisibleTo also
// enforces the gateway's dataset ownership scope — otherwise a caller who
// learned another identity's ref could compute over (and read derivatives
// of) data GET /v1/datasets/{id} would refuse them. Missing and forbidden
// refs produce the same message, so submit is not an existence oracle for
// private refs. The kind is read from the store's metadata: no payload is
// touched and, on the accepting path, nothing is allocated.
func (r *Runner) checkRef(ref, owner string, checkpoint bool) error {
	if !r.datasets.VisibleTo(ref, owner) {
		return fmt.Errorf("%w: source ref %s is not in the dataset store", api.ErrInvalid, ref)
	}
	info, _ := r.datasets.Stat(ref) // pinned and visible: it is there
	if (info.Kind == dataset.KindCheckpoint.String()) != checkpoint {
		want := "volume or mask"
		if checkpoint {
			want = dataset.KindCheckpoint.String()
		}
		return fmt.Errorf("%w: ref %s is a %s dataset, want %s", api.ErrInvalid, ref, info.Kind, want)
	}
	return nil
}

// refuse repays what Submit took before it turned a request away: the pins
// (without this they would outlive any job and make the refs permanently
// undeletable) and the admission reservation.
func (r *Runner) refuse(pinned []string, owner string) {
	for _, ref := range pinned {
		r.datasets.Unpin(ref)
	}
	r.adm.add(owner, -1)
	r.anyJob.notify() // a shed submit waiting for room may now fit
}

// Status returns a job's poll snapshot. The path is allocation-free: a
// shard hash, a map lookup, and atomic loads into a flat value struct
// (BenchmarkStatusPoll locks this in).
func (r *Runner) Status(id string) (api.JobStatus, bool) {
	j := r.lookupJob(id)
	if j == nil {
		return api.JobStatus{}, false
	}
	return r.statusOf(j), true
}

// Datasets returns the runner's content-addressed dataset manager — the
// gateway serves PUT/GET /v1/datasets against it.
func (r *Runner) Datasets() *dataset.Manager { return r.datasets }

// Count returns the number of jobs this runner holds.
func (r *Runner) Count() int { return int(r.njobs.Load()) }

// List returns the statuses of the maxListedJobs newest jobs in submit
// order.
func (r *Runner) List() []api.JobStatus {
	jobs := make([]*job, 0, r.njobs.Load())
	r.eachJob(func(j *job) { jobs = append(jobs, j) })
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].seq < jobs[b].seq })
	jobs = jobs[max(0, len(jobs)-maxListedJobs):]
	out := make([]api.JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = r.statusOf(j)
	}
	return out
}

// Result returns a job's result payload (nil until one is recorded) and
// its current status. The status is read first: a worker records the
// result before it publishes the terminal state, so a terminal status
// never comes with a missing result.
func (r *Runner) Result(id string) (json.RawMessage, api.JobStatus, bool) {
	j := r.lookupJob(id)
	if j == nil {
		return nil, api.JobStatus{}, false
	}
	st := r.statusOf(j)
	j.mu.Lock()
	raw := j.result
	j.mu.Unlock()
	return raw, st, true
}

// Cancel stops a job: a queued job is marked cancelled before it ever
// runs, and a running job has its context cancelled (the terminal state
// lands when the handler returns). It reports false for unknown or
// already-terminal jobs.
func (r *Runner) Cancel(id string) bool {
	j := r.lookupJob(id)
	if j == nil {
		return false
	}
	// Mark the caller's intent before touching state: the cluster-mode
	// requeue path must not resurrect a job whose context died because the
	// user cancelled it (vs. because its node drained).
	j.userCancel.Store(true)
	if r.endUnrun(j, codeCancelled, "cancelled before start") {
		return true
	}
	// Not queued, so execute() already registered the cancel func (it does
	// so before flipping the state to running); nil means the job is
	// terminal or in its final bookkeeping.
	if cancel := j.cancel.Load(); cancel != nil {
		(*cancel)()
		return true
	}
	return false
}

// statusOf is the job's snapshot. The finish time and the error are stored
// before the terminal state is published and reported only with it, so no
// snapshot shows a running job that has ended.
func (r *Runner) statusOf(j *job) api.JobStatus {
	st := api.JobStatus{
		ID:          j.id,
		Kind:        j.kind,
		Name:        j.name,
		Owner:       j.owner,
		State:       stateNames[j.state.Load()],
		Done:        j.done.Load(),
		Total:       j.total.Load(),
		SubmittedAt: j.submitted.Load(),
		StartedAt:   j.started.Load(),
		Placement:   j.placement.Load(),
	}
	if p := j.stage.Load(); p != nil {
		st.Stage = *p
	}
	if st.State.Terminal() {
		st.FinishedAt = j.finished.Load()
		if p := j.errMsg.Load(); p != nil {
			st.Error = *p
		}
	}
	return st
}

// dropCancel cancels a job's context and unregisters the cancel func: after
// it, Cancel and a node drain can no longer reach the handler.
func dropCancel(j *job, cancel context.CancelFunc) {
	cancel()
	j.cancel.Store(nil)
}

func (r *Runner) execute(id string) {
	j := r.lookupJob(id)
	if j == nil {
		return // foreign id enqueued out of band
	}
	// Register the cancel func before flipping to running so Cancel always
	// finds it for a non-queued, non-terminal job.
	ctx, cancel := context.WithCancel(r.baseCtx)
	j.cancel.Store(&cancel)
	// Cancelled-while-queued jobs are already terminal; skip them.
	if !j.state.CompareAndSwap(codeQueued, codeRunning) {
		dropCancel(j, cancel)
		r.disp.release(id) // free any claim a late bind left behind
		return
	}
	j.started.Store(time.Now().UnixNano())
	r.gaugeAdd("jobs_running", j.kind, +1)
	r.pendingAdd(j, -1)
	j.watchers.notify()

	// The node may have died between this job's pop and now (the drain
	// routine empties the node's pending queue, but a pool worker can beat
	// it to an id); send it straight back through placement without running.
	if r.disp.drained(id) {
		dropCancel(j, cancel)
		r.requeueJob(j)
		return
	}

	h, _ := r.reg.Handler(j.kind)
	res, err := r.runWithRetry(h, &JobContext{ctx: ctx, job: j, datasets: r.datasets, runner: r})
	dropCancel(j, cancel)

	// A context cancellation caused by node loss — not by the user, not by
	// shutdown — requeues the job instead of finishing it: refs stay
	// pinned, progress resets, and placement runs again against the
	// surviving replicas.
	ctxErr := errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
	if ctxErr && r.baseCtx.Err() == nil && !j.userCancel.Load() && r.disp.drained(id) {
		r.requeueJob(j)
		return
	}

	if res != nil {
		if raw, mErr := json.Marshal(res); mErr == nil {
			j.mu.Lock()
			j.result = raw
			j.mu.Unlock()
		} else if err == nil {
			err = fmt.Errorf("service: result marshal: %w", mErr)
		}
	}

	final := codeSucceeded
	if err != nil {
		final = codeFailed
		if ctxErr {
			final = codeCancelled
		}
		msg := err.Error()
		j.errMsg.Store(&msg)
	}
	// Give back what the job holds before it reads terminal: LeakCheck (and
	// anything else that polls for the last job to end) takes "every job
	// terminal" to mean no pin and no node claim is still on its way out.
	r.releaseJobRefs(j)
	r.disp.release(id)
	r.gaugeAdd("jobs_running", j.kind, -1)
	r.count(terminalMetric[final], j.kind)
	r.finish(j, final)

	// The spec (which may hold a large inline volume) is dead weight once
	// the job is terminal; only the executor touches req, so the plain
	// write is safe.
	j.req = nil
	r.pruneIfNeeded()
}

// runHandler isolates handler panics: a gateway must not die because one
// job kind hit a bug. A panic is classified transient — a crashed worker is
// exactly the fault the retry loop exists for — so the job re-runs under the
// retry budget before going terminal failed.
func runHandler(h Handler, jc *JobContext) (res any, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("service: handler panicked: %v (%w)", p, ErrTransient)
		}
	}()
	return h(jc)
}
