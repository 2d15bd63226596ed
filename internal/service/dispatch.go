package service

import (
	"context"

	"chaseci/internal/api"
)

// nodePool is a worker pool: r.workers goroutines draining one
// weighted-fair queue. A single-node runner has exactly one; a cluster
// runner has one per live fabric node, so tenant fairness holds per
// node queue too. The pool's context is a child of the runner's, so Close
// stops every pool and a node drain stops just the one.
type nodePool struct {
	fq   *fairQueue
	wake chan struct{}
	ctx  context.Context
	stop context.CancelFunc
}

// startPool launches a pool's workers. r.mu may be held by the caller; the
// workers themselves never take it outside execute's helpers.
func (r *Runner) startPool() *nodePool {
	ctx, stop := context.WithCancel(r.baseCtx)
	p := &nodePool{
		fq: newFairQueue(r.adm.weight),
		// Buffered to the pool size so a burst of submits wakes a worker
		// per job instead of collapsing into one token (signals dropped
		// beyond that are harmless: every worker is already awake and
		// re-drains the queue before sleeping).
		wake: make(chan struct{}, r.workers),
		ctx:  ctx,
		stop: stop,
	}
	r.wg.Add(r.workers)
	for i := 0; i < r.workers; i++ {
		go r.poolLoop(p)
	}
	return p
}

func (r *Runner) poolLoop(p *nodePool) {
	defer r.wg.Done()
	for {
		for {
			id, ok := p.fq.Pop()
			if !ok {
				break
			}
			r.execute(r.baseCtx, id)
			if p.ctx.Err() != nil {
				return
			}
		}
		select {
		case <-p.ctx.Done():
			return
		case <-p.wake:
		}
	}
}

// wakeOne rouses a sleeping worker, if any, without blocking.
func (p *nodePool) wakeOne() {
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// dispatcher is the one place a single-node and a cluster runner differ:
// where an admitted job is queued and what it holds until it ends. Submit,
// execute, cancelJob, Close, MetricsText and LeakCheck call it and never ask
// which kind of runner they are in.
type dispatcher interface {
	// admit queues or places a new job under its shard mutex (which orders
	// it against Close), so it must not call back into the runner's job
	// paths. An error refuses the job; a placement is handed to kick.
	admit(j *job) (*api.Placement, error)
	// kick gets a worker moving on the job once the shard mutex is released.
	kick(j *job, pl *api.Placement)
	// release frees what is held for a job that is terminal or never runs.
	release(id string)
	// drained consumes the mark on a job whose node was lost: one caller
	// per loss sees true, and that caller owns the requeue.
	drained(id string) bool
	// liveClaims lists node resource claims still held, for LeakCheck.
	liveClaims() map[string][]string
	// metricsText is appended to the runner's /metricz lines.
	metricsText() string
}

// localDispatch is the single-node dispatcher: every job goes onto the one
// pool. It holds nothing per job and takes no runner-wide lock.
type localDispatch struct{ pool *nodePool }

func (d localDispatch) admit(j *job) (*api.Placement, error) {
	d.pool.fq.Push(j.owner, j.id)
	return nil, nil
}

func (d localDispatch) kick(*job, *api.Placement)       { d.pool.wakeOne() }
func (d localDispatch) release(string)                  {}
func (d localDispatch) drained(string) bool             { return false }
func (d localDispatch) liveClaims() map[string][]string { return nil }
func (d localDispatch) metricsText() string             { return "" }
