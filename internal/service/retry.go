package service

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"chaseci/internal/objstore"
	"chaseci/internal/sim"
)

// ErrTransient marks an error as worth retrying: the operation failed against
// a resource that is expected to come back (a recovering OSD, a congested
// link, a briefly-overloaded store). Handlers wrap with
// fmt.Errorf("...: %w", service.ErrTransient) — or return an error chain
// containing objstore.ErrAllReplicasDown — to opt a failure into the runner's
// backoff-and-retry loop. Everything else fails the job on the first attempt.
var ErrTransient = errors.New("transient")

// Transient reports whether err is worth a backoff-and-retry: either
// explicitly tagged with ErrTransient, or a degraded-read failure from the
// object store (all replicas down is recoverable; not-found is not).
func Transient(err error) bool {
	return errors.Is(err, ErrTransient) || errors.Is(err, objstore.ErrAllReplicasDown)
}

// RetryPolicy bounds the runner's transient-error retry loop: up to
// MaxAttempts executions per job dispatch, sleeping a full-jitter exponential
// backoff (BaseDelay doubling per attempt, capped at MaxDelay) between them.
// The sleep is context-aware: cancellation (user cancel, node drain, runner
// shutdown) interrupts it immediately so requeue semantics are unaffected.
type RetryPolicy struct {
	MaxAttempts int
	BaseDelay   time.Duration
	MaxDelay    time.Duration
}

// DefaultRetryPolicy is the runner's out-of-the-box policy: 4 attempts,
// 25ms base, 1s cap.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 4, BaseDelay: 25 * time.Millisecond, MaxDelay: time.Second}
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	d := DefaultRetryPolicy()
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = d.MaxAttempts
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = d.BaseDelay
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = d.MaxDelay
	}
	return p
}

// backoff returns the sleep before retry #attempt (1-based): full jitter in
// (0, min(BaseDelay<<attempt-1, MaxDelay)]. Full jitter decorrelates the
// retry storms of jobs knocked loose by the same fault.
func (p RetryPolicy) backoff(attempt int, u float64) time.Duration {
	d := p.BaseDelay
	for i := 1; i < attempt && d < p.MaxDelay; i++ {
		d *= 2
	}
	if d > p.MaxDelay {
		d = p.MaxDelay
	}
	j := time.Duration(u * float64(d))
	if j <= 0 {
		j = time.Nanosecond
	}
	return j
}

// retryState is the Runner's retry configuration plus the jitter stream,
// shared by all workers.
type retryState struct {
	mu     sync.Mutex
	policy RetryPolicy
	rng    *sim.RNG
}

func newRetryState() *retryState {
	return &retryState{policy: DefaultRetryPolicy(), rng: sim.NewRNG(0x9272c2a34d58f1e7)}
}

func (rs *retryState) snapshot() (RetryPolicy, float64) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.policy, rs.rng.Float64()
}

// SetRetryPolicy replaces the transient-error retry policy (zero fields take
// defaults). Tests and scenario scripts use it to tighten delays.
func (r *Runner) SetRetryPolicy(p RetryPolicy) {
	r.retries.mu.Lock()
	defer r.retries.mu.Unlock()
	r.retries.policy = p.withDefaults()
}

// runWithRetry executes the handler, retrying transient failures under the
// runner's policy. Non-transient errors, success, and context cancellation
// return immediately; the backoff sleep aborts the moment ctx dies so drains
// and user cancels propagate at full speed.
func (r *Runner) runWithRetry(h Handler, jc *JobContext) (any, error) {
	var res any
	var err error
	var policy RetryPolicy
	for attempt := 1; ; attempt++ {
		res, err = runHandler(h, jc)
		var u float64
		policy, u = r.retries.snapshot()
		if err == nil || !Transient(err) || attempt >= policy.MaxAttempts {
			break
		}
		if jc.ctx.Err() != nil {
			// The job's context died while the handler was failing
			// transiently (drain, user cancel, shutdown). Surface the
			// cancellation in the chain so execute's requeue logic sees it.
			return res, fmt.Errorf("%v (retry interrupted: %w)", err, jc.ctx.Err())
		}
		r.count("jobs_retried", jc.job.kind)
		t := time.NewTimer(policy.backoff(attempt, u))
		select {
		case <-jc.ctx.Done():
			t.Stop()
			return res, fmt.Errorf("%v (retry interrupted: %w)", err, jc.ctx.Err())
		case <-t.C:
		}
	}
	if err != nil && Transient(err) {
		err = fmt.Errorf("%v (gave up after %d attempts)", err, policy.MaxAttempts)
	}
	return res, err
}

// LeakCheck verifies the runner's bookkeeping balanced out: no pending
// count, dataset pin, scheduler resource claim, open event stream or
// registered watch survives once every known job is terminal. It errors if
// a job is still live (the check would be vacuous) or if any of those
// leaked. Tests call it after quiescing; scenario invariants call it at the
// end of every script.
func (r *Runner) LeakCheck() error {
	var live []string
	r.eachJob(func(j *job) {
		if !stateNames[j.state.Load()].Terminal() {
			live = append(live, j.id)
		}
	})
	if len(live) > 0 {
		sort.Strings(live)
		return fmt.Errorf("service: leak check before quiescence: %d non-terminal jobs: %s",
			len(live), strings.Join(live, ", "))
	}
	// The gauge catches a decrement too many, which admission hides: it
	// clamps its total at 0 and forgets a tenant whose count reaches 0.
	var depth int64
	if s := (*r.met.byKey.Load())[seriesKey{"queue_depth", ""}]; s != nil {
		depth = s.v.Load()
	}
	r.adm.mu.Lock()
	total, tenants := r.adm.total, len(r.adm.pending)
	r.adm.mu.Unlock()
	if depth != 0 || total != 0 || tenants != 0 {
		return fmt.Errorf("service: pending ledger unbalanced: queue_depth %d, admission total %d over %d tenant(s)",
			depth, total, tenants)
	}
	if pinned := r.datasets.Pinned(); len(pinned) > 0 {
		ids := make([]string, 0, len(pinned))
		for id, n := range pinned {
			ids = append(ids, fmt.Sprintf("%s=%d", id[:min(12, len(id))], n))
		}
		sort.Strings(ids)
		return fmt.Errorf("service: leaked dataset pins: %s", strings.Join(ids, ", "))
	}
	if claims := r.disp.liveClaims(); len(claims) > 0 {
		parts := make([]string, 0, len(claims))
		for node, ids := range claims {
			parts = append(parts, fmt.Sprintf("%s:%v", node, ids))
		}
		sort.Strings(parts)
		return fmt.Errorf("service: leaked node claims: %s", strings.Join(parts, ", "))
	}
	if n := r.streams.Load(); n != 0 {
		return fmt.Errorf("service: %d event stream(s) still open after quiescence", n)
	}
	if n := r.watches.Load(); n != 0 {
		return fmt.Errorf("service: %d watch(es) still registered after quiescence", n)
	}
	return nil
}
