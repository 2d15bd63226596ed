package service

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrOverloaded marks a submit refused by admission control: the tenant's
// pending queue (or the global one) is at capacity. The gateway maps it to
// 429 with a Retry-After header — explicit backpressure instead of
// unbounded queue growth.
var ErrOverloaded = errors.New("service: overloaded")

// OverloadError carries the shed decision's detail: which bound tripped
// and how long the caller should back off before retrying.
type OverloadError struct {
	Tenant     string
	Pending    int
	Limit      int
	Scope      string // "tenant" or "global"
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	who := e.Tenant
	if who == "" {
		who = anonOwner
	}
	return fmt.Sprintf("service: %s pending queue full for %s (%d/%d queued); retry after %v",
		e.Scope, who, e.Pending, e.Limit, e.RetryAfter)
}

func (e *OverloadError) Unwrap() error { return ErrOverloaded }

// Admission defaults: generous enough that well-behaved interactive use
// never notices them, small enough that a flood cannot grow the process
// without bound before shedding starts.
const (
	defaultMaxPendingPerTenant = 1024
	defaultMaxPending          = 8192
	defaultRetryAfter          = time.Second
)

// admission is the Runner's bounded-queue bookkeeping: pending-job counts
// per tenant and in total, checked and reserved atomically at submit. A
// value <= 0 for a bound means unlimited (RunnerConfig maps its 0 to the
// defaults before construction).
type admission struct {
	mu           sync.Mutex
	maxPerTenant int
	maxTotal     int
	weights      map[string]int
	pending      map[string]int
	total        int
	shed         int64
}

func newAdmission(maxPerTenant, maxTotal int, weights map[string]int) *admission {
	w := make(map[string]int, len(weights))
	for k, v := range weights {
		if v > 0 {
			w[k] = v
		}
	}
	return &admission{
		maxPerTenant: maxPerTenant,
		maxTotal:     maxTotal,
		weights:      w,
		pending:      make(map[string]int),
	}
}

// weight resolves a tenant's fair-queue share (default 1).
func (a *admission) weight(tenant string) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	if w, ok := a.weights[tenant]; ok {
		return w
	}
	return 1
}

// tryReserve atomically checks the bounds and counts one pending job for
// tenant, or returns an *OverloadError naming the bound that tripped.
func (a *admission) tryReserve(tenant string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.maxPerTenant > 0 && a.pending[tenant] >= a.maxPerTenant {
		a.shed++
		return &OverloadError{
			Tenant: tenant, Pending: a.pending[tenant], Limit: a.maxPerTenant,
			Scope: "tenant", RetryAfter: defaultRetryAfter,
		}
	}
	if a.maxTotal > 0 && a.total >= a.maxTotal {
		a.shed++
		return &OverloadError{
			Tenant: tenant, Pending: a.total, Limit: a.maxTotal,
			Scope: "global", RetryAfter: defaultRetryAfter,
		}
	}
	a.pending[tenant]++
	a.total++
	return nil
}

// add adjusts tenant's pending count without a bound check: -1 when a job
// leaves the queue (dispatch, cancel, drain), +1 when a cluster requeue
// puts an already-admitted job back.
func (a *admission) add(tenant string, d int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := a.pending[tenant] + d
	if n <= 0 {
		delete(a.pending, tenant) // keep the map bounded by live tenants
	} else {
		a.pending[tenant] = n
	}
	a.total += d
	if a.total < 0 {
		a.total = 0
	}
}
