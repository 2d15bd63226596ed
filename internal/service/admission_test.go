package service

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"chaseci/internal/api"
	"chaseci/internal/queue"
)

// blockedRunner builds a 1-worker runner whose only worker is stuck inside
// a job named "blocker" until release is closed; every later submit piles
// up in the pending queue, which is exactly the state admission control
// and fair dispatch are about.
func blockedRunner(t *testing.T, cfg RunnerConfig, onRun func(owner string)) (*Runner, chan struct{}) {
	t.Helper()
	release := make(chan struct{})
	reg := NewRegistry()
	started := make(chan struct{}, 1)
	reg.Register(api.KindWorkflow, func(jc *JobContext) (any, error) {
		if jc.Request().Name == "blocker" {
			started <- struct{}{}
			select {
			case <-release:
			case <-jc.Ctx().Done():
				return nil, jc.Ctx().Err()
			}
			return nil, nil
		}
		if onRun != nil {
			onRun(jc.Owner())
		}
		return nil, nil
	})
	cfg.Workers = 1
	r := NewRunnerConfigured(reg, queue.NewStore(), cfg)
	t.Cleanup(func() {
		select {
		case <-release:
		default:
			close(release)
		}
		r.Close()
	})
	blocker := blockingWorkflowRequest()
	blocker.Name = "blocker"
	if _, err := r.Submit(blocker, "flood@ucsd.edu"); err != nil {
		t.Fatal(err)
	}
	<-started // the only worker is now parked inside the blocker
	return r, release
}

func TestSubmitShedsWhenQueuesFull(t *testing.T) {
	r, _ := blockedRunner(t, RunnerConfig{MaxPendingPerTenant: 3, MaxPending: 5}, nil)

	// Tenant A fills its per-tenant bound.
	for i := 0; i < 3; i++ {
		if _, err := r.Submit(blockingWorkflowRequest(), "a@ucsd.edu"); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	_, err := r.Submit(blockingWorkflowRequest(), "a@ucsd.edu")
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("4th tenant submit: err = %v, want ErrOverloaded", err)
	}
	var ov *OverloadError
	if !errors.As(err, &ov) || ov.Scope != "tenant" || ov.Limit != 3 || ov.RetryAfter <= 0 {
		t.Fatalf("overload detail = %+v", ov)
	}

	// Tenant B can still get in until the global bound trips.
	for i := 0; i < 2; i++ {
		if _, err := r.Submit(blockingWorkflowRequest(), "b@sdsc.edu"); err != nil {
			t.Fatalf("tenant b submit %d: %v", i, err)
		}
	}
	_, err = r.Submit(blockingWorkflowRequest(), "b@sdsc.edu")
	if !errors.As(err, &ov) || ov.Scope != "global" || ov.Limit != 5 {
		t.Fatalf("global overload: err = %v, detail %+v", err, ov)
	}

	if got := r.adm.totalPending(); got != 5 {
		t.Fatalf("PendingTotal = %d, want 5 (bounded)", got)
	}
	if got := r.adm.tenantPending("a@ucsd.edu"); got != 3 {
		t.Fatalf("TenantPending(a) = %d, want 3", got)
	}
	if got := r.adm.shedCount(); got != 2 {
		t.Fatalf("ShedCount = %d, want 2", got)
	}
	text := r.MetricsText()
	if !strings.Contains(text, "jobs_shed") || !strings.Contains(text, "queue_depth") {
		t.Fatalf("metrics missing shed/depth series:\n%s", text)
	}
}

// TestFairDispatchNoStarvation pins the fairness acceptance criterion: a
// tenant flooding the queue cannot starve a light tenant. With start-time
// weighted fair dispatch the light tenant's 5 jobs interleave with the
// flood instead of waiting behind all 20 of its jobs.
func TestFairDispatchNoStarvation(t *testing.T) {
	var mu sync.Mutex
	var order []string
	r, release := blockedRunner(t, RunnerConfig{}, func(owner string) {
		mu.Lock()
		order = append(order, owner)
		mu.Unlock()
	})

	const floods, lights = 20, 5
	var ids []string
	submit := func(owner string, n int) {
		for i := 0; i < n; i++ {
			st, err := r.Submit(blockingWorkflowRequest(), owner)
			if err != nil {
				t.Fatalf("submit %s %d: %v", owner, i, err)
			}
			ids = append(ids, st.ID)
		}
	}
	submit("flood@ucsd.edu", floods) // entire flood queued first
	submit("light@sdsc.edu", lights)

	close(release)
	for _, id := range ids {
		waitState(t, r, id, terminal) // a terminal job has already recorded its turn
	}

	lastLight := -1
	for i, owner := range order {
		if owner == "light@sdsc.edu" {
			lastLight = i
		}
	}
	// Equal weights alternate the two tenants, so the light tenant's last
	// job lands around position 2*lights; FIFO would leave it at the very
	// end behind the whole flood.
	if lastLight > 2*lights+2 {
		t.Fatalf("light tenant starved: last job at position %d of %d (order %v)",
			lastLight, len(order), order)
	}
}

// TestWeightedTenantsShareByWeight checks the fair queue end to end: a
// weight-2 tenant drains twice as fast as a weight-1 tenant.
func TestWeightedTenantsShareByWeight(t *testing.T) {
	var mu sync.Mutex
	var order []string
	r, release := blockedRunner(t,
		RunnerConfig{TenantWeights: map[string]int{"heavy@ucsd.edu": 2}},
		func(owner string) {
			mu.Lock()
			order = append(order, owner)
			mu.Unlock()
		})

	var ids []string
	for i := 0; i < 12; i++ {
		owner := "heavy@ucsd.edu"
		if i >= 8 {
			owner = "slim@sdsc.edu"
		}
		st, err := r.Submit(blockingWorkflowRequest(), owner)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	close(release)
	for _, id := range ids {
		waitState(t, r, id, terminal)
	}
	heavyFirst6 := 0
	for _, owner := range order[:6] {
		if owner == "heavy@ucsd.edu" {
			heavyFirst6++
		}
	}
	if heavyFirst6 < 3 || heavyFirst6 > 5 {
		t.Fatalf("weight-2 tenant got %d of first 6 slots, want ~4 (order %v)", heavyFirst6, order)
	}
}

func TestFairQueueWeightedPopOrder(t *testing.T) {
	fq := newFairQueue(func(tenant string) int {
		if tenant == "heavy" {
			return 2
		}
		return 1
	})
	for i := 0; i < 6; i++ {
		fq.Push("heavy", string(rune('a'+i)))
	}
	for i := 0; i < 3; i++ {
		fq.Push("light", string(rune('x'+i)))
	}
	if fq.Len() != 9 {
		t.Fatalf("Len = %d, want 9", fq.Len())
	}
	heavy := 0
	for i := 0; i < 6; i++ {
		id, ok := fq.Pop()
		if !ok {
			t.Fatalf("pop %d: queue empty early", i)
		}
		if id >= "a" && id <= "f" {
			heavy++
		}
	}
	if heavy != 4 {
		t.Fatalf("heavy served %d of first 6, want 4 (weight 2:1)", heavy)
	}
	rest := fq.PopAll()
	if len(rest) != 3 || fq.Len() != 0 {
		t.Fatalf("PopAll = %v, Len = %d", rest, fq.Len())
	}
	if _, ok := fq.Pop(); ok {
		t.Fatal("Pop on empty queue returned ok")
	}
}

// TestEvictedStoreFallbackWindow exercises the bounded eviction pipeline:
// memory keeps `retain` jobs, the store keeps a storeRetainFactor*retain
// tail of evicted records reachable through Lookup, and everything older
// is deleted from the store too — so neither the evicted FIFO nor the
// store grows without bound.
func TestEvictedStoreFallbackWindow(t *testing.T) {
	r, store := newTestRunner(t, DefaultRegistry(), 1)
	r.retain.Store(2)

	const total = 30
	ids := make([]string, 0, total)
	for i := 0; i < total; i++ {
		st, err := r.Submit(tinySegmentRequest(), "tester@ucsd.edu")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
		waitState(t, r, st.ID, terminal) // Await answers for an evicted job from the store
	}
	// execute publishes the terminal state before it prunes; Close returns
	// once the worker has left execute, and leaves Lookup and the store
	// readable.
	r.Close()

	r.evictMu.Lock()
	evictLen := r.evicted.len()
	r.evictMu.Unlock()
	if limit := storeRetainFactor * 2; evictLen > limit {
		t.Fatalf("evicted FIFO holds %d ids, want <= %d", evictLen, limit)
	}
	if got := r.Count(); got > 3 {
		t.Fatalf("in-memory registry holds %d jobs, want <= 3 (retain 2)", got)
	}

	// The newest jobs resolve from memory or the store tail.
	for _, id := range ids[total-4:] {
		st, ok := r.Lookup(id)
		if !ok {
			t.Fatalf("recent job %s not resolvable", id)
		}
		if st.State != api.StateSucceeded {
			t.Fatalf("recent job %s state = %s", id, st.State)
		}
	}
	// Jobs far beyond the store tail are fully expired: no Lookup hit, no
	// store record, no result blob.
	for _, id := range ids[:total/2] {
		if _, ok := r.Lookup(id); ok {
			t.Fatalf("expired job %s still resolvable", id)
		}
		if _, ok := store.Get(JobKey(id)); ok {
			t.Fatalf("expired job %s still has a store record", id)
		}
		if _, ok := store.Get(ResultKey(id)); ok {
			t.Fatalf("expired job %s still has a result record", id)
		}
	}
}

// BenchmarkRegistrySubmitPoll is the serving fast path under contention:
// mostly status polls with an occasional submit, 8 goroutines per GOMAXPROCS
// so they queue on the stripe locks. Run with -cpu 1,2.
func BenchmarkRegistrySubmitPoll(b *testing.B) {
	reg := NewRegistry()
	reg.Register(api.KindWorkflow, func(jc *JobContext) (any, error) { return nil, nil })
	r := NewRunnerConfigured(reg, queue.NewStore(), RunnerConfig{
		Workers:    2,
		MaxPending: -1, MaxPendingPerTenant: -1,
	})
	defer r.Close()
	ids := make([]string, 256)
	for i := range ids {
		st, err := r.Submit(blockingWorkflowRequest(), "seed@ucsd.edu")
		if err != nil {
			b.Fatal(err)
		}
		ids[i] = st.ID
	}
	b.ReportAllocs()
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			i++
			if i%64 == 0 {
				r.Submit(blockingWorkflowRequest(), "bench@ucsd.edu")
			} else {
				r.Status(ids[(i*7)&255])
			}
		}
	})
}

// tenantPending returns tenant's current pending count.
func (a *admission) tenantPending(tenant string) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.pending[tenant]
}

// totalPending returns the global pending count.
func (a *admission) totalPending() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.total
}

// shedCount returns how many submits admission has refused.
func (a *admission) shedCount() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.shed
}
