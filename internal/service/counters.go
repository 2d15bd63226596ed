package service

import (
	"fmt"
	"maps"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"chaseci/internal/api"
)

// series is one /metricz line: a counter, a gauge level, or (float) the
// math.Float64bits of a last value. A series exists from its first touch.
type series struct {
	head  string // `name{label="value"}`, rendered once
	float bool
	v     atomic.Int64
}

type seriesKey struct{ name, label string }

// durationSeries is the one float-valued series: a kind's last job duration.
const durationSeries = "job_duration_seconds"

// counterTable is the Runner's metrics store. Its series are a closed set
// (per kind, per tenant, and queue_depth), so it is one atomic integer per
// series behind copy-on-write maps: touching an existing series is a
// lock-free map read and an atomic add, with no allocation; only the first
// touch of a kind or tenant takes mu.
type counterTable struct {
	mu      sync.Mutex // creation only
	byKey   atomic.Pointer[map[seriesKey]*series]
	order   []*series // creation order, the render order; mu held
	tenants atomic.Pointer[map[string]bool]
}

func newCounterTable() *counterTable {
	t := &counterTable{}
	t.byKey.Store(&map[seriesKey]*series{})
	t.tenants.Store(&map[string]bool{})
	return t
}

// get returns (creating once) the series name{labelKey="label"}; an empty
// labelKey renders as name{}.
func (t *counterTable) get(name, labelKey, label string) *series {
	k := seriesKey{name, label}
	if s := (*t.byKey.Load())[k]; s != nil {
		return s
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	cur := *t.byKey.Load()
	if s := cur[k]; s != nil {
		return s
	}
	s := &series{head: name + "{}", float: name == durationSeries}
	if labelKey != "" {
		s.head = fmt.Sprintf("%s{%s=%q}", name, labelKey, label)
	}
	next := maps.Clone(cur)
	next[k] = s
	t.byKey.Store(&next)
	t.order = append(t.order, s)
	return s
}

// maxTenantSeries caps per-tenant metric label cardinality: beyond this
// many distinct tenants, further ones aggregate into tenant="other" so a
// million-identity tenant space cannot grow the table without bound.
const maxTenantSeries = 64

// tenant returns the per-tenant series for owner, or for "other" once the
// cap is reached. The seen set only grows and never past the cap, so a full
// snapshot answers without the lock.
func (t *counterTable) tenant(name, owner string) *series {
	if owner == "" {
		owner = anonOwner
	}
	seen := *t.tenants.Load()
	if !seen[owner] && len(seen) < maxTenantSeries {
		t.mu.Lock()
		if seen = *t.tenants.Load(); !seen[owner] && len(seen) < maxTenantSeries {
			next := maps.Clone(seen)
			next[owner] = true
			t.tenants.Store(&next)
			seen = next
		}
		t.mu.Unlock()
	}
	if !seen[owner] {
		owner = "other"
	}
	return t.get(name, "tenant", owner)
}

func (r *Runner) count(name string, kind api.Kind) { r.gaugeAdd(name, kind, 1) }

func (r *Runner) gaugeAdd(name string, kind api.Kind, d int64) {
	r.met.get(name, "kind", string(kind)).v.Add(d)
}

// countTenant increments a per-tenant counter.
func (r *Runner) countTenant(name, owner string) { r.met.tenant(name, owner).v.Add(1) }

// observeDuration records the finished job's wall duration on a per-kind
// gauge (last value wins).
func (r *Runner) observeDuration(j *job) {
	started, finished := j.started.Load(), j.finished.Load()
	if started == 0 || finished < started {
		return
	}
	secs := time.Duration(finished - started).Seconds()
	r.met.get(durationSeries, "kind", string(j.kind)).v.Store(int64(math.Float64bits(secs)))
}

// pendingGauges moves the per-kind pending gauge, the aggregate
// queue_depth gauge, and the per-tenant pending gauge together: +1 on
// admission, -1 when a job starts running or reaches a terminal state
// without running.
func (r *Runner) pendingGauges(j *job, d int64) {
	r.gaugeAdd("jobs_pending", j.kind, d)
	r.met.get("queue_depth", "", "").v.Add(d)
	r.met.tenant("tenant_pending", j.owner).v.Add(d)
}

// pendingAdd moves the admission counts and the pending gauges together
// for a job leaving (d = -1) or re-entering (d = +1, cluster requeue) the
// pending queue. Submit increments admission through tryReserve instead,
// so the bound check stays atomic.
func (r *Runner) pendingAdd(j *job, d int) {
	r.adm.add(j.owner, d)
	r.pendingGauges(j, int64(d))
}

// writeTo renders one `name{label="value"} value` line per series.
func (t *counterTable) writeTo(b *strings.Builder) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.order {
		v := float64(s.v.Load())
		if s.float {
			v = math.Float64frombits(uint64(s.v.Load()))
		}
		fmt.Fprintf(b, "%s %g\n", s.head, v)
	}
}

// MetricsText renders every series' latest value in a Prometheus-flavored
// one-line-per-series text form for the gateway's /metricz endpoint, then
// the dispatcher's lines (the cluster scheduler's placement counters).
func (r *Runner) MetricsText() string {
	var b strings.Builder
	r.met.writeTo(&b)
	b.WriteString(r.disp.metricsText())
	return b.String()
}
