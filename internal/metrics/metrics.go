// Package metrics is the virtual-time store behind the paper's figures: the
// simulated ecosystem's components (cluster, network, storage, the CONNECT
// workflow's steps in internal/core) record counters and gauges here on a
// sim.Clock, and core replays those series as terminal charts to regenerate
// Figures 3-6. The live server does not use it: /metricz is rendered from
// the service and scheduler's own state. Histogram, the one wall-clock
// primitive, is a concurrent latency recorder whose Observe the bench
// program's probes time.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"chaseci/internal/sim"
)

// Labels is a set of key=value dimensions attached to a series, e.g.
// {"pod": "download-worker-3", "namespace": "connect"}.
type Labels map[string]string

// clone returns a copy so callers cannot mutate stored labels.
func (l Labels) clone() Labels {
	c := make(Labels, len(l))
	for k, v := range l {
		c[k] = v
	}
	return c
}

// String renders labels deterministically as {a="1",b="2"}.
func (l Labels) String() string {
	if len(l) == 0 {
		return "{}"
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, l[k])
	}
	b.WriteByte('}')
	return b.String()
}

// matches reports whether l contains every key/value pair in sel.
func (l Labels) matches(sel Labels) bool {
	for k, v := range sel {
		if l[k] != v {
			return false
		}
	}
	return true
}

// Sample is one observation at a point in virtual time.
type Sample struct {
	At    time.Duration
	Value float64
}

// Series is a named, labelled sequence of samples ordered by time.
type Series struct {
	Name    string
	Labels  Labels
	Samples []Sample
}

// ID returns the canonical identity of the series.
func (s *Series) ID() string { return s.Name + s.Labels.String() }

// Registry stores all series and hands out instruments.
type Registry struct {
	clock  *sim.Clock
	series map[string]*Series
	order  []string // insertion order for deterministic listings
}

// NewRegistry creates a registry recording at the given virtual clock.
func NewRegistry(clock *sim.Clock) *Registry {
	return &Registry{clock: clock, series: make(map[string]*Series)}
}

func (r *Registry) getSeries(name string, labels Labels) *Series {
	key := name + labels.String()
	s, ok := r.series[key]
	if !ok {
		s = &Series{Name: name, Labels: labels.clone()}
		r.series[key] = s
		r.order = append(r.order, key)
	}
	return s
}

func (r *Registry) record(s *Series, v float64) {
	now := r.clock.Now()
	if n := len(s.Samples); n > 0 && s.Samples[n-1].At == now {
		s.Samples[n-1].Value = v
		return
	}
	s.Samples = append(s.Samples, Sample{At: now, Value: v})
}

// Gauge is an instrument whose value can go up and down (e.g. pods running,
// memory in use).
type Gauge struct {
	reg    *Registry
	series *Series
}

// Gauge returns (creating if needed) the gauge for name+labels.
func (r *Registry) Gauge(name string, labels Labels) *Gauge {
	return &Gauge{reg: r, series: r.getSeries(name, labels)}
}

// Set records an absolute value at the current virtual time.
func (g *Gauge) Set(v float64) { g.reg.record(g.series, v) }

// Counter is a monotonically non-decreasing instrument (e.g. bytes
// transferred, files downloaded).
type Counter struct {
	reg    *Registry
	series *Series
	value  float64
}

// Counter returns (creating if needed) the counter for name+labels.
func (r *Registry) Counter(name string, labels Labels) *Counter {
	return &Counter{reg: r, series: r.getSeries(name, labels)}
}

// Add increases the counter. Negative deltas are rejected with a panic:
// counters are monotone by definition and a negative add is always a bug in
// the instrumented component.
func (c *Counter) Add(d float64) {
	if d < 0 {
		panic(fmt.Sprintf("metrics: counter %s decreased by %v", c.series.ID(), d))
	}
	c.value += d
	c.reg.record(c.series, c.value)
}

// Inc is Add(1).
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current counter total.
func (c *Counter) Value() float64 { return c.value }

// Select returns all series with the given name whose labels match sel, in
// creation order. A nil sel matches everything with the name; an empty name
// matches all names.
func (r *Registry) Select(name string, sel Labels) []*Series {
	var out []*Series
	for _, key := range r.order {
		s := r.series[key]
		if name != "" && s.Name != name {
			continue
		}
		if !s.Labels.matches(sel) {
			continue
		}
		out = append(out, s)
	}
	return out
}
