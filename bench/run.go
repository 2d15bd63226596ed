package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// config is one benchmark run.
type config struct {
	seed      uint64
	workloads []int // indexes into workloads, in interleave order
	rounds    int
	slice     time.Duration
	measured  bool // emit end-to-end metrics
	layers    bool // run traced slices and probes, emit per-layer metrics
	// alternate interleaves traced and untraced slices within the rounds
	// (the driver's --trace 1 run); otherwise one traced slice per workload
	// follows the measured rounds.
	alternate bool
	smoke     bool
	record    *goldenFile // non-nil: record goldens instead of checking
}

// wlRun is one workload's state over a run.
type wlRun struct {
	idx     int
	w       *workload
	env     *env
	clients []*client
	next    []int // per client: index of its next operation
	setups  []time.Duration
	slices  []*sliceStat // measured, untraced
	traced  []*sliceStat

	// Counts over the untraced slices.
	jobs, polls, shed      int64
	replicaLocal, requeues int64
	keysPerKJob            []float64
}

type bench struct {
	cfg    config
	nproc  int
	tr     *tracer
	golden *goldenFile
	runs   []*wlRun
}

func newBench(cfg config) (*bench, error) {
	b := &bench{cfg: cfg, nproc: runtime.NumCPU()}
	if p := runtime.GOMAXPROCS(0); p > b.nproc {
		return nil, fmt.Errorf("GOMAXPROCS=%d exceeds nproc=%d: the load generator would time-share with the server", p, b.nproc)
	}
	g, err := loadGolden()
	if err != nil {
		return nil, err
	}
	if g.Seed == cfg.seed && cfg.record == nil {
		b.golden = g
	}
	if cfg.layers {
		b.tr = newTracer()
	}
	for _, idx := range cfg.workloads {
		b.runs = append(b.runs, &wlRun{idx: idx, w: workloads[idx]})
	}
	return b, nil
}

// setupRepeats is how many times a run sets a workload up; setup_s is their
// median. One set-up is between 40 and 150 ms, and the host slows this
// process in bursts that long and longer, so it takes this many to make the
// median repeat from run to run.
const setupRepeats = 15

// setUp builds the workload's system under test, logs the tenants in,
// uploads its datasets and runs the warm-up operations — everything before
// the first measured slice. It does so setupRepeats times, tearing down in
// between, and keeps the last one for the measurement. Operations keep
// counting from one set-up to the next, so each warms up on different inputs
// and the median does not follow the first chain a seed happens to draw.
func (b *bench) setUp(wr *wlRun) error {
	repeats, warm := setupRepeats, wr.w.warm
	if b.cfg.smoke {
		repeats, warm = 1, 1
	}
	for i := 0; i < repeats; i++ {
		b.tearDown(wr)
		start := time.Now()
		s, err := newSUT(wr.w.cluster, b.cfg.seed, b.tr, uint8(wr.idx))
		if err != nil {
			return fmt.Errorf("%s: set-up: %w", wr.w.name, err)
		}
		wr.env = &env{w: wr.w, wl: uint8(wr.idx), seed: b.cfg.seed, nproc: b.nproc, sut: s,
			ver: newVerifier(wr.w.name, b.golden, b.cfg.record)}
		if err := wr.w.prepare(wr.env); err != nil {
			return fmt.Errorf("%s: set-up: %w", wr.w.name, err)
		}
		n := wr.w.clients(b.nproc)
		wr.clients = make([]*client, n)
		if wr.next == nil {
			wr.next = make([]int, n)
		}
		for ci := range wr.clients {
			wr.clients[ci] = newClient(wr.w.poll, uint8(wr.idx))
		}
		b.drive(wr, false, func(ci, done int) bool { return done < warm })
		if wr.env.ver.nerrors > 0 {
			return fmt.Errorf("%s: warm-up failed: %v", wr.w.name, wr.env.ver.errs)
		}
		wr.setups = append(wr.setups, time.Since(start))
	}
	return nil
}

// tearDown stops the workload's servers and clients; the generated inputs
// stay in wr.env for the probes.
func (b *bench) tearDown(wr *wlRun) {
	if wr.env == nil || wr.env.sut == nil {
		return
	}
	for _, c := range wr.clients {
		c.close()
	}
	wr.env.sut.close()
	wr.env.sut, wr.clients = nil, nil
}

// clientStat is what one client accumulated while driven.
type clientStat struct {
	ok, failed int
	lat        []time.Duration
	stepWall   [3][]time.Duration
	stepWire   [3]int64
}

// drive runs every client of the workload closed-loop while more(ci, done)
// holds, and returns what each produced.
func (b *bench) drive(wr *wlRun, traced bool, more func(ci, done int) bool) []clientStat {
	stats := make([]clientStat, len(wr.clients))
	var wg sync.WaitGroup
	for ci, c := range wr.clients {
		c.base = wr.env.sut.url(traced)
		c.tr = nil
		if traced {
			c.tr = b.tr
		}
		c.resetCounters()
		wg.Add(1)
		go func(ci int, c *client) {
			defer wg.Done()
			st := &stats[ci]
			var out opOut
			for done := 0; more(ci, done); done++ {
				out.reset()
				wr.w.op(wr.env, c, ci, wr.next[ci], &out)
				wr.next[ci]++
				st.ok += len(out.lat)
				st.failed += out.failed
				st.lat = append(st.lat, out.lat...)
				if out.chain {
					for s := 0; s < 3; s++ {
						st.stepWall[s] = append(st.stepWall[s], out.stepWall[s])
						st.stepWire[s] += out.stepWire[s]
					}
				}
			}
		}(ci, c)
	}
	wg.Wait()
	return stats
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runSlice measures one slice. Process-wide figures (CPU, allocation, GC)
// are read immediately around the driven interval; the forced collections
// that give heap_live its meaning sit outside it.
func (b *bench) runSlice(wr *wlRun, traced bool) *sliceStat {
	s := &sliceStat{}
	if traced {
		wr.env.sut.setTracing(true)
		defer wr.env.sut.setTracing(false)
	}
	keys0 := len(wr.env.sut.store.Keys())
	var m0, m1, m2 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(b.cfg.slice)
	stats := b.drive(wr, traced, func(int, int) bool { return time.Now().Before(deadline) })
	s.Elapsed = time.Since(start)
	s.CPU = cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	runtime.GC()
	runtime.ReadMemStats(&m2)
	if traced {
		// A few scrapes through the traced server, so service.metricz_us
		// has samples on workloads that never scrape in their loop.
		for i := 0; i < 5; i++ {
			if err := wr.clients[0].metricz(wr.env.sut.tokens[0]); err != nil {
				wr.env.ver.fail(err)
			}
		}
	}

	s.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
	s.Mallocs = m1.Mallocs - m0.Mallocs
	s.GCCycles = m1.NumGC - m0.NumGC
	s.GCPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	s.HeapStart, s.HeapEnd = m0.HeapAlloc, m2.HeapAlloc
	for ci := range stats {
		st := &stats[ci]
		s.OK += st.ok
		s.Failed += st.failed
		s.Lat = append(s.Lat, st.lat...)
		for i := 0; i < 3; i++ {
			s.StepWall[i] = append(s.StepWall[i], st.stepWall[i]...)
			s.StepWire[i] += st.stepWire[i]
		}
	}
	var jobs int64
	for _, c := range wr.clients {
		jobs += c.jobs
		s.Polls += c.polls
		s.Shed += c.shed
		s.WireBytes += c.wireBytes
		if !traced {
			wr.replicaLocal += c.replicaLocal
			wr.requeues += c.requeues
		}
	}
	if !traced {
		wr.jobs += jobs
		wr.polls += s.Polls
		wr.shed += s.Shed
		if jobs > 0 {
			grown := len(wr.env.sut.store.Keys()) - keys0
			wr.keysPerKJob = append(wr.keysPerKJob, float64(grown)*1000/float64(jobs))
		}
	}
	return s
}

// plan is the order slices run in: measured rounds interleaved round-robin
// across the workloads, so a noisy stretch of wall time is shared by all of
// them, and then (or in between) the traced slices.
type planned struct {
	run    *wlRun
	traced bool
}

func (b *bench) plan() []planned {
	var p []planned
	for r := 0; r < b.cfg.rounds; r++ {
		for _, wr := range b.runs {
			p = append(p, planned{wr, b.cfg.alternate && r%2 == 0})
		}
	}
	if b.cfg.layers && !b.cfg.alternate {
		for _, wr := range b.runs {
			p = append(p, planned{wr, true})
		}
	}
	return p
}

// run executes the whole benchmark and returns its report.
func (b *bench) run() (*report, error) {
	began := time.Now()
	defer func() {
		for _, wr := range b.runs {
			b.tearDown(wr)
		}
	}()
	for _, wr := range b.runs {
		if err := b.setUp(wr); err != nil {
			return nil, err
		}
	}
	for _, p := range b.plan() {
		s := b.runSlice(p.run, p.traced)
		if p.traced {
			p.run.traced = append(p.run.traced, s)
		} else {
			p.run.slices = append(p.run.slices, s)
		}
	}
	rep := &report{Header: b.header(), Workloads: make(map[string]*workloadReport)}
	for _, wr := range b.runs {
		rep.Workloads[wr.w.name] = b.summarize(wr)
	}
	if b.cfg.layers {
		b.layerMetrics(rep)
	}
	rep.Header.TotalWallS = time.Since(began).Seconds()
	return rep, nil
}

// summarize turns a workload's measured slices into its end-to-end metrics.
func (b *bench) summarize(wr *wlRun) *workloadReport {
	rep := &workloadReport{
		Clients: len(wr.clients), PollUS: us(wr.w.poll),
		EndToEnd: make(map[string]metricValue), PerLayer: make(map[string]metricValue),
	}
	for _, s := range append(append([]*sliceStat(nil), wr.slices...), wr.traced...) {
		rep.Attempted += s.OK + s.Failed
		rep.Failed += s.Failed
	}
	if rep.Attempted > 0 {
		rep.FailedShare = float64(rep.Failed) / float64(rep.Attempted)
	}
	ver := wr.env.ver
	rep.Correct = ver.wrong == 0
	rep.Errors = ver.errs
	if !b.cfg.measured {
		return rep
	}

	set := func(name string, sp spread) {
		d, _ := defByName(endToEnd, name)
		rep.EndToEnd[name] = sp.value(d.Unit)
	}
	secs := make([]float64, len(wr.setups))
	for i, d := range wr.setups {
		secs[i] = d.Seconds()
	}
	set("setup_s", medianOf(secs))
	set("alloc_kb_per_job", overSlices(wr.slices, func(s *sliceStat) float64 { return s.perUnit(float64(s.AllocBytes) / 1024) }))
	set("wire_kb_per_job", overSlices(wr.slices, func(s *sliceStat) float64 { return s.perUnit(float64(s.WireBytes) / 1024) }))
	return rep
}

// timingMetrics turns a workload's untraced slices into its four timing
// metrics: rate and CPU cost are the median of the slices, latency
// percentiles are taken over the pooled samples of all slices with the
// per-slice percentiles as the spread beside them.
func timingMetrics(slices []*sliceStat, per map[string]metricValue) {
	per["jobs_per_s"] = overSlices(slices, (*sliceStat).jobsPerSec).value("1/s")
	per["cpu_ms_per_job"] = overSlices(slices, func(s *sliceStat) float64 { return s.perUnit(ms(s.CPU)) }).value("ms")
	all := pooled(slices)
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	for name, q := range map[string]float64{"job_p50_ms": 0.50, "job_p95_ms": 0.95} {
		v, beyond := percentile(all, q)
		mv := overSlices(slices, func(s *sliceStat) float64 {
			l := append([]time.Duration(nil), s.Lat...)
			sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
			pv, _ := percentile(l, q)
			return ms(pv)
		}).value("ms")
		mv.Value, mv.Samples, mv.Beyond = ms(v), len(all), beyond
		per[name] = mv
	}
}

// layerMetrics fills every workload's per-layer metrics: trace-derived
// figures from the traced slices, counts and runtime deltas from the
// untraced ones, and the probes. The probes run last, once every server is
// stopped and collected: with the servers' heaps still live the collector
// runs so rarely that a probe's allocations land on never-touched pages, and
// it would time page faults instead of the function.
func (b *bench) layerMetrics(rep *report) {
	probes := make([]*probeSet, len(b.runs))
	for i, wr := range b.runs {
		probes[i] = b.layerCounts(wr)
		b.tearDown(wr)
	}
	runtime.GC()
	for i, wr := range b.runs {
		p := probes[i]
		probeCommon(wr.env, p)
		wr.w.probes(wr.env, p)
		per := rep.Workloads[wr.w.name].PerLayer
		for _, d := range perLayer {
			per[d.Name] = metricValue{Value: p.vals[d.Name], Unit: d.Unit}
		}
		timingMetrics(wr.slices, per)
	}
}

// layerCounts gathers the per-layer figures that need the live system.
func (b *bench) layerCounts(wr *wlRun) *probeSet {
	vals := make(map[string]float64, len(perLayer))
	ts := b.tr.summarize(uint8(wr.idx))
	vals["service.gateway_submit_us"] = us(ts.gatewaySubmit)
	vals["service.gateway_status_us"] = us(ts.gatewayStatus)
	vals["service.gateway_result_us"] = us(ts.gatewayResult)
	vals["service.queue_wait_us"] = us(ts.queueWait)
	vals["service.handler_ms"] = ms(ts.handler)
	vals["service.finish_us"] = us(ts.finish)
	vals["service.metricz_us"] = us(ts.metricz)
	vals["loadgen.client_submit_us"] = us(ts.clientSubmit)
	vals["loadgen.client_wait_us"] = us(ts.clientWait)
	vals["loadgen.client_result_us"] = us(ts.clientResult)
	vals["loadgen.http_overhead_us"] = us(ts.httpOverhead)
	vals["trace.job_ms"] = ms(ts.job)
	vals["trace.unattributed_share"] = ts.unattributed

	if wr.jobs > 0 {
		vals["service.polls_per_job"] = float64(wr.polls) / float64(wr.jobs)
		vals["sched.replica_local_share"] = float64(wr.replicaLocal) / float64(wr.jobs)
	}
	vals["service.shed"] = float64(wr.shed)
	vals["sched.requeues"] = float64(wr.requeues)
	vals["queue.keys_per_kjob"] = medianOf(wr.keysPerKJob).Median

	sl := wr.slices
	vals["runtime.allocs_per_job"] = overSlices(sl, func(s *sliceStat) float64 { return s.perUnit(float64(s.Mallocs)) }).Median
	vals["runtime.gc_cycles"] = overSlices(sl, func(s *sliceStat) float64 { return float64(s.GCCycles) }).Median
	vals["runtime.gc_pause_ms"] = overSlices(sl, func(s *sliceStat) float64 { return ms(s.GCPause) }).Median
	vals["runtime.heap_live_mb"] = overSlices(sl, func(s *sliceStat) float64 { return float64(s.HeapEnd) / (1 << 20) }).Median
	vals["runtime.heap_growth_kb_per_kjob"] = overSlices(sl, func(s *sliceStat) float64 {
		return s.perUnit((float64(s.HeapEnd) - float64(s.HeapStart)) / 1024 * 1000)
	}).Median
	// Only a chained workload records steps; the others leave these at 0.
	for i, step := range []string{"ivt", "segment", "label"} {
		var walls []time.Duration
		var wire float64
		for _, s := range sl {
			walls = append(walls, s.StepWall[i]...)
			wire += float64(s.StepWire[i])
		}
		vals["step."+step+"_ms"] = ms(medianDur(walls))
		if len(walls) > 0 {
			vals["step."+step+"_wire_kb"] = wire / float64(len(walls)) / 1024
		}
	}
	untraced := overSlices(sl, (*sliceStat).jobsPerSec).Median
	if untraced > 0 && len(wr.traced) > 0 {
		vals["trace.overhead_share"] = 1 - overSlices(wr.traced, (*sliceStat).jobsPerSec).Median/untraced
	}

	ds := wr.env.sut.runner.Datasets()
	vals["dataset.cached_mb"] = float64(ds.CachedBytes()) / (1 << 20)
	vals["dataset.objects"] = float64(len(ds.List()))

	p := &probeSet{vals: vals, reps: probeReps}
	if b.cfg.smoke {
		p.reps = 3
	}
	runner := wr.env.sut.runner
	vals["service.metrics_text_us"] = us(p.timed(nil, func() { probeSink = runner.MetricsText() }))
	return p
}
