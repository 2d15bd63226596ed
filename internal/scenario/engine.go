package scenario

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"time"

	"chaseci/internal/api"
	"chaseci/internal/cluster"
	"chaseci/internal/dataset"
	"chaseci/internal/gpusim"
	"chaseci/internal/netsim"
	"chaseci/internal/sched"
	"chaseci/internal/service"
	"chaseci/internal/sim"
)

// Options configures a scenario run.
type Options struct {
	// Seed drives every random choice (uploaded volume contents, fault
	// victim selection). The same script + seed replays identically.
	Seed uint64
	// WorkersPerNode sizes each fabric node's pool (<= 0 defaults to 2).
	WorkersPerNode int
	// Log, when non-nil, receives progress lines.
	Log func(format string, args ...any)
}

// JobOutcome is one workload job's final accounting.
type JobOutcome struct {
	Index    int       `json:"index"`
	ID       string    `json:"id"`
	Kind     string    `json:"kind"`
	State    api.State `json:"state"`
	Error    string    `json:"error,omitempty"`
	Requeues int       `json:"requeues"`
	// ResultSHA is the hex SHA-256 of the result payload — the bit-exactness
	// token compared against the undisturbed run.
	ResultSHA string `json:"result_sha"`
}

// TransferOutcome records one scripted virtual-time bulk transfer.
type TransferOutcome struct {
	Src         string        `json:"src,omitempty"`
	Dst         string        `json:"dst,omitempty"`
	Bytes       float64       `json:"bytes"`
	Elapsed     time.Duration `json:"elapsed"`
	Transferred float64       `json:"transferred"`
	Stalled     bool          `json:"stalled"`
}

// Result is a scenario run's full report. Violations empty = every invariant
// held. Fingerprint covers the deterministic portion (states + result
// hashes), so rerunning the same script+seed must reproduce it exactly.
type Result struct {
	Script      string            `json:"script"`
	Seed        uint64            `json:"seed"`
	Jobs        []JobOutcome      `json:"jobs"`
	Baseline    []JobOutcome      `json:"baseline"`
	Transfers   []TransferOutcome `json:"transfers,omitempty"`
	Violations  []string          `json:"violations,omitempty"`
	Fingerprint string            `json:"fingerprint"`
	Wall        time.Duration     `json:"wall"`
}

// Passed reports whether every invariant held.
func (r *Result) Passed() bool { return len(r.Violations) == 0 }

// --- handler gate -----------------------------------------------------------

// gate intercepts every job-kind handler, so scripts can deterministically
// hold an execution mid-flight (the "while the job is running" window for
// fault injection) or crash one (worker panic).
type gate struct {
	mu     sync.Mutex
	holdN  int
	panicN int
	held   []chan struct{}
	parked chan struct{} // signaled when an execution blocks
}

func newGate() *gate { return &gate{parked: make(chan struct{}, 64)} }

func (g *gate) wrap(h service.Handler) service.Handler {
	return func(jc *service.JobContext) (any, error) {
		g.mu.Lock()
		if g.panicN > 0 {
			g.panicN--
			g.mu.Unlock()
			panic("scenario: injected worker panic")
		}
		if g.holdN > 0 {
			g.holdN--
			release := make(chan struct{})
			g.held = append(g.held, release)
			g.mu.Unlock()
			select {
			case g.parked <- struct{}{}:
			default:
			}
			select {
			case <-release:
			case <-jc.Ctx().Done():
				return nil, jc.Ctx().Err()
			}
		} else {
			g.mu.Unlock()
		}
		return h(jc)
	}
}

func (g *gate) holdNext(n int)  { g.mu.Lock(); g.holdN += n; g.mu.Unlock() }
func (g *gate) panicNext(n int) { g.mu.Lock(); g.panicN += n; g.mu.Unlock() }

func (g *gate) releaseAll() {
	g.mu.Lock()
	held := g.held
	g.held = nil
	g.mu.Unlock()
	for _, ch := range held {
		close(ch)
	}
}

func (g *gate) awaitHold(d time.Duration) error {
	select {
	case <-g.parked:
		return nil
	case <-time.After(d):
		return fmt.Errorf("scenario: no handler execution parked within %v", d)
	}
}

// --- world ------------------------------------------------------------------

// world is one fully-assembled stack: fabric + cluster runner + HTTP gateway,
// the same wiring `chased -cluster` serves.
type world struct {
	fab    *sched.Fabric
	runner *service.Runner
	srv    *httptest.Server
	gate   *gate
	segRef string   // shared deterministic segment input
	ids    []string // job index -> job id ("" until submitted)
	specs  []JobSpec
}

// defaultTopology mirrors the chased default: three PRP sites, two
// OSD-bearing FIONA nodes and one compute-only node, replication 2.
func defaultTopology() *sched.Fabric {
	fab := sched.NewFabric(sched.FabricConfig{Replicas: 2})
	for _, s := range []string{"ucsd", "sdsu", "uci"} {
		fab.AddSite(s)
	}
	fab.AddLink("ucsd", "sdsu", netsim.Gbps(40), 2*time.Millisecond)
	fab.AddLink("ucsd", "uci", netsim.Gbps(10), 3*time.Millisecond)
	fab.AddLink("sdsu", "uci", netsim.Gbps(10), 3*time.Millisecond)
	nodes := []sched.NodeSpec{
		{Name: "node-0", Site: "ucsd", OSD: "osd-ucsd"},
		{Name: "node-1", Site: "sdsu", OSD: "osd-sdsu"},
		{Name: "node-2", Site: "uci"},
	}
	for _, n := range nodes {
		n.Capacity = cluster.FIONA8Capacity()
		n.Model = gpusim.Powered1080Ti()
		if err := fab.AddNode(n); err != nil {
			panic("scenario: topology: " + err.Error())
		}
	}
	return fab
}

// newWorld assembles the stack. dataRNG seeds the uploaded segment volume —
// fork it identically for the disturbed and baseline worlds so their inputs
// are byte-identical.
func newWorld(specs []JobSpec, workers int, dataRNG *sim.RNG) (*world, error) {
	g := newGate()
	reg := service.DefaultRegistry()
	for _, k := range reg.Kinds() {
		h, _ := reg.Handler(k)
		reg.Register(k, g.wrap(h))
	}
	fab := defaultTopology()
	runner := service.NewClusterRunnerConfigured(reg, nil, fab, service.RunnerConfig{Workers: workers})
	// Faults land and clear in milliseconds here; keep backoff in scale.
	runner.SetRetryPolicy(service.RetryPolicy{
		MaxAttempts: 4, BaseDelay: 2 * time.Millisecond, MaxDelay: 50 * time.Millisecond,
	})
	gw := service.NewGateway(runner, service.GatewayOptions{
		AllowAnonymous: true,
	})
	w := &world{
		fab:    fab,
		runner: runner,
		srv:    httptest.NewServer(gw),
		gate:   g,
		ids:    make([]string, len(specs)),
		specs:  specs,
	}
	// One deterministic volume shared by every segment job: 8x12x12 of
	// seeded values with enough structure for a non-trivial flood fill.
	const d, h, wd = 8, 12, 12
	data := make([]float32, d*h*wd)
	for i := range data {
		data[i] = float32(dataRNG.Float64())
	}
	enc, err := dataset.EncodeVolume(d, h, wd, data)
	if err != nil {
		w.close()
		return nil, err
	}
	resp, err := http.Post(w.srv.URL+"/v1/datasets", "application/octet-stream", bytes.NewReader(enc))
	if err != nil {
		w.close()
		return nil, err
	}
	var info dataset.Info
	err = json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	if err != nil || resp.StatusCode/100 != 2 {
		w.close()
		return nil, fmt.Errorf("scenario: dataset upload: status %d err %v", resp.StatusCode, err)
	}
	w.segRef = info.ID
	return w, nil
}

func (w *world) close() {
	w.srv.Close()
	w.runner.Close()
}

func (w *world) request(spec JobSpec) (*api.JobRequest, error) {
	var req *api.JobRequest
	switch spec.Kind {
	case "segment":
		req = &api.JobRequest{
			Kind:       api.KindSegment,
			ResultMode: api.ResultModeRef,
			Segment: &api.SegmentSpec{
				Source:    api.VolumeSource{Ref: w.segRef},
				Threshold: 0.5,
			},
		}
	case "ivt":
		req = &api.JobRequest{
			Kind:       api.KindIVT,
			ResultMode: api.ResultModeRef,
			IVT:        &api.IVTSpec{Synth: api.SynthSpec{NLon: 36, NLat: 24, NLev: 4, Steps: 8, Seed: 11}},
		}
	case "train_dist":
		td := &api.TrainDistSpec{
			Source:    api.VolumeSource{Ref: w.segRef},
			Threshold: 0.5,
			Workers:   2,
			Rounds:    8,
		}
		if spec.ResumePrev {
			// The checkpoint wins: no net/seed/batch fields, more rounds.
			td.Rounds = 12
		} else {
			td.BatchPerRound = 4
			td.Net = &api.NetConfig{FOV: [3]int{3, 7, 7}, Features: 4, MoveStep: [3]int{1, 2, 2}}
			td.NetSeed = 11
			td.SampleSeed = 13
			td.CheckpointEvery = 2
		}
		req = &api.JobRequest{Kind: api.KindTrainDist, TrainDist: td}
	default:
		return nil, fmt.Errorf("scenario: unknown job kind %q", spec.Kind)
	}
	if spec.Site != "" {
		req.Placement = &api.PlacementSpec{Site: spec.Site}
	}
	return req, nil
}

// awaitCheckpoint waits for job i to succeed and returns the checkpoint ref
// its result names — the resume_prev handoff.
func (w *world) awaitCheckpoint(i int) (string, error) {
	if i < 0 || w.ids[i] == "" {
		return "", fmt.Errorf("scenario: resume_prev: job %d not submitted", i)
	}
	st, err := w.await(i, defaultDeadline, nil)
	if err != nil {
		return "", fmt.Errorf("scenario: resume_prev: job %d not terminal within %v", i, defaultDeadline)
	}
	if st.State != api.StateSucceeded {
		return "", fmt.Errorf("scenario: resume_prev: job %d ended %s: %s", i, st.State, st.Error)
	}
	raw, err := w.result(i)
	if err != nil {
		return "", err
	}
	var tr api.TrainDistResult
	if err := json.Unmarshal(raw, &tr); err != nil {
		return "", err
	}
	if tr.CheckpointRef == "" {
		return "", fmt.Errorf("scenario: job %d produced no checkpoint ref", i)
	}
	return tr.CheckpointRef, nil
}

// await parks on the runner until until(status) holds for job i, the job is
// terminal, or the deadline passes (the error). A predicate may read the
// scheduler: the runner wakes a job's waiters on every bind and unbind.
func (w *world) await(i int, deadline time.Duration, until func(api.JobStatus) bool) (api.JobStatus, error) {
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	return w.runner.Await(ctx, w.ids[i], until)
}

func (w *world) submit(i int) error {
	if w.ids[i] != "" {
		return fmt.Errorf("scenario: job %d already submitted", i)
	}
	req, err := w.request(w.specs[i])
	if err != nil {
		return err
	}
	if w.specs[i].ResumePrev {
		ref, err := w.awaitCheckpoint(i - 1)
		if err != nil {
			return err
		}
		req.TrainDist.ResumeFrom = ref
	}
	body, _ := json.Marshal(req)
	resp, err := http.Post(w.srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		raw, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("scenario: submit job %d: status %d: %s", i, resp.StatusCode, raw)
	}
	var sub api.SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		return err
	}
	w.ids[i] = sub.ID
	return nil
}

func (w *world) status(i int) (api.JobStatus, error) {
	resp, err := http.Get(w.srv.URL + "/v1/jobs/" + w.ids[i])
	if err != nil {
		return api.JobStatus{}, err
	}
	defer resp.Body.Close()
	var st api.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return api.JobStatus{}, err
	}
	return st, nil
}

func (w *world) result(i int) (json.RawMessage, error) {
	resp, err := http.Get(w.srv.URL + "/v1/jobs/" + w.ids[i] + "/result")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var env api.ResultEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		return nil, err
	}
	return env.Result, nil
}

// awaitDone waits until every submitted job is terminal, or deadline.
func (w *world) awaitDone(deadline time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	var stuck []string
	for _, id := range w.ids {
		if id == "" {
			continue
		}
		if st, err := w.runner.Await(ctx, id, nil); err != nil {
			stuck = append(stuck, fmt.Sprintf("%s=%s", id, st.State))
		}
	}
	if len(stuck) > 0 {
		return fmt.Errorf("no forward progress within %v: %v", deadline, stuck)
	}
	return nil
}

func (w *world) outcomes() ([]JobOutcome, error) {
	out := make([]JobOutcome, 0, len(w.ids))
	for i, id := range w.ids {
		if id == "" {
			continue
		}
		st, err := w.status(i)
		if err != nil {
			return nil, err
		}
		o := JobOutcome{
			Index: i, ID: id, Kind: w.specs[i].Kind, State: st.State, Error: st.Error,
		}
		if st.Placement != nil {
			o.Requeues = st.Placement.Requeues
		}
		if st.State == api.StateSucceeded {
			raw, err := w.result(i)
			if err != nil {
				return nil, err
			}
			sum := sha256.Sum256(raw)
			o.ResultSHA = hex.EncodeToString(sum[:])
		}
		out = append(out, o)
	}
	return out, nil
}

// --- engine -----------------------------------------------------------------

const defaultDeadline = 60 * time.Second

// Run executes the script in a disturbed world, executes the same workload
// in an undisturbed baseline world, and reports every invariant violation:
// non-success terminal states, results that differ from the baseline,
// leaked pins or claims, missed transfer budgets, and stuck goroutines.
func Run(sc Script, opt Options) (*Result, error) {
	start := time.Now()
	if opt.WorkersPerNode <= 0 {
		opt.WorkersPerNode = 2
	}
	logf := opt.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	deadline := sc.Deadline
	if deadline <= 0 {
		deadline = defaultDeadline
	}
	goroutines := runtime.NumGoroutine()
	res := &Result{Script: sc.Name, Seed: opt.Seed}

	// Stream discipline: fork order is fixed so the disturbed and baseline
	// worlds draw identical data streams, and each event gets its own
	// independent stream regardless of what earlier events consumed.
	root := sim.NewRNG(opt.Seed)
	dataRNG := root.Fork()
	eventRNG := root.Fork()

	logf("scenario %s: seed %d, %d jobs, %d events", sc.Name, opt.Seed, len(sc.Jobs), len(sc.Events))
	disturbed, err := newWorld(sc.Jobs, opt.WorkersPerNode, dataRNG)
	if err != nil {
		return nil, err
	}
	defer disturbed.close()
	e := &engine{w: disturbed, sc: sc, deadline: deadline, logf: logf, res: res}
	for i := range sc.Jobs {
		if sc.Jobs[i].Deferred {
			continue
		}
		if err := disturbed.submit(i); err != nil {
			return nil, err
		}
	}
	for i, ev := range sc.Events {
		if err := e.apply(i, ev, eventRNG.Fork()); err != nil {
			return nil, err
		}
		e.checkEvent(i, ev)
	}
	disturbed.gate.releaseAll() // scripts may leave holds armed; never wedge
	if err := disturbed.awaitDone(deadline); err != nil {
		res.Violations = append(res.Violations, err.Error())
	}
	if res.Jobs, err = disturbed.outcomes(); err != nil {
		return nil, err
	}
	if err := disturbed.runner.LeakCheck(); err != nil {
		res.Violations = append(res.Violations, err.Error())
	}

	logf("scenario %s: disturbed run done, running baseline", sc.Name)
	baseRoot := sim.NewRNG(opt.Seed)
	baseData := baseRoot.Fork()
	baseline, err := newWorld(sc.Jobs, opt.WorkersPerNode, baseData)
	if err != nil {
		return nil, err
	}
	defer baseline.close()
	for i := range sc.Jobs {
		if err := baseline.submit(i); err != nil {
			return nil, err
		}
	}
	if err := baseline.awaitDone(deadline); err != nil {
		res.Violations = append(res.Violations, "baseline: "+err.Error())
	}
	if res.Baseline, err = baseline.outcomes(); err != nil {
		return nil, err
	}
	if err := baseline.runner.LeakCheck(); err != nil {
		res.Violations = append(res.Violations, "baseline: "+err.Error())
	}

	compare(res)
	disturbed.close()
	baseline.close()
	if leaked := awaitGoroutines(goroutines); leaked != "" {
		res.Violations = append(res.Violations, leaked)
	}
	res.Fingerprint = fingerprint(res)
	res.Wall = time.Since(start)
	sort.Strings(res.Violations)
	return res, nil
}

// compare applies the cross-world invariants: every job succeeded in both
// worlds and the disturbed results hash identically to the baseline's.
func compare(res *Result) {
	base := make(map[int]JobOutcome, len(res.Baseline))
	for _, o := range res.Baseline {
		base[o.Index] = o
	}
	for _, o := range res.Jobs {
		if o.State != api.StateSucceeded {
			res.Violations = append(res.Violations,
				fmt.Sprintf("job %d (%s) ended %s: %s", o.Index, o.ID, o.State, o.Error))
			continue
		}
		b, ok := base[o.Index]
		if !ok || b.State != api.StateSucceeded {
			res.Violations = append(res.Violations,
				fmt.Sprintf("baseline job %d did not succeed (%s)", o.Index, b.State))
			continue
		}
		if o.ResultSHA != b.ResultSHA {
			res.Violations = append(res.Violations,
				fmt.Sprintf("job %d result diverged from undisturbed run: %s vs %s",
					o.Index, o.ResultSHA[:12], b.ResultSHA[:12]))
		}
	}
}

// awaitGoroutines waits for the goroutine count to return to its pre-run
// level (plus slack for runtime pollers); non-empty return = leak.
func awaitGoroutines(before int) string {
	const slack = 8
	limit := time.Now().Add(3 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= before+slack {
			return ""
		}
		if time.Now().After(limit) {
			return fmt.Sprintf("goroutine leak: %d before run, %d after close", before, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// fingerprint hashes the deterministic portion of the report: per-job final
// states, result hashes, and transfer virtual timings. Two runs of the same
// script+seed must produce identical fingerprints.
func fingerprint(res *Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%d\n", res.Script, res.Seed)
	for _, o := range res.Jobs {
		fmt.Fprintf(h, "job|%d|%s|%s\n", o.Index, o.State, o.ResultSHA)
	}
	for _, o := range res.Baseline {
		fmt.Fprintf(h, "base|%d|%s|%s\n", o.Index, o.State, o.ResultSHA)
	}
	for _, tr := range res.Transfers {
		fmt.Fprintf(h, "xfer|%s|%s|%g|%d|%g|%v\n", tr.Src, tr.Dst, tr.Bytes,
			tr.Elapsed, tr.Transferred, tr.Stalled)
	}
	for _, v := range res.Violations {
		fmt.Fprintf(h, "viol|%s\n", v)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// engine interprets one script's events against the disturbed world.
type engine struct {
	w          *world
	sc         Script
	deadline   time.Duration
	logf       func(string, ...any)
	res        *Result
	lastKilled string
}

func (e *engine) apply(i int, ev Action, rng *sim.RNG) error {
	s := e.w.runner.Scheduler()
	e.logf("  event %d: %s", i, ev.Kind)
	switch ev.Kind {
	case ActKillNode:
		node := ev.Node
		if node == "" {
			var err error
			if node, err = e.victim(ev.Job, rng); err != nil {
				return err
			}
		}
		e.lastKilled = node
		return e.w.runner.DrainNode(node)
	case ActRestoreNode:
		node := ev.Node
		if node == "" {
			node = e.lastKilled
		}
		if node == "" {
			return fmt.Errorf("event %d: restore_node with no prior kill", i)
		}
		return e.w.runner.RestoreNode(node)
	case ActFailOSD:
		return s.FailOSD(ev.OSD)
	case ActRecoverOSD:
		return s.RecoverOSD(ev.OSD)
	case ActPartition:
		cut := s.PartitionSite(ev.Site)
		e.logf("  partitioned %s: cut %v", ev.Site, cut)
		return nil
	case ActHeal:
		s.HealSite(ev.Site)
		return nil
	case ActSetLink:
		var ch netsim.LinkChange
		if ev.CapacityBps > 0 {
			ch.Capacity = &ev.CapacityBps
		}
		loss := ev.Loss
		ch.Loss = &loss
		down := ev.Down
		ch.Down = &down
		return s.SetLink(ev.LinkA, ev.LinkB, ch)
	case ActLinkTrace:
		trace := make([]netsim.TracePoint, len(ev.Trace))
		for j, p := range ev.Trace {
			trace[j] = p.netsim()
		}
		return s.ApplyLinkTrace(ev.LinkA, ev.LinkB, trace)
	case ActPanicNext:
		e.w.gate.panicNext(max(ev.Count, 1))
		return nil
	case ActHoldNext:
		e.w.gate.holdNext(max(ev.Count, 1))
		return nil
	case ActRelease:
		e.w.gate.releaseAll()
		return nil
	case ActAwaitHold:
		return e.w.gate.awaitHold(e.deadline)
	case ActAwaitParked:
		return e.await(ev.Job, "parked", func(st api.JobStatus) bool {
			return st.State == api.StateQueued && s.BoundNode(e.w.ids[ev.Job]) == ""
		})
	case ActAwaitBound:
		return e.await(ev.Job, "bound", func(st api.JobStatus) bool {
			return s.BoundNode(e.w.ids[ev.Job]) != "" || st.State.Terminal()
		})
	case ActAwaitDone:
		return e.await(ev.Job, "done", func(st api.JobStatus) bool {
			return st.State.Terminal()
		})
	case ActSubmit:
		return e.w.submit(ev.Job)
	case ActTransfer:
		rep, err := s.RunTransfer(ev.LinkA, ev.LinkB, ev.Bytes)
		if err != nil {
			return err
		}
		out := TransferOutcome{
			Src: rep.Src, Dst: rep.Dst, Bytes: rep.Bytes,
			Elapsed: rep.Elapsed, Transferred: rep.Transferred, Stalled: rep.Stalled,
		}
		e.res.Transfers = append(e.res.Transfers, out)
		e.logf("  transfer %s->%s: %.0fB in %v (stalled=%v)", rep.Src, rep.Dst,
			rep.Transferred, rep.Elapsed, rep.Stalled)
		if rep.Stalled {
			e.res.Violations = append(e.res.Violations,
				fmt.Sprintf("event %d: transfer stalled after %.0f/%.0f bytes", i, rep.Transferred, rep.Bytes))
		}
		if ev.MinElapsed > 0 && rep.Elapsed < ev.MinElapsed {
			e.res.Violations = append(e.res.Violations,
				fmt.Sprintf("event %d: transfer finished in %v, faster than the scripted conditions allow (min %v)",
					i, rep.Elapsed, ev.MinElapsed))
		}
		if ev.MaxElapsed > 0 && rep.Elapsed > ev.MaxElapsed {
			e.res.Violations = append(e.res.Violations,
				fmt.Sprintf("event %d: transfer took %v, exceeding the scripted budget (max %v)",
					i, rep.Elapsed, ev.MaxElapsed))
		}
		return nil
	default:
		return fmt.Errorf("event %d: unknown action kind %q", i, ev.Kind)
	}
}

// victim resolves a kill target: the node the given job is bound to, or —
// if the job is not bound — a seeded-random ready node, so adversity stays
// reproducible from the seed alone.
func (e *engine) victim(jobIdx int, rng *sim.RNG) (string, error) {
	s := e.w.runner.Scheduler()
	if jobIdx >= 0 && jobIdx < len(e.w.ids) && e.w.ids[jobIdx] != "" {
		// The scheduler's binding, not Status.Placement: a placement is the
		// last decision and outlives the binding it records.
		bound := func(api.JobStatus) bool { return s.BoundNode(e.w.ids[jobIdx]) != "" }
		e.w.await(jobIdx, e.deadline, bound)
		if node := s.BoundNode(e.w.ids[jobIdx]); node != "" {
			return node, nil
		}
	}
	var ready []string
	for _, st := range s.Nodes() {
		if st.Ready {
			ready = append(ready, st.Name)
		}
	}
	if len(ready) == 0 {
		return "", fmt.Errorf("scenario: no ready node to kill")
	}
	sort.Strings(ready)
	return ready[rng.Intn(len(ready))], nil
}

func (e *engine) await(jobIdx int, what string, pred func(api.JobStatus) bool) error {
	if jobIdx < 0 || jobIdx >= len(e.w.ids) || e.w.ids[jobIdx] == "" {
		return fmt.Errorf("scenario: await_%s: job %d not submitted", what, jobIdx)
	}
	st, err := e.w.await(jobIdx, e.deadline, pred)
	if err != nil || !pred(st) {
		return fmt.Errorf("scenario: job %d never became %s (state %s)", jobIdx, what, st.State)
	}
	return nil
}

// checkEvent runs the per-event invariants: no submitted job may be in an
// illegal or prematurely-failed state while the script is still running, and
// requeue accounting must stay within the placement budget.
func (e *engine) checkEvent(i int, ev Action) {
	s := e.w.runner.Scheduler()
	for idx, id := range e.w.ids {
		if id == "" {
			continue
		}
		st, err := e.w.status(idx)
		if err != nil {
			e.res.Violations = append(e.res.Violations,
				fmt.Sprintf("after event %d (%s): job %d status unreadable: %v", i, ev.Kind, idx, err))
			continue
		}
		if st.State == api.StateFailed {
			e.res.Violations = append(e.res.Violations,
				fmt.Sprintf("after event %d (%s): job %d failed early: %s", i, ev.Kind, idx, st.Error))
		}
		if n := s.Requeues(id); n > 6 {
			e.res.Violations = append(e.res.Violations,
				fmt.Sprintf("after event %d (%s): job %d requeued %d times (budget breach)", i, ev.Kind, idx, n))
		}
	}
}
