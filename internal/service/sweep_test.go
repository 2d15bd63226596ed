package service

import (
	"encoding/json"
	"strings"
	"sync/atomic"
	"testing"

	"chaseci/internal/api"
	"chaseci/internal/dataset"
	"chaseci/internal/merra"
)

// sameBoard compares a leaderboard row by row on what a board pins: params,
// train loss, precision/recall/F1/IoU, the early-stop flag and the order —
// not the child job ids or the checkpoint ref.
func sameBoard(t *testing.T, got, want []api.SweepEntry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("leaderboard has %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		g := got[i]
		g.JobID, g.CheckpointRef = "", ""
		if g != want[i] {
			t.Errorf("leaderboard[%d] = %+v\nwant %+v", i, g, want[i])
		}
	}
}

// learningSweep is an 8-candidate grid of 60 rounds over the scene core's
// sweep validates on (36x24, six levels, seed 11, nine steps from step 20)
// labelled at its 80th percentile, where the candidates learn apart: with
// early stop, four stop at the 30-round rung and four go on.
func learningSweep(earlyStop bool) *api.JobRequest {
	g := merra.Grid{NLon: 36, NLat: 24, NLev: 6}
	vol := merra.IVTVolume(merra.NewGenerator(g, 11), merra.PressureLevels(g.NLev), 20, 9)
	flat := merra.Field2D{NLon: len(vol.Data), NLat: 1, Data: vol.Data}
	return &api.JobRequest{Kind: api.KindSweep, Name: "learn", Sweep: &api.SweepSpec{
		Source:        api.VolumeSource{D: 9, H: g.NLat, W: g.NLon, Data: vol.Data},
		Threshold:     flat.Quantile(0.8),
		TrainFraction: 0.67,
		LRs:           []float32{0.01, 0.03},
		Momentums:     []float32{0.9},
		Features:      []int{4, 6},
		Modules:       []int{1, 2},
		TrainSteps:    []int{60},
		EarlyStop:     earlyStop,
		Parallel:      4,
		Seed:          5,
	}}
}

func sweepResult(t *testing.T, raw json.RawMessage) (res api.SweepResult) {
	t.Helper()
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSweepSurvivorsResumeTheirRung: an early-stopped 8-candidate grid of S
// rounds with four survivors trains 6·S child rounds — 8·S/2 on the rung,
// then S/2 more for each survivor, which resumes its rung checkpoint — not
// the 8·S it took when survivors retrained from round 0. Resume is
// bit-exact, so each survivor's row, and the winner's checkpoint, are those
// of the same candidate run without early stop.
func TestSweepSurvivorsResumeTheirRung(t *testing.T) {
	const S = 60
	var rounds, resumed atomic.Int64
	reg := DefaultRegistry()
	reg.Register(api.KindTrainDist, func(jc *JobContext) (any, error) {
		out, err := TrainDistHandler(jc)
		if res, ok := out.(api.TrainDistResult); ok {
			rounds.Add(int64(res.Rounds - res.StartRound))
			if res.ResumedFrom != "" {
				resumed.Add(1)
			}
		}
		return out, err
	})
	r := newTestRunner(t, reg, 4)

	stopped := sweepResult(t, runJob(t, r, learningSweep(true)))
	if got := rounds.Load(); got != 6*S {
		t.Fatalf("early-stopped grid trained %d child rounds, want 6·S = %d", got, 6*S)
	}
	if stopped.EarlyStopped != 4 || resumed.Load() != 4 {
		t.Fatalf("%d candidates stopped and %d resumed, want 4 and 4", stopped.EarlyStopped, resumed.Load())
	}

	rounds.Store(0)
	full := sweepResult(t, runJob(t, r, learningSweep(false)))
	if got := rounds.Load(); got != 8*S {
		t.Fatalf("the grid without early stop trained %d child rounds, want 8·S = %d", got, 8*S)
	}
	byParams := make(map[api.SweepParams]api.SweepEntry)
	for _, e := range full.Leaderboard {
		e.JobID, e.CheckpointRef = "", ""
		byParams[e.Params] = e
	}
	for _, e := range stopped.Leaderboard {
		if e.EarlyStopped {
			if e.Params.TrainSteps != S/2 {
				t.Fatalf("stopped candidate %+v, want the %d-round rung", e.Params, S/2)
			}
			continue
		}
		e.JobID, e.CheckpointRef = "", ""
		if e != byParams[e.Params] {
			t.Errorf("resumed survivor %+v\nwant the uninterrupted run's %+v", e, byParams[e.Params])
		}
	}
	if stopped.Best.Params != full.Best.Params || stopped.Best.CheckpointRef != full.Best.CheckpointRef {
		t.Fatalf("winner %+v (%s), want the uninterrupted sweep's %+v (%s)",
			stopped.Best.Params, stopped.Best.CheckpointRef, full.Best.Params, full.Best.CheckpointRef)
	}
	assertNoLeaks(t, r)
}

// TestSweepBestFloodsThroughNetRef: the paper's validate-then-infer loop
// through the API. A sweep's winner names its checkpoint, the only one the
// sweep leaves in the store, and a segment job floods with it by net_ref.
func TestSweepBestFloodsThroughNetRef(t *testing.T) {
	f := newGWFixture(t, true)
	req := learningSweep(false)
	req.Sweep.Modules, req.Sweep.LRs = []int{1}, []float32{0.03}
	st, env := f.submitAndWait(req)
	if st.State != api.StateSucceeded {
		t.Fatalf("sweep: %s (%s)", st.State, st.Error)
	}
	best := sweepResult(t, env.Result).Best
	if best.CheckpointRef == "" || best.F1 < 0.5 {
		t.Fatalf("best = %+v, want a checkpoint ref and a model that segments", best)
	}
	if ckpts := checkpointsIn(f.runner.Datasets()); len(ckpts) != 1 || ckpts[0] != best.CheckpointRef {
		t.Fatalf("store holds checkpoints %v, want only the winner's %s", ckpts, best.CheckpointRef)
	}
	st, env = f.submitAndWait(&api.JobRequest{Kind: api.KindSegment, Segment: &api.SegmentSpec{
		Source: req.Sweep.Source, Threshold: req.Sweep.Threshold, NetRef: best.CheckpointRef,
	}})
	if st.State != api.StateSucceeded {
		t.Fatalf("segment{net_ref: best.checkpoint_ref}: %s (%s)", st.State, st.Error)
	}
	var seg api.SegmentResult
	if err := json.Unmarshal(env.Result, &seg); err != nil {
		t.Fatal(err)
	}
	if seg.Steps == 0 || seg.MaskVoxels == 0 {
		t.Fatalf("the winner's network flooded nothing: %+v", seg)
	}
	assertNoLeaks(t, f.runner)
}

// checkpointsIn lists the store's checkpoint ids.
func checkpointsIn(ds *dataset.Manager) []string {
	var out []string
	for _, info := range ds.List() {
		if info.Kind == dataset.KindCheckpoint.String() {
			out = append(out, info.ID)
		}
	}
	return out
}

// TestSweepKeepsOneCheckpoint: a succeeded sweep leaves exactly one
// checkpoint its children wrote (its winner's), however often it runs; a
// cancelled sweep leaves none, not even those of children that succeeded
// around the cancel; and a checkpoint the owner kept before a sweep
// reproduced it byte for byte and discarded it still resolves.
func TestSweepKeepsOneCheckpoint(t *testing.T) {
	const owner = "alice@ucsd.edu"
	// The children of the sweep named "doomed" report success, then hold
	// until the test has cancelled their parent.
	trained, hold := make(chan struct{}, 1), make(chan struct{})
	reg := DefaultRegistry()
	reg.Register(api.KindTrainDist, func(jc *JobContext) (any, error) {
		out, err := TrainDistHandler(jc)
		if err == nil && strings.HasPrefix(jc.Request().Name, "doomed/") {
			select {
			case trained <- struct{}{}:
			default:
			}
			<-hold
		}
		return out, err
	})
	r := newTestRunner(t, reg, 2)
	ds := r.Datasets()
	run := func(req *api.JobRequest) (string, api.JobStatus) {
		t.Helper()
		st, err := r.Submit(req, owner)
		if err != nil {
			t.Fatal(err)
		}
		return st.ID, waitState(t, r, st.ID, terminal)
	}
	spec := &api.SweepSpec{
		Source:        api.VolumeSource{Synth: &api.SynthSpec{NLon: 36, NLat: 24, NLev: 4, Steps: 6, Seed: 11}},
		Threshold:     130,
		TrainFraction: 0.67,
		LRs:           []float32{0.01, 0.03},
		Momentums:     []float32{0.9},
		Features:      []int{4, 6},
		TrainSteps:    []int{10},
		Seed:          5,
	}
	sweepReq := &api.JobRequest{Kind: api.KindSweep, Sweep: spec}

	// The owner keeps candidate 1's checkpoint first, from the very job the
	// sweep will run for it (a 6-step source at 0.67 holds 2 steps out).
	id, st := run(&api.JobRequest{Kind: api.KindTrainDist, TrainDist: spec.Child(spec.Candidates()[1], 2, "")})
	if st.State != api.StateSucceeded {
		t.Fatalf("owner's train_dist: %s (%s)", st.State, st.Error)
	}
	raw, _, _ := r.Result(id)
	var mine api.TrainDistResult
	if err := json.Unmarshal(raw, &mine); err != nil {
		t.Fatal(err)
	}

	var best string
	for i := 0; i < 2; i++ {
		id, st := run(sweepReq)
		if st.State != api.StateSucceeded {
			t.Fatalf("sweep %d: %s (%s)", i, st.State, st.Error)
		}
		raw, _, _ := r.Result(id)
		best = sweepResult(t, raw).Best.CheckpointRef
		if best == mine.CheckpointRef {
			t.Fatal("candidate 1 won; the test needs it to lose")
		}
		got := checkpointsIn(ds)
		if len(got) != 2 || (got[0] != best && got[1] != best) {
			t.Fatalf("after sweep %d the store holds checkpoints %v, want the winner's %s and the owner's %s",
				i, got, best, mine.CheckpointRef)
		}
	}
	if _, err := ds.Resolve(mine.CheckpointRef); err != nil || !ds.IsOwner(mine.CheckpointRef, owner) {
		t.Fatalf("the owner's checkpoint, reproduced and discarded by the sweep: %v", err)
	}

	// A sweep cancelled once a child has kept a checkpoint leaves none:
	// another seed, so none of its checkpoints collide with the ones above.
	other := *spec
	other.Seed = 6
	st0, err := r.Submit(&api.JobRequest{Kind: api.KindSweep, Name: "doomed", Sweep: &other}, owner)
	if err != nil {
		t.Fatal(err)
	}
	<-trained
	r.Cancel(st0.ID)
	close(hold)
	if final := waitState(t, r, st0.ID, terminal); final.State != api.StateCancelled {
		t.Fatalf("cancelled sweep: %s (%s)", final.State, final.Error)
	}
	if got := checkpointsIn(ds); len(got) != 2 {
		t.Fatalf("a cancelled sweep left checkpoints behind: %v", got)
	}
	assertNoLeaks(t, r)
}
