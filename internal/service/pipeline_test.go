package service

import (
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"chaseci/internal/api"
	"chaseci/internal/dataset"
	"chaseci/internal/ffn"
	"chaseci/internal/queue"
)

// pipelineRequest builds a pipeline job over a deterministic synthetic
// scene sized so every slab floods a few hundred FOVs.
func pipelineRequest(slabSteps int) *api.JobRequest {
	return &api.JobRequest{
		Kind: api.KindPipeline,
		Name: "stream",
		Pipeline: &api.PipelineSpec{
			Synth:      api.SynthSpec{NLon: 36, NLat: 24, NLev: 4, Steps: 8, Seed: 11},
			SlabSteps:  slabSteps,
			Threshold:  120,
			Net:        &api.NetConfig{FOV: [3]int{3, 9, 9}, Features: 4, MoveProb: 0.6},
			SeedStride: [3]int{1, 4, 4},
			MinVoxels:  2,
		},
	}
}

// runToResult submits req and returns the decoded pipeline result.
func runToResult(t *testing.T, r *Runner, req *api.JobRequest) api.PipelineResult {
	t.Helper()
	st, err := r.Submit(req, "")
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, r, st.ID, terminal)
	if final.State != api.StateSucceeded {
		t.Fatalf("pipeline state = %s (%s)", final.State, final.Error)
	}
	raw, _, _ := r.Result(st.ID)
	var res api.PipelineResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestPipelineMatchesSequentialJobs requires a single-slab pipeline job to
// reproduce exactly what running the three stages as separate jobs yields:
// the IVT summary of an ivt job, the flood statistics of a segment job, and
// the object statistics of a label job over the segment job's mask.
func TestPipelineMatchesSequentialJobs(t *testing.T) {
	r, _ := newTestRunner(t, DefaultRegistry(), 2)
	pres := runToResult(t, r, pipelineRequest(0))
	if pres.Slabs != 1 || pres.SlabsDone != 1 || pres.Steps != 8 {
		t.Fatalf("unexpected slab accounting: %+v", pres)
	}
	if pres.SegSteps == 0 || pres.MaskVoxels == 0 || pres.Objects == 0 {
		t.Fatalf("degenerate pipeline scene: %+v", pres)
	}

	synth := api.SynthSpec{NLon: 36, NLat: 24, NLev: 4, Steps: 8, Seed: 11}

	// Stage 1 reference: the ivt job.
	st, err := r.Submit(&api.JobRequest{Kind: api.KindIVT, IVT: &api.IVTSpec{Synth: synth}}, "")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, r, st.ID, terminal)
	raw, _, _ := r.Result(st.ID)
	var ivtRes api.IVTResult
	if err := json.Unmarshal(raw, &ivtRes); err != nil {
		t.Fatal(err)
	}
	if pres.IVTMax != ivtRes.Max {
		t.Fatalf("pipeline IVTMax %v != ivt job Max %v", pres.IVTMax, ivtRes.Max)
	}
	if diff := math.Abs(pres.IVTMean - ivtRes.Mean); diff > 1e-9*ivtRes.Mean {
		t.Fatalf("pipeline IVTMean %v != ivt job Mean %v", pres.IVTMean, ivtRes.Mean)
	}

	// Stage 2 reference: the segment job with identical net and seeding.
	st, err = r.Submit(&api.JobRequest{Kind: api.KindSegment, Segment: &api.SegmentSpec{
		Source:     api.VolumeSource{Synth: &synth},
		Threshold:  120,
		Net:        &api.NetConfig{FOV: [3]int{3, 9, 9}, Features: 4, MoveProb: 0.6},
		SeedStride: [3]int{1, 4, 4},
		ReturnMask: true,
	}}, "")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, r, st.ID, terminal)
	raw, _, _ = r.Result(st.ID)
	var segRes api.SegmentResult
	if err := json.Unmarshal(raw, &segRes); err != nil {
		t.Fatal(err)
	}
	if pres.SegSteps != segRes.Steps || pres.SegMoves != segRes.Moves ||
		pres.SeedsUsed != segRes.SeedsUsed || pres.MaskVoxels != segRes.MaskVoxels ||
		pres.VoxelsTotal != segRes.VoxelsTotal {
		t.Fatalf("pipeline segment stats %+v diverge from segment job %+v", pres, segRes)
	}

	// Stage 3 reference: the label job over the segment job's mask
	// (unpacked from the 1-bit inline encoding).
	segMask, err := dataset.UnpackBits(segRes.MaskBits, segRes.D*segRes.H*segRes.W)
	if err != nil {
		t.Fatal(err)
	}
	st, err = r.Submit(&api.JobRequest{Kind: api.KindLabel, Label: &api.LabelSpec{
		Source:    api.VolumeSource{D: segRes.D, H: segRes.H, W: segRes.W, Data: segMask},
		Threshold: 0.5,
		MinVoxels: 2,
	}}, "")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, r, st.ID, terminal)
	raw, _, _ = r.Result(st.ID)
	var labRes api.LabelResult
	if err := json.Unmarshal(raw, &labRes); err != nil {
		t.Fatal(err)
	}
	if pres.Objects != labRes.Objects || pres.ObjectVoxels != labRes.TotalVoxels ||
		pres.MaxDuration != labRes.MaxDuration {
		t.Fatalf("pipeline label stats %+v diverge from label job %+v", pres, labRes)
	}
}

// TestPipelineProgressReachesTotal checks the per-stage progress plumbing:
// a finished pipeline reports done == total == 3*slabs and a stage string
// carrying every stage's count.
func TestPipelineProgressReachesTotal(t *testing.T) {
	r, _ := newTestRunner(t, DefaultRegistry(), 1)
	st, err := r.Submit(pipelineRequest(3), "")
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, r, st.ID, terminal)
	if final.State != api.StateSucceeded {
		t.Fatalf("state = %s (%s)", final.State, final.Error)
	}
	if final.Total != 9 || final.Done != 9 {
		t.Fatalf("progress %d/%d, want 9/9", final.Done, final.Total)
	}
	for _, stage := range []string{"ivt 3/3", "segment 3/3", "label 3/3"} {
		if !strings.Contains(final.Stage, stage) {
			t.Fatalf("stage %q missing %q", final.Stage, stage)
		}
	}
}

// TestPipelineCancelMidStream cancels a long pipeline mid-flight and
// expects a cancelled job with a partial per-slab result.
func TestPipelineCancelMidStream(t *testing.T) {
	r, _ := newTestRunner(t, DefaultRegistry(), 2)
	req := &api.JobRequest{
		Kind: api.KindPipeline,
		Pipeline: &api.PipelineSpec{
			Synth:      api.SynthSpec{NLon: 48, NLat: 32, NLev: 4, Steps: 30, Seed: 7},
			SlabSteps:  3,
			Threshold:  1, // nearly every voxel seeds: plenty of work
			Net:        &api.NetConfig{FOV: [3]int{3, 9, 9}, Features: 4, MoveProb: 0.55},
			SeedStride: [3]int{1, 3, 3},
		},
	}
	st, err := r.Submit(req, "")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, r, st.ID, func(s api.JobStatus) bool { return s.Done > 0 || s.State.Terminal() })
	if !r.Cancel(st.ID) {
		t.Fatal("cancel refused")
	}
	final := waitState(t, r, st.ID, terminal)
	if final.State != api.StateCancelled {
		t.Fatalf("state = %s, want cancelled", final.State)
	}
	raw, _, _ := r.Result(st.ID)
	var res api.PipelineResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if res.SlabsDone >= res.Slabs {
		t.Fatalf("cancelled pipeline completed all %d slabs", res.Slabs)
	}
}

// TestAPIScratchAssumptionsMatchKernelDefaults pins the kernel defaults the
// pure-schema api package assumes in NetConfig.validate's batched-scratch
// budget and move_step bound (api must not import ffn, so the agreement is enforced here, where
// both packages are visible). If this fails, update the literals in
// api.NetConfig.validate alongside the kernel change.
func TestAPIScratchAssumptionsMatchKernelDefaults(t *testing.T) {
	cfg := ffn.DefaultConfig()
	if cfg.FOV != [3]int{5, 9, 9} || cfg.Features != 8 || cfg.Modules != 2 || cfg.MoveStep != [3]int{1, 3, 3} || ffn.DefaultFloodBatch != 8 {
		t.Fatalf("ffn defaults (FOV %v, Features %d, Modules %d, MoveStep %v, flood batch %d) drifted from the values api.NetConfig.validate and paramCount assume",
			cfg.FOV, cfg.Features, cfg.Modules, cfg.MoveStep, ffn.DefaultFloodBatch)
	}
	// api's restated parameter count agrees with the kernel's: the largest
	// batch whose batch x P gradient matrix fits 64M elements (api's
	// maxScratchElems, ffn's maxGradElems) passes, one more does not.
	for _, nc := range []api.NetConfig{{Features: 64, Modules: 4}, {Features: 100}, {Features: 17, Modules: 16}} {
		net, err := ffn.NewNetwork(netConfig(&nc), 1)
		if err != nil {
			t.Fatal(err)
		}
		fits := (64 << 20) / net.ParamCount()
		for batch, ok := range map[int]bool{fits: true, fits + 1: false} {
			req := distRequest(1, 1)
			req.TrainDist.Net, req.TrainDist.BatchPerRound = &nc, batch
			if err := req.Validate(); (err == nil) != ok {
				t.Fatalf("net %+v (%d parameters), batch_per_round %d: Validate = %v, want accepted=%v", nc, net.ParamCount(), batch, err, ok)
			}
		}
	}
	// And the budget itself must reject the all-extremes corner.
	bad := &api.JobRequest{Kind: api.KindSegment, Segment: &api.SegmentSpec{
		Source: api.VolumeSource{D: 2, H: 2, W: 2, Data: make([]float32, 8)},
		Seeds:  [][3]int{{1, 1, 1}}, MaxSteps: 1,
		Net: &api.NetConfig{FOV: [3]int{65, 65, 65}, Features: 256},
	}}
	if err := bad.Validate(); err == nil {
		t.Fatal("all-extremes net config passed validation")
	}
}

// benchPipelineRequest sizes a pipeline so the three stages have comparable
// non-trivial cost.
func benchPipelineRequest() *api.JobRequest {
	return &api.JobRequest{
		Kind: api.KindPipeline,
		Pipeline: &api.PipelineSpec{
			Synth:      api.SynthSpec{NLon: 72, NLat: 48, NLev: 24, Steps: 12, Seed: 11},
			SlabSteps:  3,
			Threshold:  120,
			Net:        &api.NetConfig{FOV: [3]int{3, 9, 9}, Features: 6, MoveProb: 0.6},
			SeedStride: [3]int{1, 4, 4},
		},
	}
}

// BenchmarkPipeline measures the streamed IVT -> segment -> label pipeline
// on a multi-timestep volume, handler only.
func BenchmarkPipeline(b *testing.B) {
	req := benchPipelineRequest()
	if err := req.Validate(); err != nil {
		b.Fatal(err)
	}
	r := NewRunnerConfigured(NewRegistry(), queue.NewStore(), RunnerConfig{Workers: 1})
	defer r.Close()
	for i := 0; i < b.N; i++ {
		jc := &JobContext{ctx: context.Background(), job: &job{req: req}, runner: r}
		res, err := PipelineHandler(jc)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			pr := res.(api.PipelineResult)
			b.ReportMetric(float64(pr.SegSteps), "seg-steps")
			b.ReportMetric(float64(pr.Objects), "objects")
		}
	}
}

var _ = time.Now // keep time imported for waitState timeouts
