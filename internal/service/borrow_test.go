package service

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"chaseci/internal/api"
	"chaseci/internal/dataset"
	"chaseci/internal/merra"
)

// The job path borrows its sources read-only: a ref's decoded blob straight
// from the dataset cache, inline data straight from the request. These tests
// enforce the rule the copies used to stand in for.

// contentID is the content address the data would be stored under: the
// fingerprint these tests compare before and after a job.
func contentID(t *testing.T, kind dataset.Kind, d, h, w int, data []float32) string {
	t.Helper()
	encode := dataset.EncodeVolume
	if kind == dataset.KindMask {
		encode = dataset.EncodeMask
	}
	enc, err := encode(d, h, w, data)
	if err != nil {
		t.Fatal(err)
	}
	return dataset.ID(enc)
}

// runJob submits req, waits for success and returns the raw result.
func runJob(t *testing.T, r *Runner, req *api.JobRequest) json.RawMessage {
	t.Helper()
	st, err := r.Submit(req, "")
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, r, st.ID, terminal)
	if final.State != api.StateSucceeded {
		t.Fatalf("%s job: %s (%s)", req.Kind, final.State, final.Error)
	}
	raw, _, _ := r.Result(st.ID)
	return raw
}

// TestJobsLeaveResolvedBlobsUntouched: a resolved blob is a view of the bytes
// the store keeps under its content address, so a write through one would
// corrupt the address itself. After train_dist, segment (with the network of
// that job's checkpoint, by net_ref), label and held-out train_dist jobs over
// a volume ref, segment, label and train_dist jobs over the segment job's
// stored mask (both the packed scan and the float expansion), a train_dist
// resumed from the checkpoint ref, and eight concurrent segment jobs on the
// one ref and the one checkpoint — which must also agree with each other bit
// for bit — every blob still encodes to its id and every stored encoding
// still hashes to it.
func TestJobsLeaveResolvedBlobsUntouched(t *testing.T) {
	r := newTestRunner(t, DefaultRegistry(), 4)
	ds := r.Datasets()
	d, h, w, data := testIVTField(6)
	info, err := ds.PutVolume(d, h, w, data, "")
	if err != nil {
		t.Fatal(err)
	}
	blob, err := ds.Resolve(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	refs := []string{info.ID}
	check := func(after string) {
		t.Helper()
		again, err := ds.Resolve(info.ID)
		if err != nil {
			t.Fatal(err)
		}
		if again != blob {
			t.Fatalf("after %s: the cache no longer serves the same blob", after)
		}
		for _, id := range refs {
			b, err := ds.Resolve(id)
			if err != nil {
				t.Fatal(err)
			}
			if b.Kind != dataset.KindCheckpoint && contentID(t, b.Kind, b.D, b.H, b.W, b.Floats()) != id {
				t.Fatalf("after %s: the cached %s blob's data changed", after, b.Kind)
			}
			enc, err := ds.GetBytes(id)
			if err != nil {
				t.Fatal(err)
			}
			if dataset.ID(enc) != id {
				t.Fatalf("after %s: the stored %s no longer hashes to its content address", after, b.Kind)
			}
		}
	}

	src := api.VolumeSource{Ref: info.ID}
	net := &api.NetConfig{FOV: [3]int{3, 7, 7}, Features: 4, MoveProb: 0.6}
	var tres api.TrainDistResult
	if err := json.Unmarshal(runJob(t, r, &api.JobRequest{Kind: api.KindTrainDist, TrainDist: &api.TrainDistSpec{
		Source: src, Threshold: 120, Workers: 2, Rounds: 2, BatchPerRound: 4, Net: net, NetSeed: 7, SampleSeed: 7,
	}}), &tres); err != nil {
		t.Fatal(err)
	}
	refs = append(refs, tres.CheckpointRef)
	check("train_dist")
	// A checkpoint blob's Raw is the stored payload itself: flood with the
	// network it holds.
	segment := &api.JobRequest{Kind: api.KindSegment, ResultMode: api.ResultModeRef, Segment: &api.SegmentSpec{
		Source: src, Threshold: 120, NetRef: tres.CheckpointRef, SeedStride: [3]int{1, 4, 4}, ReturnMask: true,
	}}
	var sres api.SegmentResult
	if err := json.Unmarshal(runJob(t, r, segment), &sres); err != nil {
		t.Fatal(err)
	}
	refs = append(refs, sres.MaskRef)
	check("segment")
	for _, req := range []*api.JobRequest{
		{Kind: api.KindLabel, Label: &api.LabelSpec{Source: src, Threshold: 120}},
		{Kind: api.KindTrainDist, TrainDist: &api.TrainDistSpec{
			Source: src, Threshold: 120, Workers: 1, Rounds: 6, BatchPerRound: 1, Net: net, HoldoutSteps: 2}},
	} {
		runJob(t, r, req)
		check(string(req.Kind))
	}

	// And resume from it.
	runJob(t, r, &api.JobRequest{Kind: api.KindTrainDist, TrainDist: &api.TrainDistSpec{
		Source: src, Threshold: 120, Workers: 2, Rounds: 3, ResumeFrom: tres.CheckpointRef,
	}})
	check("train_dist resume")

	// A mask blob is borrowed the same way: the segment job stored its
	// mask, a label job scans it where it lies, a label job whose threshold
	// needs the floats, a segment job and a train_dist job read its one
	// expansion.
	if sres.MaskVoxels == 0 {
		t.Fatal("the segment job's mask is empty: nothing for the mask reads to read")
	}
	msrc := api.VolumeSource{Ref: sres.MaskRef}
	for _, req := range []*api.JobRequest{
		{Kind: api.KindLabel, Label: &api.LabelSpec{Source: msrc, Threshold: 0.5}},
		{Kind: api.KindLabel, Label: &api.LabelSpec{Source: msrc, Threshold: 2}},
		{Kind: api.KindSegment, ResultMode: api.ResultModeRef, Segment: &api.SegmentSpec{
			Source: msrc, Threshold: 0.5, NetRef: tres.CheckpointRef, SeedStride: [3]int{1, 4, 4}, ReturnMask: true,
		}},
		{Kind: api.KindTrainDist, TrainDist: &api.TrainDistSpec{
			Source: msrc, Threshold: 0.5, Workers: 1, Rounds: 6, BatchPerRound: 1, Net: net}},
	} {
		runJob(t, r, req)
		check(string(req.Kind) + " over a mask ref")
	}

	results := make([]string, 8)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := r.Submit(segment, "")
			if err != nil {
				t.Error(err)
				return
			}
			if final := waitState(t, r, st.ID, terminal); final.State != api.StateSucceeded {
				t.Errorf("concurrent segment %d: %s (%s)", i, final.State, final.Error)
				return
			}
			raw, _, _ := r.Result(st.ID)
			results[i] = string(raw)
		}(i)
	}
	wg.Wait()
	for i, res := range results {
		if res != results[0] {
			t.Fatalf("concurrent segment %d over one ref diverges:\n%s\nvs\n%s", i, res, results[0])
		}
	}
	check("8 concurrent segment jobs")
	assertNoLeaks(t, r)
}

// TestRetriedInlineSegmentSeesPristineData: an inline job's source is the
// request's own Data, which the retry loop hands to every attempt. A first
// attempt that runs the whole handler and then fails transiently must leave
// it untouched, so the retry returns what an undisturbed run returns.
func TestRetriedInlineSegmentSeesPristineData(t *testing.T) {
	d, h, w, data := testIVTField(4)
	request := func() *api.JobRequest {
		return &api.JobRequest{Kind: api.KindSegment, Segment: &api.SegmentSpec{
			Source:     api.VolumeSource{D: d, H: h, W: w, Data: data},
			Threshold:  120,
			Net:        &api.NetConfig{FOV: [3]int{3, 7, 7}, Features: 6, MoveProb: 0.6},
			SeedStride: [3]int{1, 4, 4},
			ReturnMask: true,
		}}
	}
	plain := newTestRunner(t, DefaultRegistry(), 1)
	want := runJob(t, plain, request())

	var attempts atomic.Int32
	reg := DefaultRegistry()
	reg.Register(api.KindSegment, func(jc *JobContext) (any, error) {
		res, err := SegmentHandler(jc)
		if attempts.Add(1) == 1 && err == nil {
			return nil, fmt.Errorf("result store briefly unavailable: %w", ErrTransient)
		}
		return res, err
	})
	r := newTestRunner(t, reg, 1)
	tightRetries(r, 3)
	before := contentID(t, dataset.KindVolume, d, h, w, data)
	got := runJob(t, r, request())
	if attempts.Load() != 2 {
		t.Fatalf("handler ran %d times, want 2", attempts.Load())
	}
	if contentID(t, dataset.KindVolume, d, h, w, data) != before {
		t.Fatal("the handler wrote the request's inline data")
	}
	if string(got) != string(want) {
		t.Fatalf("retried result diverges from an undisturbed run:\n%s\nvs\n%s", got, want)
	}
}

// TestCancelledSegmentKeepsPackedPartialMask: a cancelled flood's mask is
// packed into the result before the mask buffer is recycled — one set bit
// per counted voxel, never the NaN a released buffer holds.
func TestCancelledSegmentKeepsPackedPartialMask(t *testing.T) {
	r := newTestRunner(t, DefaultRegistry(), 1)
	req := bigSegmentRequest()
	req.ResultMode = api.ResultModeRef
	req.Segment.ReturnMask = true
	st, err := r.Submit(req, "")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, r, st.ID, func(s api.JobStatus) bool { return s.Stage == "segment" && s.Done > 0 })
	r.Cancel(st.ID)
	if final := waitState(t, r, st.ID, terminal); final.State != api.StateCancelled {
		t.Fatalf("state = %s, want cancelled", final.State)
	}
	raw, _, _ := r.Result(st.ID)
	var res api.SegmentResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if res.MaskRef != "" || len(res.MaskBits) != (res.VoxelsTotal+7)/8 {
		t.Fatalf("cancelled ref-mode job: mask_ref %q, %d packed bytes for %d voxels", res.MaskRef, len(res.MaskBits), res.VoxelsTotal)
	}
	set := 0
	for _, b := range res.MaskBits {
		set += bits.OnesCount8(b)
	}
	if res.Steps == 0 || set != res.MaskVoxels {
		t.Fatalf("partial mask has %d set bits, stats count %d voxels over %d steps", set, res.MaskVoxels, res.Steps)
	}
}

// put64Volume stores the 64^3 volume the submit-path benchmarks ship.
func put64Volume(t *testing.T, r *Runner) string {
	d, h, w, data := bench64Volume()
	info, err := r.Datasets().PutVolume(d, h, w, data, "")
	if err != nil {
		t.Fatal(err)
	}
	return info.ID
}

// TestJobAllocBounds pins the job path's allocation diet in plain `go test`:
// what one job of each shape allocates in steady state, submit to result
// (measured figure in each case's comment). The race detector's sync.Pool
// drops the conv kernels' pooled task structs on most of a training job's
// ~960 backward calls, so the three training rows carry a second, looser
// bound for the CI race job (raceKB, 2x what they read there); every other
// row holds its one bound in both.
func TestJobAllocBounds(t *testing.T) {
	sweep := &api.JobRequest{Kind: api.KindSweep, Sweep: &api.SweepSpec{
		Source:        api.VolumeSource{Synth: &api.SynthSpec{NLon: 36, NLat: 24, NLev: 4, Steps: 6, Seed: 11}},
		Threshold:     130,
		TrainFraction: 0.67,
		LRs:           []float32{0.01, 0.03},
		Momentums:     []float32{0.9},
		Features:      []int{4, 6},
		Modules:       []int{1, 2},
		TrainSteps:    []int{30},
		Parallel:      4,
		Seed:          5,
	}}
	chainSynth := api.SynthSpec{NLon: 72, NLat: 48, NLev: 8, Steps: 12, Seed: 3}
	dist := distRequest(2, 12)
	dist.TrainDist.BatchPerRound = 16
	dist.TrainDist.Net.Features = 6
	dist.TrainDist.CheckpointEvery = 4
	for _, tc := range []struct {
		name              string
		workers           int
		request           func(t *testing.T, r *Runner) *api.JobRequest
		warm, jobs, maxKB int
		raceKB            int
	}{
		// A one-step segment job over a cached 64^3 volume — 1 MB decoded —
		// allocates what the job's bookkeeping does (4 KB): its network is
		// the runner's shared one and its mask is already stored, so the
		// re-put hashes it where it lies. It was 77 KB while every job drew
		// its own network and encoded its mask before finding the id
		// stored, and 4.4 MB before the source was borrowed and the flood's
		// arrays pooled.
		{"ref_segment", 2, func(t *testing.T, r *Runner) *api.JobRequest {
			return &api.JobRequest{Kind: api.KindSegment, ResultMode: api.ResultModeRef,
				Segment: benchSegmentSpec(api.VolumeSource{Ref: put64Volume(t, r)})}
		}, 4, 32, 10, 0},
		// The same job flooding with a train_dist checkpoint's network
		// (net_ref): a cache hit resolves and decodes nothing, where a
		// decode costs the weights and the optimizer's velocity (16 KB).
		{"netref_segment", 2, func(t *testing.T, r *Runner) *api.JobRequest {
			var tres api.TrainDistResult
			if err := json.Unmarshal(runJob(t, r, distRequest(1, 2)), &tres); err != nil {
				t.Fatal(err)
			}
			spec := benchSegmentSpec(api.VolumeSource{Ref: put64Volume(t, r)})
			spec.NetRef = tres.CheckpointRef
			return &api.JobRequest{Kind: api.KindSegment, ResultMode: api.ResultModeRef, Segment: spec}
		}, 4, 32, 10, 0},
		// A 12-round, batch-16 job with two periodic checkpoints (the bench/
		// workload's shape). The network's parameter vector, the optimizer's
		// velocity, the batch x P gradient matrix, the center index and a
		// scratch slab per worker are borrowed, and each checkpoint is
		// serialized once into the frame the store keeps: what is left is
		// those three frames, about 120 KB, and bookkeeping (131-133 KB;
		// 137-141 KB under the race detector). It was 172 KB while the network
		// and the velocity were allocated per job; 853 KB when the matrix,
		// index and scratch were built per job too and each checkpoint was
		// encoded and then copied into its frame; 21 MB when every sample's
		// backward pass built its own activation cache and the all-reduce
		// cloned the gradients.
		{"train_dist", 2, func(*testing.T, *Runner) *api.JobRequest { return dist }, 2, 8, 270, 280},
		// A sweep child — train_dist on one worker, one example a round, a
		// held-out slab scored — borrows the same way, and also writes the
		// checkpoint a sweep keeps for its winner: about 34 KB of frame at
		// f6/m2 (52-53 KB, 58-62 KB under the race detector; 91 KB while the
		// network and velocity were allocated per job, 49 KB as the train
		// kind, which wrote no checkpoint; 213 KB before borrowing).
		{"sweep_child", 2, func(*testing.T, *Runner) *api.JobRequest {
			h := api.SweepParams{LR: 0.03, Momentum: 0.9, Features: 6, Modules: 2, TrainSteps: 30}
			return &api.JobRequest{Kind: api.KindTrainDist, TrainDist: sweep.Sweep.Child(h, 2, "")}
		}, 2, 8, 110, 120},
		// The 8-candidate sweep fanned through the fair
		// queue with no early stop (285-332 KB, 364-421 KB under the race
		// detector, of which about 170 KB is the eight checkpoints its
		// children write; 475-505 KB while each child allocated its network
		// and velocity, 290-330 KB while they wrote no checkpoint, 1.4 MB
		// while each candidate's trainer built its own center lists and
		// scratch). Its concurrent children borrow more at a new peak of
		// concurrency, which a 4-sweep average swings by 100 KB, so it is
		// averaged over 12.
		{"sweep_grid8", 4, func(*testing.T, *Runner) *api.JobRequest { return sweep }, 1, 12, 550, 820},
		// The ends of the bench/ connect_chain, on its 12x48x72 volume (162 KB
		// of float32). The ivt job builds no whole-field atmosphere state (it
		// synthesizes row by row into borrowed scratch) and borrows its
		// output, so what is left is the encoding it stores (175 KB; 680 KB
		// when every field was allocated). The label job scans the stored mask's
		// 5 KB of packed bits into a borrowed label array: per-object
		// bookkeeping only (5 KB; 206 KB when the cached blob held the mask
		// expanded to float32 and the label array was a fresh allocation).
		{"chain_ivt_ref", 2, func(*testing.T, *Runner) *api.JobRequest {
			return &api.JobRequest{Kind: api.KindIVT, ResultMode: api.ResultModeRef, IVT: &api.IVTSpec{Synth: chainSynth, Threshold: 700}}
		}, 2, 8, 350, 0},
		// The middle of the chain: a ref-mode segment job flooding the stored
		// field with the bench's net seed and threshold (181 network
		// applications). The network is the runner's shared one, the flood's
		// arrays are pooled and its bits go to the store as they are, so
		// what is left is bookkeeping (7 KB).
		{"chain_segment_ref", 2, func(t *testing.T, r *Runner) *api.JobRequest {
			g := merra.Grid{NLon: chainSynth.NLon, NLat: chainSynth.NLat, NLev: chainSynth.NLev}
			vol := merra.IVTVolume(merra.NewGenerator(g, chainSynth.Seed), merra.PressureLevels(g.NLev), 0, chainSynth.Steps)
			info, err := r.Datasets().PutVolume(chainSynth.Steps, g.NLat, g.NLon, vol.Data, "")
			if err != nil {
				t.Fatal(err)
			}
			return &api.JobRequest{Kind: api.KindSegment, ResultMode: api.ResultModeRef, Segment: &api.SegmentSpec{
				Source: api.VolumeSource{Ref: info.ID}, NetSeed: 3, Threshold: 700, ReturnMask: true,
			}}
		}, 2, 8, 16, 0},
		{"chain_label_maskref", 2, func(t *testing.T, r *Runner) *api.JobRequest {
			g := merra.Grid{NLon: chainSynth.NLon, NLat: chainSynth.NLat, NLev: chainSynth.NLev}
			vol := merra.IVTVolume(merra.NewGenerator(g, chainSynth.Seed), merra.PressureLevels(g.NLev), 0, chainSynth.Steps)
			for i, v := range vol.Data {
				vol.Data[i] = 0
				if v >= 700 {
					vol.Data[i] = 1
				}
			}
			info, err := r.Datasets().PutMask(chainSynth.Steps, g.NLat, g.NLon, vol.Data, "")
			if err != nil {
				t.Fatal(err)
			}
			return &api.JobRequest{Kind: api.KindLabel, Label: &api.LabelSpec{Source: api.VolumeSource{Ref: info.ID}, Threshold: 0.5, MaxObjects: 4}}
		}, 2, 8, 12, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newTestRunner(t, DefaultRegistry(), tc.workers)
			req := tc.request(t, r)
			for i := 0; i < tc.warm; i++ {
				runJob(t, r, req)
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for i := 0; i < tc.jobs; i++ {
				runJob(t, r, req)
			}
			runtime.ReadMemStats(&m1)
			perJob := int(m1.TotalAlloc-m0.TotalAlloc) / tc.jobs / 1024
			t.Logf("steady-state %s job: %d KB allocated", tc.name, perJob)
			maxKB := tc.maxKB
			if raceEnabled && tc.raceKB > 0 {
				maxKB = tc.raceKB
			}
			if perJob > maxKB {
				t.Fatalf("%s job allocates %d KB in steady state, want <= %d KB", tc.name, perJob, maxKB)
			}
		})
	}
}
