package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"math"
	"net/http"
	"runtime"
	"strings"
	"testing"

	"chaseci/internal/api"
	"chaseci/internal/dataset"
	"chaseci/internal/ffn"
	"chaseci/internal/parallel"
	"chaseci/internal/tensor"
)

// netRefSegment floods the scene distRequest trains on with the network of a
// checkpoint, seeding and striding the way the case study does.
func netRefSegment(checkpoint string) *api.JobRequest {
	return &api.JobRequest{Kind: api.KindSegment, ResultMode: api.ResultModeRef, Segment: &api.SegmentSpec{
		Source:    distRequest(1, 1).TrainDist.Source,
		Threshold: 130, NetRef: checkpoint, SeedStride: [3]int{1, 4, 4}, ReturnMask: true,
	}}
}

// TestSegmentNetRefFloodsWithTrainedNetwork: the train → infer hand-off. A
// segment job naming a train_dist job's checkpoint_ref floods with that
// checkpoint's network — the mask is the one the decoded network produces
// when called directly, and not the one fresh weights of the same geometry
// produce — and the stored mask is bit-identical whatever the training
// job's worker count and the flood's lane count.
func TestSegmentNetRefFloodsWithTrainedNetwork(t *testing.T) {
	defer parallel.SetWorkers(parallel.SetWorkers(0))
	r := newTestRunner(t, DefaultRegistry(), 2)
	var checkpoint, mask string
	for _, workers := range []int{1, 2, 8} {
		var tres api.TrainDistResult
		if err := json.Unmarshal(runJob(t, r, distRequest(workers, 24)), &tres); err != nil {
			t.Fatal(err)
		}
		if checkpoint == "" {
			checkpoint = tres.CheckpointRef
		}
		if tres.CheckpointRef != checkpoint {
			t.Fatalf("train_dist at %d workers wrote checkpoint %s, want %s", workers, tres.CheckpointRef, checkpoint)
		}
		for _, lanes := range []int{1, 2, 8} {
			parallel.SetWorkers(lanes)
			var sres api.SegmentResult
			if err := json.Unmarshal(runJob(t, r, netRefSegment(tres.CheckpointRef)), &sres); err != nil {
				t.Fatal(err)
			}
			if mask == "" {
				mask = sres.MaskRef
			}
			if sres.MaskRef == "" || sres.MaskRef != mask {
				t.Fatalf("%d training workers, %d flood lanes: mask %q, want %q", workers, lanes, sres.MaskRef, mask)
			}
		}
	}

	// The same flood by hand, from the stored bytes.
	ds := r.Datasets()
	blob, err := ds.Resolve(checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := ffn.DecodeCheckpoint(blob.Raw)
	if err != nil {
		t.Fatal(err)
	}
	sy := distRequest(1, 1).TrainDist.Source.Synth
	var ires api.IVTResult
	if err := json.Unmarshal(runJob(t, r, &api.JobRequest{Kind: api.KindIVT, ResultMode: api.ResultModeRef, IVT: &api.IVTSpec{Synth: *sy}}), &ires); err != nil {
		t.Fatal(err)
	}
	field, err := ds.Resolve(ires.VolumeRef)
	if err != nil {
		t.Fatal(err)
	}
	raw := &ffn.Volume{D: field.D, H: field.H, W: field.W, Data: field.Data}
	seeds := ffn.GridSeeds(raw, ck.Net.Config().FOV, [3]int{1, 4, 4}, 130)
	byHand := func(net *ffn.Network) string {
		got, _, _ := net.SegmentCtx(context.Background(), normalizedVolume(raw), seeds, 0, nil)
		return contentID(t, dataset.KindMask, got.D, got.H, got.W, got.Data)
	}
	if id := byHand(ck.Net); id != mask {
		t.Fatalf("the job's mask %s is not the checkpoint network's flood %s", mask, id)
	}
	fresh, err := ffn.NewNetwork(ck.Net.Config(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if byHand(fresh) == mask {
		t.Fatal("untrained weights flood to the same mask: the test cannot tell whether net_ref was used")
	}
	assertNoLeaks(t, r)
}

// overCapCheckpoint is a well-formed checkpoint of a tiny network — one
// feature, one module, 1 KB — whose header claims a 1x101x101 field of view:
// ffn's decoder takes it (positive, odd), api's caps (65 per side) never saw
// it, and every buffer sized from the FOV is ~10,000 voxels per channel.
func overCapCheckpoint(t *testing.T, ds *dataset.Manager) string {
	t.Helper()
	cfg := ffn.DefaultConfig()
	cfg.FOV, cfg.MoveStep, cfg.Features, cfg.Modules = [3]int{1, 101, 101}, [3]int{0, 3, 3}, 1, 1
	net, err := ffn.NewNetwork(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	ck := &ffn.Checkpoint{Net: net, Opt: tensor.NewSGD(0.03, 0.9), BatchPerRound: 4}
	enc, err := dataset.EncodeCheckpoint(ck.EncodeBytes())
	if err != nil {
		t.Fatal(err)
	}
	info, err := ds.Put(enc, "")
	if err != nil {
		t.Fatal(err)
	}
	return info.ID
}

// TestOverCapCheckpointRefused: a network that arrives by ref is held to the
// caps a network spelled out in net is. A train_dist job resuming from the
// crafted checkpoint (at 4 workers it borrowed 3 MB of FOV-sized scratch
// before the fix, and 80 GB is expressible the same way) and a segment job
// flooding with it both fail on the first attempt as invalid requests, having
// sized nothing from the header.
func TestOverCapCheckpointRefused(t *testing.T) {
	r := newTestRunner(t, DefaultRegistry(), 1)
	ref := overCapCheckpoint(t, r.Datasets())
	src := api.VolumeSource{Synth: &api.SynthSpec{NLon: 128, NLat: 128, NLev: 2, Steps: 2, Seed: 1}}
	for _, req := range []*api.JobRequest{
		{Kind: api.KindTrainDist, TrainDist: &api.TrainDistSpec{Source: src, Threshold: 100, Workers: 4, Rounds: 2, ResumeFrom: ref}},
		{Kind: api.KindSegment, Segment: &api.SegmentSpec{Source: src, Threshold: 100, NetRef: ref}},
	} {
		var final api.JobStatus
		run := func() {
			st, err := r.Submit(req, "")
			if err != nil {
				t.Fatalf("%s: submit: %v", req.Kind, err)
			}
			final = waitState(t, r, st.ID, terminal)
		}
		run() // the source's borrowed buffers are warm after one job
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		run()
		runtime.ReadMemStats(&m1)
		if final.State != api.StateFailed || !strings.Contains(final.Error, api.ErrInvalid.Error()) || !strings.Contains(final.Error, "fov") {
			t.Fatalf("%s with an over-cap checkpoint: %s (%s), want failed as an invalid fov", req.Kind, final.State, final.Error)
		}
		if strings.Contains(final.Error, "attempts") {
			t.Fatalf("%s: retried as transient: %s", req.Kind, final.Error)
		}
		if kb := (m1.TotalAlloc - m0.TotalAlloc) / 1024; kb >= 1024 {
			t.Fatalf("%s with an over-cap checkpoint allocated %d KB, want < 1 MB", req.Kind, kb)
		}
	}
	assertNoLeaks(t, r)
}

// TestBadProbabilityCheckpointRefused: a checkpoint whose model header stores
// a probability outside (0,1) — NaN included — fails a segment job flooding
// with it and a train_dist job resuming from it, once, as a bad model. Inline
// configs always carry probabilities in range; by ref the bytes are uploaded.
func TestBadProbabilityCheckpointRefused(t *testing.T) {
	r := newTestRunner(t, DefaultRegistry(), 1)
	cfg := ffn.DefaultConfig()
	cfg.Features, cfg.Modules = 2, 1
	net, err := ffn.NewNetwork(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	raw := (&ffn.Checkpoint{Net: net, Opt: tensor.NewSGD(0.03, 0.9), BatchPerRound: 4}).EncodeBytes()
	const model = 12 // the model follows the checkpoint's magic and its length
	if !bytes.HasPrefix(raw[model:], []byte("FFNMODL")) {
		t.Fatal("checkpoint does not embed the model bytes")
	}
	src := api.VolumeSource{Synth: &api.SynthSpec{NLon: 24, NLat: 16, NLev: 3, Steps: 4, Seed: 1}}
	// Offsets into the model header: magic(8), FOV(12), Features, Modules(8)
	// and MoveStep(12), then MoveProb, SegmentProb, PadProb, SeedProb.
	for _, c := range []struct {
		name string
		off  int
		v    float32
	}{
		{"MoveProb NaN", 40, float32(math.NaN())},
		{"SegmentProb NaN", 44, float32(math.NaN())},
		{"PadProb 1", 48, 1},
		{"SeedProb 0", 52, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			bad := append([]byte(nil), raw...)
			binary.LittleEndian.PutUint32(bad[model+c.off:], math.Float32bits(c.v))
			enc, err := dataset.EncodeCheckpoint(bad)
			if err != nil {
				t.Fatal(err)
			}
			info, err := r.Datasets().Put(enc, "")
			if err != nil {
				t.Fatal(err)
			}
			for _, req := range []*api.JobRequest{
				{Kind: api.KindSegment, Segment: &api.SegmentSpec{Source: src, Threshold: 100, NetRef: info.ID}},
				{Kind: api.KindTrainDist, TrainDist: &api.TrainDistSpec{Source: src, Threshold: 100, Workers: 1, Rounds: 2, ResumeFrom: info.ID}},
			} {
				st, err := r.Submit(req, "")
				if err != nil {
					t.Fatalf("%s: submit: %v", req.Kind, err)
				}
				final := waitState(t, r, st.ID, terminal)
				if final.State != api.StateFailed || !strings.Contains(final.Error, ffn.ErrBadModel.Error()) || !strings.Contains(final.Error, "probabilities") {
					t.Fatalf("%s: %s (%s), want failed as a bad model naming the probabilities", req.Kind, final.State, final.Error)
				}
				if strings.Contains(final.Error, "attempts") {
					t.Fatalf("%s: retried as transient: %s", req.Kind, final.Error)
				}
			}
		})
	}
	assertNoLeaks(t, r)
}

// TestGatewayRefKindChecked: each ref names the kind of dataset its place in
// the request reads, or the submit is a 400 and its pins are repaid. Before
// the check a checkpoint passed as a source made label succeed over a buffer
// nothing had written, and segment and training panic and retry four times.
func TestGatewayRefKindChecked(t *testing.T) {
	f := newGWFixture(t, true)
	var tres api.TrainDistResult
	if err := json.Unmarshal(runJob(t, f.runner, distRequest(1, 2)), &tres); err != nil {
		t.Fatal(err)
	}
	d, h, w, data := testIVTField(6)
	vol, err := f.runner.Datasets().PutVolume(d, h, w, data, "")
	if err != nil {
		t.Fatal(err)
	}
	ckSrc, volSrc := api.VolumeSource{Ref: tres.CheckpointRef}, api.VolumeSource{Ref: vol.ID}
	for _, tc := range []struct {
		name, want string
		req        *api.JobRequest
	}{
		{"label over a checkpoint", "want volume or mask",
			&api.JobRequest{Kind: api.KindLabel, Label: &api.LabelSpec{Source: ckSrc, Threshold: 0.5}}},
		{"segment over a checkpoint", "want volume or mask",
			&api.JobRequest{Kind: api.KindSegment, Segment: &api.SegmentSpec{Source: ckSrc, Threshold: 0.5}}},
		{"train_dist over a checkpoint", "want volume or mask",
			&api.JobRequest{Kind: api.KindTrainDist, TrainDist: &api.TrainDistSpec{Source: ckSrc, Threshold: 0.5, Workers: 1, Rounds: 2, BatchPerRound: 1, HoldoutSteps: 1}}},
		{"net_ref naming a volume", "want checkpoint",
			&api.JobRequest{Kind: api.KindSegment, Segment: &api.SegmentSpec{Source: volSrc, Threshold: 120, NetRef: vol.ID}}},
		{"resume_from naming a volume", "want checkpoint",
			&api.JobRequest{Kind: api.KindTrainDist, TrainDist: &api.TrainDistSpec{Source: volSrc, Threshold: 120, Workers: 1, Rounds: 3, ResumeFrom: vol.ID}}},
	} {
		var apiErr api.ErrorResponse
		if resp := f.do("POST", "/v1/jobs", tc.req, &apiErr); resp.StatusCode != http.StatusBadRequest || !strings.Contains(apiErr.Error, tc.want) {
			t.Errorf("%s: status %d, err %q, want a 400 saying %q", tc.name, resp.StatusCode, apiErr.Error, tc.want)
		}
	}
	if err := f.runner.LeakCheck(); err != nil {
		t.Fatal(err)
	}
	// The right kinds in the same places are accepted.
	runJob(t, f.runner, &api.JobRequest{Kind: api.KindSegment, Segment: &api.SegmentSpec{
		Source: volSrc, Threshold: 120, NetRef: tres.CheckpointRef}})
}

// TestGatewayRefusesSegmentTrainSteps: segment.train_steps is gone from the
// schema, and the gateway's decoder refuses what the schema does not name —
// a client still sending it learns so, instead of getting an untrained flood.
func TestGatewayRefusesSegmentTrainSteps(t *testing.T) {
	f := newGWFixture(t, true)
	body := `{"kind":"segment","segment":{"source":{"synth":{"nlon":24,"nlat":16,"nlev":3,"steps":4}},"threshold":120,"train_steps":200}}`
	resp, err := http.Post(f.srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var apiErr api.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(apiErr.Error, "train_steps") {
		t.Fatalf("segment.train_steps: status %d, err %q, want a 400 naming the field", resp.StatusCode, apiErr.Error)
	}
}
