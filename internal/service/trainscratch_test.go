package service

import (
	"strings"
	"testing"

	"chaseci/internal/api"
	"chaseci/internal/dataset"
	"chaseci/internal/ffn"
	"chaseci/internal/tensor"
)

// TestTrainScratchCapMatchesKernel: a train_dist job's per-lane training
// scratch is held to api's 64M-element limit, and api's restated length is
// the one ffn borrows (ffn.Config.TrainScratchLen). Around the limit, at a
// default-feature net of 16 modules, validation accepts exactly the FOVs
// whose kernel scratch fits, at batch 1 and at a batch that pairs, and no
// accepted job's lane borrows a slab past the limit: where a lane trains
// two examples per buffer its slab is twice the scratch
// (ffn.Config.TrainSlabLen), so those nets train unpaired. The 29^3 x
// 256-feature x 16-module net, whose scratch is over a gigabyte per lane,
// is refused inline; and a checkpoint of a net the flood's caps accept but
// training's do not fails its resume_from job as invalid before a trainer
// is built.
func TestTrainScratchCapMatchesKernel(t *testing.T) {
	const limit = 64 << 20
	refused := 0
	for _, d := range []int{55, 57, 59, 61} {
		for _, batch := range []int{1, 16} {
			nc := api.NetConfig{FOV: [3]int{d, d, d}, Modules: 16}
			cfg := netConfig(&nc)
			req := distRequest(1, 1)
			req.TrainDist.Net, req.TrainDist.BatchPerRound = &nc, batch
			err := req.Validate()
			if fits := cfg.TrainScratchLen() <= limit; (err == nil) != fits {
				t.Fatalf("fov %d^3, batch %d: kernel scratch %d elements, Validate = %v", d, batch, cfg.TrainScratchLen(), err)
			}
			if err != nil {
				refused++
			} else if slab := cfg.TrainSlabLen(batch); slab > limit {
				t.Fatalf("fov %d^3, batch %d: accepted, and a lane borrows a %d-element slab", d, batch, slab)
			}
		}
	}
	if refused == 0 || refused == 8 {
		t.Fatalf("%d of 8 requests refused: the sweep must straddle the limit", refused)
	}
	// Where the paired slab fits, a batch that can pair does so on a host
	// with the paired kernels.
	small := ffn.DefaultConfig()
	if tensor.PairedLanesActive() && small.TrainSlabLen(16) != 2*small.TrainScratchLen() {
		t.Fatalf("default net, batch 16: slab %d elements, want the paired %d", small.TrainSlabLen(16), 2*small.TrainScratchLen())
	}
	if small.TrainSlabLen(1) != small.TrainScratchLen() {
		t.Fatalf("default net, batch 1: slab %d elements, want the unpaired %d", small.TrainSlabLen(1), small.TrainScratchLen())
	}

	huge := distRequest(1, 1)
	huge.TrainDist.Net = &api.NetConfig{FOV: [3]int{29, 29, 29}, Features: 256, Modules: 16}
	huge.TrainDist.BatchPerRound = 1
	if err := huge.Validate(); err == nil || !strings.Contains(err.Error(), "training scratch") {
		t.Fatalf("29^3 x 256 features x 16 modules: Validate = %v, want a training-scratch refusal", err)
	}

	// Accepted by the flood's caps (NetConfig.Validate), refused by
	// training's: a small network over a 61^3 FOV.
	cfg := ffn.DefaultConfig()
	cfg.FOV, cfg.Modules = [3]int{61, 61, 61}, 16
	if cfg.TrainScratchLen() <= limit {
		t.Fatalf("test geometry: %d-element scratch is within the limit", cfg.TrainScratchLen())
	}
	if nc := netConfigOf(cfg); nc.Validate("net") != nil {
		t.Fatal("test geometry: the flood caps refuse the net")
	}
	net, err := ffn.NewNetwork(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := dataset.EncodeCheckpoint((&ffn.Checkpoint{Net: net, Opt: tensor.NewSGD(0.03, 0.9), BatchPerRound: 1}).EncodeBytes())
	if err != nil {
		t.Fatal(err)
	}
	r := newTestRunner(t, DefaultRegistry(), 1)
	info, err := r.Datasets().Put(enc, "")
	if err != nil {
		t.Fatal(err)
	}
	resume := &api.JobRequest{Kind: api.KindTrainDist, TrainDist: &api.TrainDistSpec{
		Source: api.VolumeSource{Synth: &api.SynthSpec{NLon: 36, NLat: 24, NLev: 4, Steps: 6, Seed: 11}}, Threshold: 130,
		Workers: 1, Rounds: 2, ResumeFrom: info.ID}}
	st, err := r.Submit(resume, "")
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, r, st.ID, terminal)
	if final.State != api.StateFailed || !strings.Contains(final.Error, api.ErrInvalid.Error()) ||
		!strings.Contains(final.Error, "training scratch") || strings.Contains(final.Error, "attempts") {
		t.Fatalf("resume from an over-cap checkpoint: %s (%s), want failed once as an invalid training scratch", final.State, final.Error)
	}
	assertNoLeaks(t, r)
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
		fits := (64 << 20) / (net.WeightBytes() / 4)
		for batch, ok := range map[int]bool{fits: true, fits + 1: false} {
			req := distRequest(1, 1)
			req.TrainDist.Net, req.TrainDist.BatchPerRound = &nc, batch
			if err := req.Validate(); (err == nil) != ok {
				t.Fatalf("net %+v (%d parameters), batch_per_round %d: Validate = %v, want accepted=%v", nc, (net.WeightBytes() / 4), batch, err, ok)
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
