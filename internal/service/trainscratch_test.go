package service

import (
	"math"
	"strings"
	"testing"

	"chaseci/internal/api"
	"chaseci/internal/dataset"
	"chaseci/internal/ffn"
	"chaseci/internal/tensor"
)

// TestTrainScratchCapMatchesKernel: a train_dist job's per-lane training
// scratch, the length ffn borrows (ffn.Config.TrainScratchLen), is held to
// the 64M-element limit at submit. Around the limit, at a
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
			cfg := nc.Config()
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

	// Accepted by the flood's caps (ffn.Config.Validate), refused by
	// training's: a small network over a 61^3 FOV.
	cfg := ffn.DefaultConfig()
	cfg.FOV, cfg.Modules = [3]int{61, 61, 61}, 16
	if cfg.TrainScratchLen() <= limit {
		t.Fatalf("test geometry: %d-element scratch is within the limit", cfg.TrainScratchLen())
	}
	if cfg.Validate() != nil {
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

// TestRefusedResumeReturnsCheckpoint: a resume_from job refused after its
// checkpoint is decoded gives the decoded parameter vector and velocity,
// both borrowed, back to the free list — whether training's caps refuse the
// network (an invalid request) or the source is too shallow for its FOV.
// The free list is stocked with two vectors of the network's length for
// the decode to borrow, and poisoned, so a vector that went back reads NaN
// and one the job dropped still holds the decoded weights.
func TestRefusedResumeReturnsCheckpoint(t *testing.T) {
	overCap := ffn.DefaultConfig()
	overCap.FOV, overCap.Modules = [3]int{61, 61, 61}, 16
	for _, tc := range []struct {
		name    string
		cfg     ffn.Config
		steps   int
		invalid bool
		want    string
	}{
		{"training caps", overCap, 6, true, "training scratch"},
		{"source shallower than the fov", ffn.DefaultConfig(), 3, false, ffn.ErrNoExamples.Error()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net, err := ffn.NewNetwork(tc.cfg, 1)
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
			tensor.PoisonReleased(true)
			defer tensor.PoisonReleased(false)
			p := net.WeightBytes() / 4
			stock := [2][]float32{make([]float32, p), make([]float32, p)}
			for _, b := range stock {
				tensor.PutFloats(b)
			}
			st, err := r.Submit(&api.JobRequest{Kind: api.KindTrainDist, TrainDist: &api.TrainDistSpec{
				Source:  api.VolumeSource{Synth: &api.SynthSpec{NLon: 36, NLat: 24, NLev: 4, Steps: tc.steps, Seed: 11}},
				Workers: 1, Rounds: 2, Threshold: 130, ResumeFrom: info.ID}}, "")
			if err != nil {
				t.Fatal(err)
			}
			final := waitState(t, r, st.ID, terminal)
			if final.State != api.StateFailed || !strings.Contains(final.Error, tc.want) ||
				strings.Contains(final.Error, api.ErrInvalid.Error()) != tc.invalid {
				t.Fatalf("refused resume: %s (%s), want failed with %q, invalid=%v", final.State, final.Error, tc.want, tc.invalid)
			}
			for i, b := range stock {
				for _, v := range b {
					if !math.IsNaN(float64(v)) {
						t.Fatalf("decoded vector %d was not given back: it still holds %v", i, v)
					}
				}
			}
			assertNoLeaks(t, r)
		})
	}
}
