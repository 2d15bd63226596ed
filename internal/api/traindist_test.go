package api

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"chaseci/internal/ffn"
)

// fakeRef is a syntactically valid 64-hex content address.
const fakeRef = "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"

func TestTrainDistSpecRejections(t *testing.T) {
	mk := func(mut func(*TrainDistSpec)) *JobRequest {
		spec := &TrainDistSpec{
			Source: tinyVolume(), Threshold: 0.5, Workers: 2, Rounds: 4, BatchPerRound: 4,
		}
		mut(spec)
		return &JobRequest{Kind: KindTrainDist, TrainDist: spec}
	}
	resume := func(mut func(*TrainDistSpec)) *JobRequest {
		return mk(func(s *TrainDistSpec) {
			s.BatchPerRound = 0
			s.ResumeFrom = fakeRef
			mut(s)
		})
	}
	cases := []struct {
		name string
		req  *JobRequest
		want string
	}{
		{"zero threshold", mk(func(s *TrainDistSpec) { s.Threshold = 0 }), "threshold"},
		{"zero workers", mk(func(s *TrainDistSpec) { s.Workers = 0 }), "workers"},
		{"too many workers", mk(func(s *TrainDistSpec) { s.Workers = maxDistWorkers + 1 }), "workers"},
		{"zero rounds", mk(func(s *TrainDistSpec) { s.Rounds = 0 }), "rounds"},
		{"zero batch", mk(func(s *TrainDistSpec) { s.BatchPerRound = 0 }), "batch_per_round"},
		{"momentum one", mk(func(s *TrainDistSpec) { s.Momentum = 1 }), "momentum"},
		{"negative checkpoint cadence", mk(func(s *TrainDistSpec) { s.CheckpointEvery = -1 }), "checkpoint_every"},
		{"garbage resume ref", mk(func(s *TrainDistSpec) { s.BatchPerRound = 0; s.ResumeFrom = "ckpt-1" }), "resume_from"},
		{"resume with batch", resume(func(s *TrainDistSpec) { s.BatchPerRound = 4 }), "must be zero"},
		{"resume with net", resume(func(s *TrainDistSpec) { s.Net = &NetConfig{Features: 4} }), "must be zero"},
		{"resume with net seed", resume(func(s *TrainDistSpec) { s.NetSeed = 7 }), "must be zero"},
		{"resume with sample seed", resume(func(s *TrainDistSpec) { s.SampleSeed = 7 }), "must be zero"},
		{"resume with lr", resume(func(s *TrainDistSpec) { s.LR = 0.1 }), "must be zero"},
		{"elastic zero round", mk(func(s *TrainDistSpec) { s.Elastic = []ElasticStep{{Round: 0, Workers: 2}} }), "elastic"},
		{"elastic not increasing", mk(func(s *TrainDistSpec) {
			s.Elastic = []ElasticStep{{Round: 3, Workers: 2}, {Round: 3, Workers: 4}}
		}), "strictly increasing"},
		{"elastic zero workers", mk(func(s *TrainDistSpec) { s.Elastic = []ElasticStep{{Round: 2, Workers: 0}} }), "elastic"},
		{"negative holdout", mk(func(s *TrainDistSpec) { s.HoldoutSteps = -1 }), "holdout_steps"},
		// The inline source is 2 steps deep, the synth one 6: a holdout of
		// the whole depth leaves nothing to train on.
		{"holdout of the inline depth", mk(func(s *TrainDistSpec) { s.HoldoutSteps = 2 }), "holdout_steps"},
		{"holdout past the synth depth", mk(func(s *TrainDistSpec) {
			s.Source = VolumeSource{Synth: &SynthSpec{NLon: 8, NLat: 6, NLev: 3, Steps: 6}}
			s.HoldoutSteps = 7
		}), "holdout_steps"},
		{"holdout of a resumed run's depth", resume(func(s *TrainDistSpec) { s.HoldoutSteps = 2 }), "holdout_steps"},
	}
	for _, c := range cases {
		err := c.req.Validate()
		if !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: err = %v, want ErrInvalid", c.name, err)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %q, want substring %q", c.name, err, c.want)
		}
	}
	// A well-formed resume spec passes, and only names the checkpoint.
	if err := resume(func(s *TrainDistSpec) {}).Validate(); err != nil {
		t.Fatalf("valid resume spec rejected: %v", err)
	}
	// A holdout that leaves a slice to train on passes, and so does any
	// holdout over a ref, whose depth only the store knows.
	if err := mk(func(s *TrainDistSpec) { s.HoldoutSteps = 1 }).Validate(); err != nil {
		t.Fatalf("holdout of 1 of 2 steps rejected: %v", err)
	}
	if err := mk(func(s *TrainDistSpec) { s.Source = VolumeSource{Ref: fakeRef}; s.HoldoutSteps = 100 }).Validate(); err != nil {
		t.Fatalf("holdout over a ref rejected at submit: %v", err)
	}
	// Elastic schedules are accepted when strictly increasing.
	ok := mk(func(s *TrainDistSpec) {
		s.Elastic = []ElasticStep{{Round: 2, Workers: 4}, {Round: 3, Workers: 1}}
	})
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid elastic spec rejected: %v", err)
	}
}

// TestTrainDistGradMatrixBoundary: a train_dist spec's batch_per_round x
// network parameters gradient matrix is held to 64M elements at submit: the
// largest batch that fits passes and one more is refused, whatever mix of
// features and modules makes up the parameter count.
func TestTrainDistGradMatrixBoundary(t *testing.T) {
	for _, nc := range []NetConfig{{Features: 64, Modules: 4}, {Features: 100}, {Features: 17, Modules: 16}} {
		net, err := ffn.NewNetwork(nc.Config(), 1)
		if err != nil {
			t.Fatal(err)
		}
		params := net.WeightBytes() / 4
		fits := (64 << 20) / params
		for batch, ok := range map[int]bool{fits: true, fits + 1: false} {
			req := &JobRequest{Kind: KindTrainDist, TrainDist: &TrainDistSpec{
				Source: tinyVolume(), Threshold: 0.5, Workers: 1, Rounds: 1, BatchPerRound: batch, Net: &nc,
			}}
			if err := req.Validate(); (err == nil) != ok || err != nil && !errors.Is(err, ErrInvalid) {
				t.Fatalf("net %+v (%d parameters), batch_per_round %d: Validate = %v, want accepted=%v", nc, params, batch, err, ok)
			}
		}
	}
}

func TestTrainDistRefsIncludeResume(t *testing.T) {
	req := &JobRequest{Kind: KindTrainDist, TrainDist: &TrainDistSpec{
		Source: tinyVolume(), Threshold: 0.5, Workers: 1, Rounds: 1, ResumeFrom: fakeRef,
	}}
	found := false
	for _, ref := range req.Refs() {
		if ref == fakeRef {
			found = true
		}
	}
	if !found {
		t.Fatalf("Refs() = %v does not include resume_from (the checkpoint must be pinned at submit)", req.Refs())
	}
}

func TestSweepSpecRejections(t *testing.T) {
	mk := func(mut func(*SweepSpec)) *JobRequest {
		spec := &SweepSpec{
			Source: tinyVolume(), Threshold: 0.5,
			LRs: []float32{0.03}, Momentums: []float32{0.9}, Features: []int{4}, TrainSteps: []int{10},
		}
		mut(spec)
		return &JobRequest{Kind: KindSweep, Sweep: spec}
	}
	cases := []struct {
		name string
		req  *JobRequest
		want string
	}{
		{"zero threshold", mk(func(s *SweepSpec) { s.Threshold = 0 }), "threshold"},
		{"train fraction one", mk(func(s *SweepSpec) { s.TrainFraction = 1 }), "train_fraction"},
		{"no lrs", mk(func(s *SweepSpec) { s.LRs = nil }), "at least one"},
		{"no momentums", mk(func(s *SweepSpec) { s.Momentums = nil }), "at least one"},
		{"no features", mk(func(s *SweepSpec) { s.Features = nil }), "at least one"},
		{"no train steps", mk(func(s *SweepSpec) { s.TrainSteps = nil }), "at least one"},
		{"negative lr", mk(func(s *SweepSpec) { s.LRs = []float32{-0.1} }), "lrs"},
		{"momentum one", mk(func(s *SweepSpec) { s.Momentums = []float32{1} }), "momentums"},
		{"zero features", mk(func(s *SweepSpec) { s.Features = []int{0} }), "features"},
		{"zero modules", mk(func(s *SweepSpec) { s.Modules = []int{0} }), "modules"},
		{"zero steps", mk(func(s *SweepSpec) { s.TrainSteps = []int{0} }), "train_steps"},
		{"negative parallel", mk(func(s *SweepSpec) { s.Parallel = -1 }), "parallel"},
		{"grid too large", mk(func(s *SweepSpec) {
			s.LRs = make([]float32, 9)
			s.Momentums = make([]float32, 9)
			for i := range s.LRs {
				s.LRs[i] = 0.01
			}
			// 9*9 = 81 > 64 candidates.
		}), "exceeds"},
	}
	for _, c := range cases {
		err := c.req.Validate()
		if !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: err = %v, want ErrInvalid", c.name, err)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %q, want substring %q", c.name, err, c.want)
		}
	}
	// The cap is on the product, not any one axis: 64 exactly passes.
	atCap := mk(func(s *SweepSpec) {
		s.LRs = make([]float32, 8)
		s.Momentums = make([]float32, 8)
		for i := range s.LRs {
			s.LRs[i] = 0.01
			s.Momentums[i] = float32(i) / 10
		}
	})
	if err := atCap.Validate(); err != nil {
		t.Fatalf("64-candidate grid rejected: %v", err)
	}
}

// TestHyperparamsRoundTrip: a candidate survives the JSON that core's sweep
// queue carries, under the field names its messages and stored results have
// always used.
func TestHyperparamsRoundTrip(t *testing.T) {
	h := SweepParams{LR: 0.03, Momentum: 0.9, Features: 6, Modules: 2, TrainSteps: 300}
	msg, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"lr":0.03,"momentum":0.9,"features":6,"modules":2,"train_steps":300}`; string(msg) != want {
		t.Fatalf("message = %s, want %s", msg, want)
	}
	var back SweepParams
	if err := json.Unmarshal(msg, &back); err != nil {
		t.Fatal(err)
	}
	if back != h {
		t.Fatalf("round trip = %+v, want %+v", back, h)
	}
}

func TestGridCartesianProduct(t *testing.T) {
	spec := &SweepSpec{
		LRs: []float32{0.01, 0.03}, Momentums: []float32{0.8, 0.9}, Features: []int{4},
		Modules: []int{1, 2}, TrainSteps: []int{100, 200, 300},
	}
	g := spec.Candidates()
	if len(g) != 24 {
		t.Fatalf("grid size = %d, want 24", len(g))
	}
	// Learning rate outermost, train steps innermost.
	first, last := SweepParams{0.01, 0.8, 4, 1, 100}, SweepParams{0.03, 0.9, 4, 2, 300}
	if g[0] != first || g[1].TrainSteps != 200 || g[23] != last {
		t.Fatalf("grid order: first %+v, second %+v, last %+v", g[0], g[1], g[23])
	}
	// An empty modules axis sweeps the historical default depth of 2.
	spec = &SweepSpec{LRs: []float32{0.01}, Momentums: []float32{0.9}, Features: []int{4}, TrainSteps: []int{100}}
	if g = spec.Candidates(); len(g) != 1 || g[0].Modules != 2 {
		t.Fatalf("default modules grid = %+v, want one candidate with Modules 2", g)
	}
}
