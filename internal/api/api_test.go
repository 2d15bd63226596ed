package api

import (
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

// tinyVolume returns a valid inline 2x2x2 source.
func tinyVolume() VolumeSource {
	return VolumeSource{D: 2, H: 2, W: 2, Data: make([]float32, 8)}
}

// validRequests returns one well-formed request per kind.
func validRequests() map[Kind]*JobRequest {
	return map[Kind]*JobRequest{
		KindSegment: {Kind: KindSegment, Segment: &SegmentSpec{
			Source: tinyVolume(), Seeds: [][3]int{{1, 1, 1}}, MaxSteps: 4,
		}},
		KindLabel: {Kind: KindLabel, Label: &LabelSpec{
			Source: tinyVolume(), Threshold: 0.5,
		}},
		KindIVT: {Kind: KindIVT, IVT: &IVTSpec{
			Synth: SynthSpec{NLon: 8, NLat: 6, NLev: 3, Steps: 2},
		}},
		KindTrainDist: {Kind: KindTrainDist, TrainDist: &TrainDistSpec{
			Source: tinyVolume(), Threshold: 0.5, Workers: 2, Rounds: 4, BatchPerRound: 4,
		}},
		KindSweep: {Kind: KindSweep, Sweep: &SweepSpec{
			Source: tinyVolume(), Threshold: 0.5,
			LRs: []float32{0.03}, Momentums: []float32{0.9}, Features: []int{4}, TrainSteps: []int{10},
		}},
		KindWorkflow: {Kind: KindWorkflow, Workflow: &WorkflowSpec{
			Name: "wf", Steps: []WorkflowStep{{Name: "a", DurationMS: 5}},
		}},
		KindPipeline: {Kind: KindPipeline, Pipeline: &PipelineSpec{
			Synth: SynthSpec{NLon: 8, NLat: 6, NLev: 3, Steps: 6}, SlabSteps: 3, Threshold: 1,
		}},
	}
}

// TestNetConfigScratchBudget requires the combined fov x features budget to
// hold even when each knob is within its own cap — a request at both
// extremes would otherwise demand over 10 GB of batched flood scratch.
func TestNetConfigScratchBudget(t *testing.T) {
	mk := func(nc *NetConfig) *JobRequest {
		return &JobRequest{Kind: KindSegment, Segment: &SegmentSpec{
			Source: tinyVolume(), Seeds: [][3]int{{1, 1, 1}}, MaxSteps: 1, Net: nc,
		}}
	}
	extreme := &NetConfig{FOV: [3]int{65, 65, 65}, Features: 256}
	err := mk(extreme).Validate()
	if !errors.Is(err, ErrInvalid) || !strings.Contains(err.Error(), "batched scratch") {
		t.Fatalf("all-extremes net config passed validation: %v", err)
	}
	// Each extreme alone (others defaulted) stays within the budget.
	for _, nc := range []*NetConfig{
		{FOV: [3]int{65, 65, 65}},
		{Features: 256},
	} {
		if err := mk(nc).Validate(); err != nil {
			t.Fatalf("single-extreme net config %+v rejected: %v", nc, err)
		}
	}
}

// TestNetConfigMoveStepWithinFOV: a move_step component above fov/2 indexes
// outside the logit FOV on the first flood move, so it is refused at
// submit — both fields resolved against the kernel defaults (fov 5x9x9,
// move_step 1x3x3).
func TestNetConfigMoveStepWithinFOV(t *testing.T) {
	for _, c := range []struct {
		nc NetConfig
		ok bool
	}{
		{NetConfig{MoveStep: [3]int{3, 3, 3}}, false}, // depth: 5/2 = 2
		{NetConfig{MoveStep: [3]int{1, 3, 5}}, false}, // in the buffer, in the next row
		{NetConfig{FOV: [3]int{3, 5, 5}}, false},      // default step 1x3x3 no longer fits
		{NetConfig{MoveStep: [3]int{1, -1, 1}}, false},
		{NetConfig{MoveStep: [3]int{2, 4, 4}}, true}, // exactly fov/2
		{NetConfig{FOV: [3]int{3, 5, 5}, MoveStep: [3]int{1, 2, 2}}, true},
		{NetConfig{FOV: [3]int{3, 7, 7}}, true},
		{NetConfig{FOV: [3]int{1, 7, 7}, MoveStep: [3]int{0, 3, 3}}, true}, // a flat FOV never moves in depth
	} {
		err := c.nc.Validate("net")
		if c.ok && err != nil {
			t.Errorf("%+v rejected: %v", c.nc, err)
		}
		if !c.ok && (!errors.Is(err, ErrInvalid) || !strings.Contains(err.Error(), "move_step")) {
			t.Errorf("%+v: err = %v, want ErrInvalid naming move_step", c.nc, err)
		}
	}
}

// TestPipelineSpecRejections covers the streaming pipeline's validation.
func TestPipelineSpecRejections(t *testing.T) {
	mk := func(mut func(*PipelineSpec)) *JobRequest {
		spec := &PipelineSpec{
			Synth: SynthSpec{NLon: 8, NLat: 6, NLev: 3, Steps: 6}, SlabSteps: 2, Threshold: 1,
		}
		mut(spec)
		return &JobRequest{Kind: KindPipeline, Pipeline: spec}
	}
	cases := []struct {
		name string
		req  *JobRequest
		want string
	}{
		{"zero threshold", mk(func(s *PipelineSpec) { s.Threshold = 0 }), "threshold"},
		{"negative slab", mk(func(s *PipelineSpec) { s.SlabSteps = -1 }), "slab_steps"},
		{"bad synth", mk(func(s *PipelineSpec) { s.Synth.NLev = 1 }), "nlev"},
		{"one-row synth", mk(func(s *PipelineSpec) { s.Synth.NLat = 1 }), "nlat"},
		{"bad connectivity", mk(func(s *PipelineSpec) { s.Connectivity = 18 }), "connectivity"},
		{"negative min voxels", mk(func(s *PipelineSpec) { s.MinVoxels = -1 }), "min_voxels"},
		{"partial stride", mk(func(s *PipelineSpec) { s.SeedStride = [3]int{1, 0, 2} }), "seed_stride"},
		{"bad net move step", mk(func(s *PipelineSpec) { s.Net = &NetConfig{MoveStep: [3]int{3, 3, 3}} }), "move_step"},
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
}

func TestValidRequestsPass(t *testing.T) {
	for kind, req := range validRequests() {
		if err := req.Validate(); err != nil {
			t.Errorf("kind %s: unexpected validation error: %v", kind, err)
		}
	}
}

func TestVersionChecked(t *testing.T) {
	req := validRequests()[KindLabel]
	req.APIVersion = Version
	if err := req.Validate(); err != nil {
		t.Fatalf("explicit current version rejected: %v", err)
	}
	req.APIVersion = "chased/v999"
	if err := req.Validate(); !errors.Is(err, ErrInvalid) {
		t.Fatalf("bad version: err = %v, want ErrInvalid", err)
	}
}

func TestEnvelopeRejections(t *testing.T) {
	cases := []struct {
		name string
		req  *JobRequest
		want string
	}{
		{"missing kind", &JobRequest{}, "missing kind"},
		{"unknown kind", &JobRequest{Kind: "resample"}, "unknown kind"},
		// train folded into train_dist{holdout_steps}: the old name is just
		// an unknown kind, whose error lists the kinds there are.
		{"the retired train kind", &JobRequest{Kind: "train"}, "train_dist"},
		{"missing spec", &JobRequest{Kind: KindSegment}, "needs a segment spec"},
		{"mismatched spec", &JobRequest{Kind: KindSegment, Label: &LabelSpec{Source: tinyVolume(), Threshold: 1}}, "needs a segment spec"},
		{"two specs", &JobRequest{Kind: KindLabel,
			Label: &LabelSpec{Source: tinyVolume(), Threshold: 1},
			IVT:   &IVTSpec{Synth: SynthSpec{NLon: 4, NLat: 4, NLev: 2, Steps: 1}}}, "exactly the one matching"},
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
}

// TestSynthOneRowRefused: the generator's meridional profile spans rows 0
// to nlat-1, so a one-row grid would make every IVT value NaN and fail the
// job only when its result is marshalled. Every kind that synthesizes
// refuses it at submit, naming the field.
func TestSynthOneRowRefused(t *testing.T) {
	synth := SynthSpec{NLon: 8, NLat: 1, NLev: 3, Steps: 6}
	src := VolumeSource{Synth: &synth}
	for _, req := range []*JobRequest{
		{Kind: KindIVT, IVT: &IVTSpec{Synth: synth}},
		{Kind: KindTrainDist, TrainDist: &TrainDistSpec{Source: src, Threshold: 0.5, Workers: 2, Rounds: 4, BatchPerRound: 4}},
		{Kind: KindPipeline, Pipeline: &PipelineSpec{Synth: synth, SlabSteps: 3, Threshold: 1}},
		{Kind: KindSweep, Sweep: &SweepSpec{Source: src, Threshold: 0.5,
			LRs: []float32{0.03}, Momentums: []float32{0.9}, Features: []int{4}, TrainSteps: []int{10}}},
	} {
		err := req.Validate()
		if !errors.Is(err, ErrInvalid) || !strings.Contains(err.Error(), "nlat") {
			t.Errorf("%s over a one-row grid: err = %v, want ErrInvalid naming nlat", req.Kind, err)
		}
	}
}

func TestVolumeSourceRejections(t *testing.T) {
	mk := func(src VolumeSource) *JobRequest {
		return &JobRequest{Kind: KindLabel, Label: &LabelSpec{Source: src, Threshold: 0.5}}
	}
	cases := []struct {
		name string
		src  VolumeSource
	}{
		{"no dims no synth", VolumeSource{}},
		{"negative dim", VolumeSource{D: -1, H: 2, W: 2, Data: make([]float32, 8)}},
		{"data length mismatch", VolumeSource{D: 2, H: 2, W: 2, Data: make([]float32, 7)}},
		{"synth plus inline", VolumeSource{D: 2, H: 2, W: 2, Data: make([]float32, 8),
			Synth: &SynthSpec{NLon: 4, NLat: 4, NLev: 2, Steps: 1}}},
		{"synth single level", VolumeSource{Synth: &SynthSpec{NLon: 4, NLat: 4, NLev: 1, Steps: 1}}},
		{"synth single row", VolumeSource{Synth: &SynthSpec{NLon: 4, NLat: 1, NLev: 2, Steps: 1}}},
		{"synth zero steps", VolumeSource{Synth: &SynthSpec{NLon: 4, NLat: 4, NLev: 2, Steps: 0}}},
		{"synth oversized", VolumeSource{Synth: &SynthSpec{NLon: 1 << 12, NLat: 1 << 12, NLev: 2, Steps: 1 << 8}}},
	}
	for _, c := range cases {
		if err := mk(c.src).Validate(); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: err = %v, want ErrInvalid", c.name, err)
		}
	}
}

// TestVolumeLimitOverflowProof: dimension products that wrap past int64
// must not sneak under the voxel cap — the memory bound is the point of
// the limit.
func TestVolumeLimitOverflowProof(t *testing.T) {
	synth := &JobRequest{Kind: KindIVT, IVT: &IVTSpec{
		Synth: SynthSpec{NLon: 131072, NLat: 65536, NLev: 2, Steps: 2147483648},
	}}
	if err := synth.Validate(); !errors.Is(err, ErrInvalid) {
		t.Fatalf("overflowing synth volume: err = %v, want ErrInvalid", err)
	}
	inline := &JobRequest{Kind: KindLabel, Label: &LabelSpec{
		Source:    VolumeSource{D: 1 << 21, H: 1 << 21, W: 1 << 22}, // product wraps to 0 == len(nil)
		Threshold: 1,
	}}
	if err := inline.Validate(); !errors.Is(err, ErrInvalid) {
		t.Fatalf("overflowing inline volume: err = %v, want ErrInvalid", err)
	}
	wf := &JobRequest{Kind: KindWorkflow, Workflow: &WorkflowSpec{
		Steps: []WorkflowStep{{Name: "a", DurationMS: 1e16}}, // would overflow time.Duration
	}}
	if err := wf.Validate(); !errors.Is(err, ErrInvalid) {
		t.Fatalf("overflowing step duration: err = %v, want ErrInvalid", err)
	}
}

func TestSegmentSpecRejections(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*SegmentSpec)
	}{
		{"even fov", func(s *SegmentSpec) { s.Net = &NetConfig{FOV: [3]int{4, 9, 9}} }},
		{"net_ref of the wrong shape", func(s *SegmentSpec) { s.NetRef = "ABCD" }},
		{"net_ref together with net", func(s *SegmentSpec) { s.NetRef = fakeRef; s.Net = &NetConfig{Features: 4} }},
		{"net_ref together with net_seed", func(s *SegmentSpec) { s.NetRef = fakeRef; s.NetSeed = 3 }},
		{"grid seeding without threshold", func(s *SegmentSpec) { s.Seeds = nil; s.Threshold = 0 }},
		{"negative max steps", func(s *SegmentSpec) { s.MaxSteps = -2 }},
		{"negative stride", func(s *SegmentSpec) { s.SeedStride = [3]int{-1, 0, 0} }},
		{"move prob out of range", func(s *SegmentSpec) { s.Net = &NetConfig{MoveProb: 1.5} }},
	}
	for _, c := range cases {
		req := validRequests()[KindSegment]
		c.mut(req.Segment)
		if err := req.Validate(); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: err = %v, want ErrInvalid", c.name, err)
		}
	}
}

// TestSegmentNetRef: a well-formed net_ref validates, and Refs names the
// source first and the checkpoint after it — the order Submit's kind check
// reads them in.
func TestSegmentNetRef(t *testing.T) {
	src := strings.Repeat("cd", 32)
	req := &JobRequest{Kind: KindSegment, Segment: &SegmentSpec{
		Source: VolumeSource{Ref: src}, Threshold: 1, NetRef: fakeRef,
	}}
	if err := req.Validate(); err != nil {
		t.Fatalf("valid net_ref spec rejected: %v", err)
	}
	if got, want := req.Refs(), []string{src, fakeRef}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Refs() = %v, want source then checkpoint %v", got, want)
	}
	if got := req.CheckpointRef(); got != fakeRef {
		t.Fatalf("CheckpointRef() = %q, want the net_ref", got)
	}
	req.Segment.Source = tinyVolume()
	if got, want := req.Refs(), []string{fakeRef}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Refs() over an inline source = %v, want %v", got, want)
	}
}

func TestLabelSpecRejections(t *testing.T) {
	label := validRequests()[KindLabel]
	label.Label.Connectivity = 18
	if err := label.Validate(); !errors.Is(err, ErrInvalid) {
		t.Errorf("connectivity 18: err = %v, want ErrInvalid", err)
	}
	label = validRequests()[KindLabel]
	label.Label.Threshold = 0
	if err := label.Validate(); !errors.Is(err, ErrInvalid) {
		t.Errorf("label threshold 0: err = %v, want ErrInvalid", err)
	}
}

func TestWorkflowSpecRejections(t *testing.T) {
	cases := []struct {
		name string
		spec WorkflowSpec
	}{
		{"no steps", WorkflowSpec{Name: "w"}},
		{"unnamed step", WorkflowSpec{Steps: []WorkflowStep{{DurationMS: 1}}}},
		{"duplicate step", WorkflowSpec{Steps: []WorkflowStep{{Name: "a"}, {Name: "a"}}}},
		{"unknown dep", WorkflowSpec{Steps: []WorkflowStep{{Name: "a", DependsOn: []string{"ghost"}}}}},
		{"negative duration", WorkflowSpec{Steps: []WorkflowStep{{Name: "a", DurationMS: -3}}}},
		{"two-step cycle", WorkflowSpec{Steps: []WorkflowStep{
			{Name: "a", DependsOn: []string{"b"}}, {Name: "b", DependsOn: []string{"a"}}}}},
		{"self cycle", WorkflowSpec{Steps: []WorkflowStep{{Name: "a", DependsOn: []string{"a"}}}}},
		{"duration sum overflow", WorkflowSpec{Steps: []WorkflowStep{
			{Name: "a", DurationMS: 1 << 40}, {Name: "b", DurationMS: 1 << 40}}}},
	}
	for _, c := range cases {
		req := &JobRequest{Kind: KindWorkflow, Workflow: &c.spec}
		if err := req.Validate(); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: err = %v, want ErrInvalid", c.name, err)
		}
	}
}

// TestJSONRoundTrip pins the wire shape: a request survives
// marshal/unmarshal and still validates.
func TestJSONRoundTrip(t *testing.T) {
	for kind, req := range validRequests() {
		raw, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("kind %s: marshal: %v", kind, err)
		}
		var back JobRequest
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatalf("kind %s: unmarshal: %v", kind, err)
		}
		if back.Kind != kind {
			t.Fatalf("kind %s: round-trip kind = %s", kind, back.Kind)
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("kind %s: round-tripped request invalid: %v", kind, err)
		}
	}
}

func TestStateTerminal(t *testing.T) {
	for st, want := range map[State]bool{
		StateQueued: false, StateRunning: false,
		StateSucceeded: true, StateFailed: true, StateCancelled: true,
	} {
		if st.Terminal() != want {
			t.Errorf("%s.Terminal() = %v, want %v", st, !want, want)
		}
	}
}

func TestValidRef(t *testing.T) {
	good := strings.Repeat("0123456789abcdef", 4)
	if !ValidRef(good) {
		t.Fatalf("ValidRef(%q) = false", good)
	}
	for _, bad := range []string{"", "abc", good[:63], good + "0", "G" + good[1:], strings.ToUpper(good)} {
		if ValidRef(bad) {
			t.Errorf("ValidRef(%q) = true", bad)
		}
	}
}

func TestVolumeSourceRefValidation(t *testing.T) {
	ref := strings.Repeat("ab", 32)
	ok := JobRequest{Kind: KindLabel, Label: &LabelSpec{
		Source: VolumeSource{Ref: ref}, Threshold: 0.5,
	}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("ref source rejected: %v", err)
	}
	cases := map[string]VolumeSource{
		"ref+dims":  {Ref: ref, D: 1, H: 1, W: 1},
		"ref+data":  {Ref: ref, Data: []float32{1}},
		"ref+synth": {Ref: ref, Synth: &SynthSpec{NLon: 4, NLat: 4, NLev: 2, Steps: 1}},
		"short ref": {Ref: "abc123"},
		"upper ref": {Ref: strings.ToUpper(ref)},
	}
	for name, src := range cases {
		req := JobRequest{Kind: KindLabel, Label: &LabelSpec{Source: src, Threshold: 0.5}}
		if err := req.Validate(); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: err = %v, want ErrInvalid", name, err)
		}
	}
}

func TestResultModeValidation(t *testing.T) {
	base := func(mode ResultMode) JobRequest {
		return JobRequest{
			Kind:       KindIVT,
			ResultMode: mode,
			IVT:        &IVTSpec{Synth: SynthSpec{NLon: 8, NLat: 8, NLev: 3, Steps: 2}},
		}
	}
	for _, mode := range []ResultMode{"", ResultModeInline, ResultModeRef} {
		r := base(mode)
		if err := r.Validate(); err != nil {
			t.Errorf("result_mode %q rejected: %v", mode, err)
		}
	}
	r := base("zip")
	if err := r.Validate(); !errors.Is(err, ErrInvalid) {
		t.Errorf("result_mode zip: err = %v, want ErrInvalid", err)
	}
}

// TestNetConfigProbabilities: move_prob and segment_prob are 0 (the kernel
// default) or inside (0,1). JSON cannot spell NaN, but a checkpoint header
// re-validated through NetConfig can carry one, and it is refused too.
func TestNetConfigProbabilities(t *testing.T) {
	nan := float32(math.NaN())
	for _, c := range []struct {
		nc NetConfig
		ok bool
	}{
		{NetConfig{}, true},
		{NetConfig{MoveProb: 0.55, SegmentProb: 0.6}, true},
		{NetConfig{MoveProb: 1}, false},
		{NetConfig{SegmentProb: -0.5}, false},
		{NetConfig{MoveProb: nan}, false},
		{NetConfig{SegmentProb: nan}, false},
	} {
		err := c.nc.Validate("net")
		if c.ok && err != nil {
			t.Errorf("%+v rejected: %v", c.nc, err)
		}
		if !c.ok && (!errors.Is(err, ErrInvalid) || !strings.Contains(err.Error(), "probabilities")) {
			t.Errorf("%+v: err = %v, want ErrInvalid naming the probabilities", c.nc, err)
		}
	}
}

// FuzzJobRequest feeds arbitrary bytes through the gateway's decode path —
// json.Unmarshal, then Validate: nothing panics, and whatever Validate
// accepts survives a marshal round trip as a request Validate accepts again,
// naming the same dataset refs (the ones Submit pins).
func FuzzJobRequest(f *testing.F) {
	ref := strings.Repeat("ab", 32)
	seeds := []*JobRequest{
		{Kind: KindSegment, ResultMode: ResultModeRef, Segment: &SegmentSpec{Source: VolumeSource{Ref: ref}}},
		{Kind: KindTrainDist, TrainDist: &TrainDistSpec{Source: VolumeSource{Ref: ref}, Threshold: 0.5, Rounds: 4, ResumeFrom: ref}},
		{Kind: KindSegment, Segment: &SegmentSpec{Source: VolumeSource{Ref: ref}, Threshold: 1, NetRef: ref}},
		{Kind: KindSegment, Segment: &SegmentSpec{Source: VolumeSource{D: 1 << 30, H: 1 << 30, W: 1 << 30}}},
		{Kind: KindPipeline, Pipeline: &PipelineSpec{Synth: SynthSpec{NLon: 8, NLat: 6, NLev: 3, Steps: 6}, Net: &NetConfig{MoveStep: [3]int{3, 3, 3}}}},
	}
	for _, req := range validRequests() {
		seeds = append(seeds, req)
	}
	for _, req := range seeds {
		raw, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req JobRequest
		if json.Unmarshal(data, &req) != nil || req.Validate() != nil {
			return
		}
		raw, err := json.Marshal(&req)
		if err != nil {
			t.Fatalf("a valid request does not marshal: %v", err)
		}
		var back JobRequest
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatalf("a valid request does not survive a round trip: %v\n%s", err, raw)
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("valid before the round trip, invalid after: %v\n%s", err, raw)
		}
		if got, want := back.Refs(), req.Refs(); !reflect.DeepEqual(got, want) {
			t.Fatalf("refs %v before the round trip, %v after", want, got)
		}
	})
}
