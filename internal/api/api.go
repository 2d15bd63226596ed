// Package api defines the versioned, typed Job API served by the chased
// gateway (cmd/chased). Every analysis the paper's ecosystem runs — FFN
// segmentation, CONNECT labelling, MERRA IVT derivation, FFN training, and
// measured PPoDS workflows — is expressed as a JobRequest: a JSON envelope
// carrying exactly one kind-specific spec. The package is pure schema: it
// imports no compute kernels, so clients (and the gateway's HTTP layer) can
// depend on it without pulling in the simulation stack. Validation is
// strict and happens at submit time; anything that passes Validate is safe
// to hand to internal/service for execution.
package api

import (
	"encoding/json"
	"errors"
	"fmt"
)

// Version is the API version accepted by this gateway generation. An empty
// APIVersion on a request means "current".
const Version = "chased/v1"

// Kind names a job type the service can execute.
type Kind string

// The built-in job kinds.
const (
	// KindSegment runs FFN flood-fill segmentation over a volume.
	KindSegment Kind = "segment"
	// KindLabel runs CONNECT connected-object labelling over a volume.
	KindLabel Kind = "label"
	// KindIVT derives the Integrated Water Vapor Transport volume from the
	// synthetic MERRA-2 generator.
	KindIVT Kind = "ivt"
	// KindTrainDist runs synchronous data-parallel FFN training: N workers
	// compute gradients on shards of a global per-round batch, ring
	// all-reduce averages them, and periodic checkpoints land in the dataset
	// store as content-addressed refs a later job can resume from (or flood
	// with). With holdout_steps it also scores the model on a held-out slab.
	KindTrainDist Kind = "train_dist"
	// KindSweep fans train_dist jobs out over a hyperparameter grid through
	// the admission-controlled queue and returns a validation leaderboard
	// whose winner carries its checkpoint ref.
	KindSweep Kind = "sweep"
	// KindWorkflow executes a measured virtual-time step DAG (PPoDS).
	KindWorkflow Kind = "workflow"
	// KindPipeline streams a multi-timestep volume through the full
	// IVT -> segment -> label analysis in time slabs.
	KindPipeline Kind = "pipeline"
)

// Kinds lists the built-in job kinds in a fixed order.
func Kinds() []Kind {
	return []Kind{KindSegment, KindLabel, KindIVT, KindTrainDist, KindSweep, KindWorkflow, KindPipeline}
}

// State is a job's lifecycle state.
type State string

// Job states. Queued -> Running -> one of the terminal states.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateSucceeded State = "succeeded"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateSucceeded || s == StateFailed || s == StateCancelled
}

// ErrInvalid is wrapped by every validation failure, so callers can map any
// schema problem to a 400 with errors.Is.
var ErrInvalid = errors.New("api: invalid job request")

func invalidf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrInvalid, fmt.Sprintf(format, args...))
}

// maxVoxels bounds inline and synthetic volumes so a single request cannot
// ask the gateway to allocate arbitrary memory (64M voxels = 256 MB f32).
const maxVoxels = 64 << 20

// maxTrainSteps bounds optimizer step counts per job.
const maxTrainSteps = 1 << 20

// maxStepMS bounds one workflow step's virtual duration (~35 virtual
// years) so the millisecond-to-Duration conversion can never overflow.
const maxStepMS = 1 << 40

// volumeVoxels returns a*b*c when all three factors are positive and the
// product stays within maxVoxels, checking via division so the
// multiplication itself can never overflow past the cap.
func volumeVoxels(a, b, c int) (int, bool) {
	if a <= 0 || b <= 0 || c <= 0 {
		return 0, false
	}
	if a > maxVoxels/b {
		return 0, false
	}
	ab := a * b
	if ab > maxVoxels/c {
		return 0, false
	}
	return ab * c, true
}

// ResultMode selects how a job returns its bulk payloads (masks, derived
// volumes): inline in the result JSON, or offloaded to the content-addressed
// dataset store with only the ref in the result.
type ResultMode string

// The result modes. Empty means ResultModeInline.
const (
	ResultModeInline ResultMode = "inline"
	ResultModeRef    ResultMode = "ref"
)

// JobRequest is the submit envelope: a kind plus exactly one matching spec.
type JobRequest struct {
	// APIVersion must be empty or equal to Version.
	APIVersion string `json:"api_version,omitempty"`
	Kind       Kind   `json:"kind"`
	// Name is an optional human label echoed in status listings.
	Name string `json:"name,omitempty"`
	// ResultMode: "ref" offloads bulk result payloads (segment masks, the
	// derived IVT volume, per-slab pipeline masks) to the dataset store and
	// returns content-addressed refs; "" or "inline" embeds them in the
	// result JSON (masks 1-bit packed).
	ResultMode ResultMode `json:"result_mode,omitempty"`
	// Placement optionally constrains where a cluster-mode deployment may
	// run the job. Single-node runners ignore it.
	Placement *PlacementSpec `json:"placement,omitempty"`

	Segment   *SegmentSpec   `json:"segment,omitempty"`
	Label     *LabelSpec     `json:"label,omitempty"`
	IVT       *IVTSpec       `json:"ivt,omitempty"`
	TrainDist *TrainDistSpec `json:"train_dist,omitempty"`
	Sweep     *SweepSpec     `json:"sweep,omitempty"`
	Workflow  *WorkflowSpec  `json:"workflow,omitempty"`
	Pipeline  *PipelineSpec  `json:"pipeline,omitempty"`
}

// Validate checks the envelope and the kind's spec. It returns an error
// wrapping ErrInvalid on any schema problem.
func (r *JobRequest) Validate() error {
	if r == nil {
		return invalidf("nil request")
	}
	if r.APIVersion != "" && r.APIVersion != Version {
		return invalidf("unsupported api_version %q (want %q)", r.APIVersion, Version)
	}
	if r.ResultMode != "" && r.ResultMode != ResultModeInline && r.ResultMode != ResultModeRef {
		return invalidf("result_mode must be %q or %q, got %q", ResultModeInline, ResultModeRef, r.ResultMode)
	}
	if err := r.Placement.validate(); err != nil {
		return err
	}
	specs := 0
	for _, set := range []bool{r.Segment != nil, r.Label != nil, r.IVT != nil, r.TrainDist != nil, r.Sweep != nil, r.Workflow != nil, r.Pipeline != nil} {
		if set {
			specs++
		}
	}
	if specs > 1 {
		return invalidf("request carries %d specs, want exactly the one matching kind %q", specs, r.Kind)
	}
	switch r.Kind {
	case KindSegment:
		if r.Segment == nil {
			return invalidf("kind %q needs a segment spec", r.Kind)
		}
		return r.Segment.validate()
	case KindLabel:
		if r.Label == nil {
			return invalidf("kind %q needs a label spec", r.Kind)
		}
		return r.Label.validate()
	case KindIVT:
		if r.IVT == nil {
			return invalidf("kind %q needs an ivt spec", r.Kind)
		}
		return r.IVT.validate()
	case KindTrainDist:
		if r.TrainDist == nil {
			return invalidf("kind %q needs a train_dist spec", r.Kind)
		}
		return r.TrainDist.validate()
	case KindSweep:
		if r.Sweep == nil {
			return invalidf("kind %q needs a sweep spec", r.Kind)
		}
		return r.Sweep.validate()
	case KindWorkflow:
		if r.Workflow == nil {
			return invalidf("kind %q needs a workflow spec", r.Kind)
		}
		return r.Workflow.validate()
	case KindPipeline:
		if r.Pipeline == nil {
			return invalidf("kind %q needs a pipeline spec", r.Kind)
		}
		return r.Pipeline.validate()
	case "":
		return invalidf("missing kind")
	default:
		return invalidf("unknown kind %q (want one of %v)", r.Kind, Kinds())
	}
}

// Refs returns every dataset ref named by the request's specs, the source
// volume's first and the checkpoint's (CheckpointRef) after it — the service
// pins, existence-checks and kind-checks them at submit time so a job with a
// dangling or mistyped ref fails fast at the gateway instead of minutes later
// on a worker.
func (r *JobRequest) Refs() []string {
	var out []string
	var src *VolumeSource
	switch {
	case r.Segment != nil:
		src = &r.Segment.Source
	case r.Label != nil:
		src = &r.Label.Source
	case r.TrainDist != nil:
		src = &r.TrainDist.Source
	case r.Sweep != nil:
		src = &r.Sweep.Source
	}
	if src != nil && src.Ref != "" {
		out = append(out, src.Ref)
	}
	if ck := r.CheckpointRef(); ck != "" {
		out = append(out, ck)
	}
	return out
}

// CheckpointRef returns the one ref of the request that must name a
// checkpoint dataset — the network a segment job floods with, or the state a
// train_dist job resumes from — or "". Every other ref is a source, which a
// volume or a mask dataset can be.
func (r *JobRequest) CheckpointRef() string {
	switch {
	case r.Segment != nil:
		return r.Segment.NetRef
	case r.TrainDist != nil:
		return r.TrainDist.ResumeFrom
	}
	return ""
}

// PlacementSpec constrains scheduling in cluster mode. All fields are
// optional; an empty spec means "anywhere the data gravity points".
type PlacementSpec struct {
	// Node pins the job to one named node.
	Node string `json:"node,omitempty"`
	// Site restricts the job to nodes at one PRP site.
	Site string `json:"site,omitempty"`
	// Tolerations allow placement onto tainted nodes: key -> value
	// ("" tolerates any value of the key).
	Tolerations map[string]string `json:"tolerations,omitempty"`
}

func (p *PlacementSpec) validate() error {
	if p == nil {
		return nil
	}
	if len(p.Node) > 256 || len(p.Site) > 256 {
		return invalidf("placement: node/site names capped at 256 bytes")
	}
	if len(p.Tolerations) > 64 {
		return invalidf("placement: at most 64 tolerations, got %d", len(p.Tolerations))
	}
	for k, v := range p.Tolerations {
		if len(k) > 256 || len(v) > 256 {
			return invalidf("placement: toleration keys/values capped at 256 bytes")
		}
	}
	return nil
}

// SynthSpec asks the service to synthesize an IVT volume from the
// deterministic MERRA-2 generator: Steps time slices on an NLon x NLat grid
// integrated over NLev pressure levels, starting at generator step Start.
type SynthSpec struct {
	NLon  int    `json:"nlon"`
	NLat  int    `json:"nlat"`
	NLev  int    `json:"nlev"`
	Steps int    `json:"steps"`
	Start int    `json:"start,omitempty"`
	Seed  uint64 `json:"seed,omitempty"`
}

func (s *SynthSpec) validate(field string) error {
	if s.NLon <= 0 || s.NLat <= 0 {
		return invalidf("%s: grid dims must be positive, got %dx%d", field, s.NLon, s.NLat)
	}
	if s.NLat < 2 {
		return invalidf("%s: nlat must be >= 2 for the pole-to-pole profile, got %d", field, s.NLat)
	}
	if s.NLev < 2 {
		return invalidf("%s: nlev must be >= 2 for the vertical integral, got %d", field, s.NLev)
	}
	if s.Steps <= 0 {
		return invalidf("%s: steps must be positive, got %d", field, s.Steps)
	}
	if s.Start < 0 {
		return invalidf("%s: start must be non-negative, got %d", field, s.Start)
	}
	if _, ok := volumeVoxels(s.NLon, s.NLat, s.Steps); !ok {
		return invalidf("%s: volume %dx%dx%d exceeds the %d-voxel limit", field, s.NLon, s.NLat, s.Steps, maxVoxels)
	}
	return nil
}

// ValidRef reports whether s has the shape of a dataset content address
// (64 lowercase hex chars — a SHA-256). The api package stays pure schema,
// so this mirrors dataset.ValidID rather than importing the store; a
// cross-package test pins the two against each other.
func ValidRef(s string) bool {
	if len(s) != 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// VolumeSource names the input volume of a job, in exactly one of three
// forms: a content-addressed dataset ref (the data plane's preferred form —
// upload once, submit many), inline row-major (D, H, W) float32 data, or a
// SynthSpec the service materializes.
type VolumeSource struct {
	// Ref is a dataset id previously uploaded via PUT /v1/datasets/{id}
	// (or produced by a prior job in ref result mode).
	Ref   string     `json:"ref,omitempty"`
	D     int        `json:"d,omitempty"`
	H     int        `json:"h,omitempty"`
	W     int        `json:"w,omitempty"`
	Data  []float32  `json:"data,omitempty"`
	Synth *SynthSpec `json:"synth,omitempty"`
}

// depth is the source's time depth when the request states it (synth steps,
// inline d), else 0: a ref's depth is the stored dataset's.
func (v *VolumeSource) depth() int {
	if v.Synth != nil {
		return v.Synth.Steps
	}
	return v.D
}

func (v *VolumeSource) validate(field string) error {
	if v.Ref != "" {
		if v.Synth != nil || v.D != 0 || v.H != 0 || v.W != 0 || len(v.Data) != 0 {
			return invalidf("%s: ref is mutually exclusive with inline data and synth", field)
		}
		if !ValidRef(v.Ref) {
			return invalidf("%s: ref %q is not a 64-hex content address", field, v.Ref)
		}
		return nil
	}
	if v.Synth != nil {
		if v.D != 0 || v.H != 0 || v.W != 0 || len(v.Data) != 0 {
			return invalidf("%s: synth and inline data are mutually exclusive", field)
		}
		return v.Synth.validate(field + ".synth")
	}
	if v.D <= 0 || v.H <= 0 || v.W <= 0 {
		return invalidf("%s: dims must be positive, got %dx%dx%d", field, v.D, v.H, v.W)
	}
	voxels, ok := volumeVoxels(v.D, v.H, v.W)
	if !ok {
		return invalidf("%s: volume %dx%dx%d exceeds the %d-voxel limit", field, v.D, v.H, v.W, maxVoxels)
	}
	if len(v.Data) != voxels {
		return invalidf("%s: data length %d does not match dims %dx%dx%d=%d",
			field, len(v.Data), v.D, v.H, v.W, voxels)
	}
	return nil
}

// NetConfig overrides the default FFN geometry. Zero-valued fields keep the
// experiment-scale defaults.
type NetConfig struct {
	FOV         [3]int  `json:"fov,omitempty"`
	Features    int     `json:"features,omitempty"`
	Modules     int     `json:"modules,omitempty"`
	MoveStep    [3]int  `json:"move_step,omitempty"`
	MoveProb    float32 `json:"move_prob,omitempty"`
	SegmentProb float32 `json:"segment_prob,omitempty"`
}

// Network geometry caps: a request cannot ask for a network whose scratch
// buffers dwarf the volume cap (maxFOV^3 voxels x maxFeatures channels is
// ~70 MB f32 per activation tensor at the extremes).
const (
	maxFOV      = 65
	maxFeatures = 256
	maxModules  = 16
	// maxScratchElems bounds one working array sized by two knobs at once
	// — a batched-scratch activation tensor (flood batch x Features x FOV
	// voxels), a train_dist gradient matrix (batch_per_round x parameters):
	// 64M float32 = 256 MB, the same ceiling maxVoxels puts on request
	// volumes.
	maxScratchElems = 64 << 20
)

// Validate holds n to the geometry caps, naming field in the error. Every
// spec's validation runs it on its own net; the service runs it again on a
// network that arrives by ref, whose header is as untrusted as a request body.
func (n *NetConfig) Validate(field string) error {
	if n == nil {
		return nil
	}
	if n.FOV != [3]int{} {
		for _, d := range n.FOV {
			if d <= 0 || d%2 == 0 || d > maxFOV {
				return invalidf("%s: fov dims must be positive odd <= %d, got %v", field, maxFOV, n.FOV)
			}
		}
	}
	if n.Features < 0 || n.Features > maxFeatures {
		return invalidf("%s: features must be in [0,%d]", field, maxFeatures)
	}
	if n.Modules < 0 || n.Modules > maxModules {
		return invalidf("%s: modules must be in [0,%d]", field, maxModules)
	}
	// Written so that NaN fails: a checkpoint header is untrusted bytes.
	if !(n.MoveProb >= 0 && n.MoveProb < 1 && n.SegmentProb >= 0 && n.SegmentProb < 1) {
		return invalidf("%s: probabilities must be in [0,1)", field)
	}
	// The checks below combine fields; zero-valued ones assume the kernel
	// defaults, and a service-level test pins these literals against
	// ffn.DefaultConfig so they cannot drift.
	fov, feat, step := n.FOV, n.Features, n.MoveStep
	if fov == [3]int{} {
		fov = [3]int{5, 9, 9} // ffn.DefaultConfig().FOV
	}
	if feat == 0 {
		feat = 8 // ffn.DefaultConfig().Features
	}
	if step == [3]int{} {
		step = [3]int{1, 3, 3} // ffn.DefaultConfig().MoveStep
	}
	// A flood move reads the logit FOV at center +/- step, so a step over
	// half the FOV indexes outside it.
	for i, d := range step {
		if d < 0 || d > fov[i]/2 {
			return invalidf("%s: move_step %v must be within [0, fov/2] of fov %v", field, step, fov)
		}
	}
	// Combined batched-scratch budget: the f32 flood scratch holds a few
	// activation buffers of batch x (D+2)(H+2)(W+2) positions x Features
	// rounded up to whole 8-lane vectors, so the two individually-capped
	// knobs must also be bounded together — otherwise a request at both
	// extremes could demand over 10 GB. Division-based like volumeVoxels,
	// so the product can never overflow.
	const batch = 8 // ffn.DefaultFloodBatch
	lanes := (feat + 7) / 8 * 8
	if (fov[0]+2)*(fov[1]+2)*(fov[2]+2) > maxScratchElems/(lanes*batch) {
		return invalidf("%s: fov x features implies a batched scratch over the %d-element limit",
			field, maxScratchElems)
	}
	return nil
}

// paramCount is the length of the flat parameter vector of the network n
// describes, nil and zero fields resolved against the kernel defaults (8
// features, 2 modules): ffn.Config.paramCount restated, because api must
// not import ffn — the service-level test that pins the defaults pins this
// formula to the kernel's too. Within the caps it is at most 57M.
func (n *NetConfig) paramCount() int {
	f, m := 8, 2 // ffn.DefaultConfig().Features, .Modules
	if n != nil && n.Features > 0 {
		f = n.Features
	}
	if n != nil && n.Modules > 0 {
		m = n.Modules
	}
	return 2*27*f + f + m*2*(27*f*f+f) + f + 1
}

// SegmentSpec runs FFN flood-fill segmentation with a network that is
// either spelled out (Net and NetSeed: that geometry, weights drawn from the
// seed) or trained (NetRef: the network of a checkpoint a train_dist job
// wrote). When Seeds is empty, seeds come from a lattice of points whose raw
// value exceeds Threshold.
type SegmentSpec struct {
	Source VolumeSource `json:"source"`
	// Net overrides the default network geometry; NetSeed seeds the weights.
	Net     *NetConfig `json:"net,omitempty"`
	NetSeed uint64     `json:"net_seed,omitempty"`
	// NetRef is a checkpoint dataset ref — a train_dist result's
	// checkpoint_ref — whose network floods the source: the paper's "save
	// the model, load it for inference" hand-off. Exclusive with Net and
	// NetSeed; the checkpoint carries both geometry and weights.
	NetRef string `json:"net_ref,omitempty"`
	// Threshold picks the grid seeds from the raw field. Required (> 0)
	// when Seeds is empty.
	Threshold float32 `json:"threshold,omitempty"`
	// Seeds are explicit (z, y, x) flood origins; empty means grid seeding.
	Seeds [][3]int `json:"seeds,omitempty"`
	// SeedStride is the grid-seeding lattice stride (defaults to the FOV).
	SeedStride [3]int `json:"seed_stride,omitempty"`
	// MaxSteps bounds network applications (0 = unbounded).
	MaxSteps int `json:"max_steps,omitempty"`
	// ReturnMask includes the full binary mask in the result: 1-bit packed
	// inline (mask_bits), or as a dataset ref (mask_ref) when the job's
	// result_mode is "ref".
	ReturnMask bool `json:"return_mask,omitempty"`
}

func (s *SegmentSpec) validate() error {
	if err := s.Source.validate("segment.source"); err != nil {
		return err
	}
	if s.NetRef != "" {
		if !ValidRef(s.NetRef) {
			return invalidf("segment.net_ref %q is not a 64-hex content address", s.NetRef)
		}
		if s.Net != nil || s.NetSeed != 0 {
			return invalidf("segment.net_ref carries the network's geometry and weights; net and net_seed must be unset")
		}
	}
	if err := s.Net.Validate("segment.net"); err != nil {
		return err
	}
	if s.MaxSteps < 0 {
		return invalidf("segment.max_steps must be non-negative, got %d", s.MaxSteps)
	}
	// The stride is either fully defaulted (all zero -> the handler uses
	// the FOV) or fully specified with positive components — a zero
	// component would make the seeding lattice never advance.
	if s.SeedStride != [3]int{} {
		for _, d := range s.SeedStride {
			if d <= 0 {
				return invalidf("segment.seed_stride components must all be positive (or all zero for the default), got %v", s.SeedStride)
			}
		}
	}
	if s.Threshold <= 0 && len(s.Seeds) == 0 {
		return invalidf("segment.threshold must be > 0 when grid-seeding")
	}
	return nil
}

// LabelSpec runs CONNECT labelling on the source thresholded at Threshold.
type LabelSpec struct {
	Source    VolumeSource `json:"source"`
	Threshold float32      `json:"threshold"`
	// Connectivity is 6 or 26 (0 defaults to 26, the CONNECT default).
	Connectivity int `json:"connectivity,omitempty"`
	// MinVoxels prunes objects below the size threshold.
	MinVoxels int `json:"min_voxels,omitempty"`
	// MaxObjects caps the per-object list in the result (0 defaults to 20).
	MaxObjects int `json:"max_objects,omitempty"`
}

func (s *LabelSpec) validate() error {
	if err := s.Source.validate("label.source"); err != nil {
		return err
	}
	if s.Threshold <= 0 {
		return invalidf("label.threshold must be > 0")
	}
	if s.Connectivity != 0 && s.Connectivity != 6 && s.Connectivity != 26 {
		return invalidf("label.connectivity must be 6 or 26, got %d", s.Connectivity)
	}
	if s.MinVoxels < 0 || s.MaxObjects < 0 {
		return invalidf("label.min_voxels/max_objects must be non-negative")
	}
	return nil
}

// IVTSpec derives the IVT volume for a synthetic atmosphere. A positive
// Threshold additionally reports the fraction of voxels above it (the
// binary AR coverage of the case study).
type IVTSpec struct {
	Synth     SynthSpec `json:"synth"`
	Threshold float32   `json:"threshold,omitempty"`
}

func (s *IVTSpec) validate() error {
	if s.Threshold < 0 {
		return invalidf("ivt.threshold must be non-negative")
	}
	return s.Synth.validate("ivt.synth")
}

// Distributed-training and sweep caps.
const (
	// maxDistWorkers bounds the data-parallel width of one train_dist job.
	maxDistWorkers = 64
	// maxBatchPerRound bounds the global per-round example count. It equals
	// ffn.maxCheckpointBatch, the bound a resumed run's checkpoint is held to.
	maxBatchPerRound = 4096
	// maxSweepCandidates bounds the hyperparameter grid one sweep expands.
	maxSweepCandidates = 64
)

// ElasticStep schedules a worker-count change at a round boundary: from
// Round onwards the job runs with Workers data-parallel workers. The
// sampling scheme is worker-count-invariant, so elastic changes never
// affect the loss sequence — only throughput and modeled comm traffic.
type ElasticStep struct {
	Round   int `json:"round"`
	Workers int `json:"workers"`
}

// TrainDistSpec runs synchronous data-parallel FFN training: every round
// draws one global batch (derived only from sample_seed and the round
// index), shards it across the workers, averages the gradients in global
// sample order (the deterministic ring all-reduce), and applies one SGD
// update — so the per-round loss sequence is bit-identical at any worker
// count. Labels are the source thresholded at Threshold.
type TrainDistSpec struct {
	Source    VolumeSource `json:"source"`
	Threshold float32      `json:"threshold"`
	// Workers is the modelled data-parallel width (1..64): what comm_bytes
	// prices and elastic resizes. The service computes the batch on its own
	// compute lanes whatever the width, so it never changes a result.
	Workers int `json:"workers"`
	// Rounds is the total number of synchronous update rounds the run should
	// reach — including rounds already completed by a resumed checkpoint.
	Rounds int `json:"rounds"`
	// BatchPerRound is the global FOV-example count per round, sharded
	// across the workers. Required unless resuming (the checkpoint pins it).
	BatchPerRound int `json:"batch_per_round,omitempty"`
	// LR defaults to 0.05 and Momentum to 0.9 when zero.
	LR       float32 `json:"lr,omitempty"`
	Momentum float32 `json:"momentum,omitempty"`

	Net        *NetConfig `json:"net,omitempty"`
	NetSeed    uint64     `json:"net_seed,omitempty"`
	SampleSeed uint64     `json:"sample_seed,omitempty"`

	// CheckpointEvery writes a checkpoint dataset ref every N rounds (0 =
	// only the final checkpoint).
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// ResumeFrom is a checkpoint dataset ref to continue from. The
	// checkpoint carries the model, optimizer state, sampling seed, batch
	// geometry, and completed rounds, so net/lr/momentum/batch_per_round/
	// seed fields must be zero when resuming — the checkpoint wins.
	ResumeFrom string `json:"resume_from,omitempty"`
	// Elastic schedules worker-count changes at round boundaries.
	Elastic []ElasticStep `json:"elastic,omitempty"`
	// HoldoutSteps withholds the trailing time slices of the source from
	// training (a fresh run's and a resumed one's alike) and, after the last
	// round, scores the model's segmentation of them: the result carries
	// precision/recall/F1/IoU. It must leave at least one slice to train on.
	// Zero trains on the whole source and scores nothing.
	HoldoutSteps int `json:"holdout_steps,omitempty"`
}

func (s *TrainDistSpec) validate() error {
	if err := s.Source.validate("train_dist.source"); err != nil {
		return err
	}
	if s.Threshold <= 0 {
		return invalidf("train_dist.threshold must be > 0")
	}
	if s.Workers < 1 || s.Workers > maxDistWorkers {
		return invalidf("train_dist.workers must be in [1,%d], got %d", maxDistWorkers, s.Workers)
	}
	if s.Rounds < 1 || s.Rounds > maxTrainSteps {
		return invalidf("train_dist.rounds must be in [1,%d], got %d", maxTrainSteps, s.Rounds)
	}
	if s.LR < 0 || s.Momentum < 0 || s.Momentum >= 1 {
		return invalidf("train_dist.lr must be >= 0 and train_dist.momentum in [0,1)")
	}
	if s.CheckpointEvery < 0 {
		return invalidf("train_dist.checkpoint_every must be non-negative, got %d", s.CheckpointEvery)
	}
	if s.HoldoutSteps < 0 {
		return invalidf("train_dist.holdout_steps must be non-negative, got %d", s.HoldoutSteps)
	}
	// A ref's depth is known only to the store: the service checks it there.
	if d := s.Source.depth(); s.HoldoutSteps > 0 && d > 0 && s.HoldoutSteps >= d {
		return invalidf("train_dist.holdout_steps %d leaves nothing to train on in a %d-step source", s.HoldoutSteps, d)
	}
	if s.ResumeFrom != "" {
		if !ValidRef(s.ResumeFrom) {
			return invalidf("train_dist.resume_from %q is not a 64-hex content address", s.ResumeFrom)
		}
		if s.Net != nil || s.NetSeed != 0 || s.SampleSeed != 0 ||
			s.LR != 0 || s.Momentum != 0 || s.BatchPerRound != 0 {
			return invalidf("train_dist.resume_from carries the model, optimizer, and sampling state; net/net_seed/sample_seed/lr/momentum/batch_per_round must be zero")
		}
	} else {
		if err := s.Net.Validate("train_dist.net"); err != nil {
			return err
		}
		if s.BatchPerRound < 1 || s.BatchPerRound > maxBatchPerRound {
			return invalidf("train_dist.batch_per_round must be in [1,%d], got %d", maxBatchPerRound, s.BatchPerRound)
		}
		// The round's gradient matrix is batch_per_round x parameters: like
		// fov x features, two individually-capped knobs that must also be
		// bounded together (4096 x a 64-feature, 4-module network is
		// 14.6 GB). Division-based; ffn.maxGradElems is the same limit, so
		// a checkpoint this job writes can be resumed.
		if p := s.Net.paramCount(); s.BatchPerRound > maxScratchElems/p {
			return invalidf("train_dist: batch_per_round %d x %d network parameters implies a gradient matrix over the %d-element limit",
				s.BatchPerRound, p, maxScratchElems)
		}
	}
	prev := 0
	for i, e := range s.Elastic {
		if e.Round < 1 || e.Round > maxTrainSteps {
			return invalidf("train_dist.elastic[%d].round must be in [1,%d], got %d", i, maxTrainSteps, e.Round)
		}
		if e.Round <= prev {
			return invalidf("train_dist.elastic rounds must be strictly increasing")
		}
		prev = e.Round
		if e.Workers < 1 || e.Workers > maxDistWorkers {
			return invalidf("train_dist.elastic[%d].workers must be in [1,%d], got %d", i, maxDistWorkers, e.Workers)
		}
	}
	return nil
}

// SweepSpec expands the cartesian hyperparameter grid (Candidates) and fans
// one child job per candidate out through the service's admission-controlled
// fair queue: a train_dist job of one worker and one example per round,
// training on the leading split of the source and scored on the trailing
// holdout_steps. The result is a leaderboard ranked by F1 whose winner names
// its final checkpoint (Best.CheckpointRef), ready for segment.net_ref; the
// sweep drops every other checkpoint its children wrote.
type SweepSpec struct {
	Source    VolumeSource `json:"source"`
	Threshold float32      `json:"threshold"`
	// TrainFraction is the leading fraction of time slices candidates train
	// on (the rest is the held-out validation split). Zero defaults to 0.5.
	TrainFraction float64 `json:"train_fraction,omitempty"`

	// The grid axes. Modules may be empty (defaults to depth 2).
	LRs        []float32 `json:"lrs"`
	Momentums  []float32 `json:"momentums"`
	Features   []int     `json:"features"`
	Modules    []int     `json:"modules,omitempty"`
	TrainSteps []int     `json:"train_steps"`

	// Parallel bounds how many child jobs the sweep keeps in flight
	// (0 defaults to 2).
	Parallel int `json:"parallel,omitempty"`
	// EarlyStop enables median-based successive halving: every candidate
	// first runs at half its train steps, candidates whose F1 falls below
	// the rung median stop there, and survivors resume from their rung
	// checkpoint to the full budget — bit-identical to a run from scratch.
	EarlyStop bool `json:"early_stop,omitempty"`
	// Seed seeds candidate networks and samplers.
	Seed uint64 `json:"seed,omitempty"`
}

func (s *SweepSpec) validate() error {
	if err := s.Source.validate("sweep.source"); err != nil {
		return err
	}
	if s.Threshold <= 0 {
		return invalidf("sweep.threshold must be > 0")
	}
	if s.TrainFraction < 0 || s.TrainFraction >= 1 {
		return invalidf("sweep.train_fraction must be in [0,1), got %v", s.TrainFraction)
	}
	if len(s.LRs) == 0 || len(s.Momentums) == 0 || len(s.Features) == 0 || len(s.TrainSteps) == 0 {
		return invalidf("sweep grid needs at least one lr, momentum, features, and train_steps value")
	}
	for _, lr := range s.LRs {
		if lr < 0 {
			return invalidf("sweep.lrs must be >= 0")
		}
	}
	for _, m := range s.Momentums {
		if m < 0 || m >= 1 {
			return invalidf("sweep.momentums must be in [0,1)")
		}
	}
	for _, f := range s.Features {
		if f < 1 || f > maxFeatures {
			return invalidf("sweep.features must be in [1,%d]", maxFeatures)
		}
	}
	for _, m := range s.Modules {
		if m < 1 || m > maxModules {
			return invalidf("sweep.modules must be in [1,%d]", maxModules)
		}
	}
	for _, st := range s.TrainSteps {
		if st < 1 || st > maxTrainSteps {
			return invalidf("sweep.train_steps must be in [1,%d]", maxTrainSteps)
		}
	}
	mods := len(s.Modules)
	if mods == 0 {
		mods = 1
	}
	// Division-checked product against the candidate cap.
	size := len(s.LRs)
	for _, n := range []int{len(s.Momentums), len(s.Features), mods, len(s.TrainSteps)} {
		if size > maxSweepCandidates/n {
			return invalidf("sweep grid exceeds %d candidates", maxSweepCandidates)
		}
		size *= n
	}
	if s.Parallel < 0 || s.Parallel > maxDistWorkers {
		return invalidf("sweep.parallel must be in [0,%d], got %d", maxDistWorkers, s.Parallel)
	}
	return nil
}

// Candidates expands the cartesian product of the grid axes, learning rate
// outermost and train steps innermost. An empty modules axis sweeps the
// historical default depth of 2.
func (s *SweepSpec) Candidates() []SweepParams {
	modules := s.Modules
	if len(modules) == 0 {
		modules = []int{2}
	}
	var out []SweepParams
	for _, lr := range s.LRs {
		for _, m := range s.Momentums {
			for _, f := range s.Features {
				for _, mod := range modules {
					for _, st := range s.TrainSteps {
						out = append(out, SweepParams{LR: lr, Momentum: m, Features: f, Modules: mod, TrainSteps: st})
					}
				}
			}
		}
	}
	return out
}

// Child is the train_dist spec a sweep runs for candidate h: one worker, one
// example per round, the trailing holdout slices scored. A fresh child
// (resume "") draws its network from the sweep seed, shared across
// candidates so architectures differ only where the grid says they do, and
// its sampling seed from seed ^ 0xabcd; a resumed child takes all of that
// from its checkpoint. core's queue-driven sweep evaluates the same child.
func (s *SweepSpec) Child(h SweepParams, holdout int, resume string) *TrainDistSpec {
	td := &TrainDistSpec{Source: s.Source, Threshold: s.Threshold, Workers: 1, Rounds: h.TrainSteps,
		HoldoutSteps: holdout, ResumeFrom: resume}
	if resume == "" {
		td.BatchPerRound = 1
		td.LR, td.Momentum = h.LR, h.Momentum
		td.NetSeed, td.SampleSeed = s.Seed, s.Seed^0xabcd
		td.Net = &NetConfig{FOV: [3]int{3, 7, 7}, Features: h.Features, Modules: h.Modules, MoveStep: [3]int{1, 2, 2}}
	}
	return td
}

// WorkflowStep declares one step of a measured virtual-time DAG.
type WorkflowStep struct {
	Name      string   `json:"name"`
	DependsOn []string `json:"depends_on,omitempty"`
	// DurationMS is the step's virtual duration in milliseconds.
	DurationMS int64 `json:"duration_ms"`
	// Measurements are recorded on the step (Table I rows).
	Measurements map[string]float64 `json:"measurements,omitempty"`
	// Fail, when non-empty, fails the step with this message (dependents
	// are skipped) — used to exercise failure propagation.
	Fail string `json:"fail,omitempty"`
}

// WorkflowSpec executes a PPoDS-style measured DAG in virtual time.
type WorkflowSpec struct {
	Name  string         `json:"name"`
	Steps []WorkflowStep `json:"steps"`
}

func (s *WorkflowSpec) validate() error {
	if len(s.Steps) == 0 {
		return invalidf("workflow needs at least one step")
	}
	if len(s.Steps) > 10000 {
		return invalidf("workflow exceeds the 10000-step limit")
	}
	names := make(map[string]bool, len(s.Steps))
	var totalMS int64
	for i, st := range s.Steps {
		if st.Name == "" {
			return invalidf("workflow.steps[%d] has no name", i)
		}
		if names[st.Name] {
			return invalidf("workflow has duplicate step %q", st.Name)
		}
		names[st.Name] = true
		if st.DurationMS < 0 || st.DurationMS > maxStepMS {
			return invalidf("workflow step %q duration must be in [0,%d] ms", st.Name, int64(maxStepMS))
		}
		// The summed bound keeps even a fully serial chain's virtual end
		// time far from overflowing time.Duration.
		totalMS += st.DurationMS
		if totalMS > maxStepMS {
			return invalidf("workflow durations sum past the %d ms limit", int64(maxStepMS))
		}
	}
	indeg := make(map[string]int, len(s.Steps))
	dependents := make(map[string][]string, len(s.Steps))
	for _, st := range s.Steps {
		for _, d := range st.DependsOn {
			if !names[d] {
				return invalidf("workflow step %q depends on unknown step %q", st.Name, d)
			}
			dependents[d] = append(dependents[d], st.Name)
			indeg[st.Name]++
		}
	}
	// Cycle check (Kahn's algorithm): anything that passes Validate must
	// be executable, and a cyclic DAG never can be.
	queue := make([]string, 0, len(s.Steps))
	for _, st := range s.Steps {
		if indeg[st.Name] == 0 {
			queue = append(queue, st.Name)
		}
	}
	seen := 0
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		seen++
		for _, next := range dependents[cur] {
			if indeg[next]--; indeg[next] == 0 {
				queue = append(queue, next)
			}
		}
	}
	if seen != len(s.Steps) {
		return invalidf("workflow has a dependency cycle")
	}
	return nil
}

// PipelineSpec streams the full IVT -> segment -> label analysis over a
// multi-timestep synthetic volume in time slabs of SlabSteps steps each,
// one slab at a time. Each slab is an independent analysis unit (its own
// normalization, seeding, flood, and labelling).
type PipelineSpec struct {
	Synth SynthSpec `json:"synth"`
	// SlabSteps is the number of time steps per slab (0, or more than
	// synth.steps, means one slab spanning the whole volume).
	SlabSteps int `json:"slab_steps,omitempty"`
	// Threshold binarizes each slab's raw IVT field for grid seeding.
	Threshold float32 `json:"threshold"`
	// Net overrides the segmentation network geometry; NetSeed seeds it.
	Net     *NetConfig `json:"net,omitempty"`
	NetSeed uint64     `json:"net_seed,omitempty"`
	// SeedStride is the grid-seeding lattice stride (defaults to the FOV).
	SeedStride [3]int `json:"seed_stride,omitempty"`
	// Connectivity is 6 or 26 (0 defaults to 26); MinVoxels prunes small
	// objects in the label stage.
	Connectivity int `json:"connectivity,omitempty"`
	MinVoxels    int `json:"min_voxels,omitempty"`
}

func (s *PipelineSpec) validate() error {
	if err := s.Synth.validate("pipeline.synth"); err != nil {
		return err
	}
	if err := s.Net.Validate("pipeline.net"); err != nil {
		return err
	}
	if s.SlabSteps < 0 {
		return invalidf("pipeline.slab_steps must be non-negative, got %d", s.SlabSteps)
	}
	if s.Threshold <= 0 {
		return invalidf("pipeline.threshold must be > 0")
	}
	if s.SeedStride != [3]int{} {
		for _, d := range s.SeedStride {
			if d <= 0 {
				return invalidf("pipeline.seed_stride components must all be positive (or all zero for the default), got %v", s.SeedStride)
			}
		}
	}
	if s.Connectivity != 0 && s.Connectivity != 6 && s.Connectivity != 26 {
		return invalidf("pipeline.connectivity must be 6 or 26, got %d", s.Connectivity)
	}
	if s.MinVoxels < 0 {
		return invalidf("pipeline.min_voxels must be non-negative")
	}
	return nil
}

// --- Status and result payloads --------------------------------------------

// JobStatus is the poll snapshot of a job. It is a flat value type — no
// slices or maps — so the in-process status-poll path copies it without
// allocating.
type JobStatus struct {
	ID    string `json:"id"`
	Kind  Kind   `json:"kind"`
	Name  string `json:"name,omitempty"`
	Owner string `json:"owner,omitempty"`
	State State  `json:"state"`
	// Done/Total/Stage are the kernel-reported progress (Total 0 = unknown).
	Done  int64  `json:"done"`
	Total int64  `json:"total"`
	Stage string `json:"stage,omitempty"`
	// Wall-clock transition times, UnixNano (0 = not reached).
	SubmittedAt int64 `json:"submitted_at"`
	StartedAt   int64 `json:"started_at,omitempty"`
	FinishedAt  int64 `json:"finished_at,omitempty"`
	// Error is set for failed and cancelled jobs.
	Error string `json:"error,omitempty"`
	// Placement is the cluster-mode scheduling decision; nil on single-node
	// deployments. The pointer keeps JobStatus a comparable value type: the
	// scheduler publishes a fresh immutable Placement on every (re)bind, so
	// status watchers see requeues as a status change.
	Placement *Placement `json:"placement,omitempty"`
}

// Locality classes for a placement decision, ordered best to worst.
const (
	LocalityReplicaLocal = "replica-local" // node hosts an up OSD replica of every input ref
	LocalitySameSite     = "same-site"     // all input refs have an up replica at the node's site
	LocalityRemote       = "remote"        // at least one input ref must cross the WAN
	LocalityAny          = "any"           // job has no dataset inputs; no gravity
)

// Placement reports where the cluster scheduler bound a job and why. It is a
// flat value type; JobStatus holds it by pointer.
type Placement struct {
	// Node and Site name the binding.
	Node string `json:"node"`
	Site string `json:"site"`
	// Locality is the data-gravity class of the decision (see Locality*).
	Locality string `json:"locality"`
	// Score is the scheduler's score for the chosen node (higher is better;
	// 0 is a free local hit).
	Score float64 `json:"score"`
	// TransferMS is the simulated time to stage the job's input refs onto
	// the node over the netsim fabric, in milliseconds.
	TransferMS float64 `json:"transfer_ms"`
	// EstJoules is the estimated board energy for the job on this node's
	// device model.
	EstJoules float64 `json:"est_joules,omitempty"`
	// Requeues counts how many times the job was drained off a lost node
	// and re-placed.
	Requeues int `json:"requeues,omitempty"`
}

// NodeStatus is one row of the cluster-mode node inventory (GET /v1/nodes
// and `chased nodes`). Alloc* mirror the node's committed resources including
// scheduler claims; BoundJobs counts jobs currently bound to the node's pool.
type NodeStatus struct {
	Name  string `json:"name"`
	Site  string `json:"site"`
	Ready bool   `json:"ready"`

	CPU         int   `json:"cpu"`
	MemoryBytes int64 `json:"memory_bytes"`
	GPUs        int   `json:"gpus"`

	AllocCPU         int   `json:"alloc_cpu"`
	AllocMemoryBytes int64 `json:"alloc_memory_bytes"`
	AllocGPUs        int   `json:"alloc_gpus"`

	BoundJobs int `json:"bound_jobs"`

	// OSD names the storage daemon co-located on this node, if any; OSDUp
	// reports whether it is serving.
	OSD   string `json:"osd,omitempty"`
	OSDUp bool   `json:"osd_up,omitempty"`
}

// SubmitResponse acknowledges a submitted job.
type SubmitResponse struct {
	ID    string `json:"id"`
	State State  `json:"state"`
}

// ErrorResponse is the JSON error body of every non-2xx gateway reply.
type ErrorResponse struct {
	Error string `json:"error"`
}

// SegmentResult reports a segmentation job. On cancellation the stats are
// partial (the flood stopped mid-way) and the mask covers what was flooded.
type SegmentResult struct {
	Steps       int `json:"steps"`
	Moves       int `json:"moves"`
	SeedsUsed   int `json:"seeds_used"`
	MaskVoxels  int `json:"mask_voxels"`
	VoxelsTotal int `json:"voxels_total"`
	// Mask payload, included only when return_mask was set. Inline mode
	// carries MaskBits, the 1-bit-per-voxel LSB-first packing of the (D, H,
	// W) row-major binary mask (dataset.PackBits — ~32x smaller than the
	// float array it replaced); ref mode carries MaskRef, a dataset id
	// fetchable via GET /v1/datasets/{id}.
	D        int    `json:"d,omitempty"`
	H        int    `json:"h,omitempty"`
	W        int    `json:"w,omitempty"`
	MaskBits []byte `json:"mask_bits,omitempty"`
	MaskRef  string `json:"mask_ref,omitempty"`
}

// ObjectSummary is one tracked object in a label result.
type ObjectSummary struct {
	ID          int `json:"id"`
	Voxels      int `json:"voxels"`
	Genesis     int `json:"genesis"`
	Termination int `json:"termination"`
	PeakArea    int `json:"peak_area"`
}

// LabelResult reports a CONNECT labelling job.
type LabelResult struct {
	Objects      int             `json:"objects"`
	TotalVoxels  int             `json:"total_voxels"`
	MeanDuration float64         `json:"mean_duration"`
	MaxDuration  int             `json:"max_duration"`
	MeanVoxels   float64         `json:"mean_voxels"`
	Top          []ObjectSummary `json:"top,omitempty"`
}

// IVTStep is one time slice's field summary.
type IVTStep struct {
	Mean float64 `json:"mean"`
	Max  float64 `json:"max"`
}

// IVTResult reports an IVT derivation job.
type IVTResult struct {
	Steps   int       `json:"steps"`
	Mean    float64   `json:"mean"`
	Max     float64   `json:"max"`
	PerStep []IVTStep `json:"per_step,omitempty"`
	// Coverage is the fraction of voxels >= threshold (threshold > 0 only).
	Coverage float64 `json:"coverage,omitempty"`
	// VolumeRef is the derived (steps, nlat, nlon) IVT volume as a dataset
	// ref, present when the job's result_mode is "ref" — downstream segment
	// and label jobs can submit it by ref without the field ever leaving
	// the fabric.
	VolumeRef string `json:"volume_ref,omitempty"`
}

// CheckpointInfo names one checkpoint a train_dist job wrote.
type CheckpointInfo struct {
	// Round is the next round index the checkpoint resumes at.
	Round int `json:"round"`
	// Ref is the checkpoint's content-addressed dataset id.
	Ref string `json:"ref"`
}

// TrainDistResult reports a distributed training job.
type TrainDistResult struct {
	// Workers is the final data-parallel width (after elastic steps).
	Workers int `json:"workers"`
	// Rounds is the total completed rounds, including resumed history.
	Rounds int `json:"rounds"`
	// StartRound is the first round this job executed (non-zero when the
	// job resumed from a checkpoint); ResumedFrom echoes the checkpoint ref.
	StartRound  int    `json:"start_round,omitempty"`
	ResumedFrom string `json:"resumed_from,omitempty"`
	// Losses is the full per-round mean loss history (resumed history
	// included), bit-identical at any worker count.
	Losses   []float64 `json:"losses"`
	LossHead float64   `json:"loss_head"`
	LossTail float64   `json:"loss_tail"`
	// GradBytes is the per-worker-pair gradient payload; CommBytes the
	// modeled ring all-reduce traffic across the rounds this job executed.
	GradBytes float64 `json:"grad_bytes"`
	CommBytes float64 `json:"comm_bytes"`
	// CheckpointRef is the final checkpoint (always written); Checkpoints
	// lists every periodic checkpoint including the final one.
	CheckpointRef string           `json:"checkpoint_ref,omitempty"`
	Checkpoints   []CheckpointInfo `json:"checkpoints,omitempty"`
	// Held-out validation of the final model, present when holdout_steps > 0
	// and the held-out segmentation completed.
	HoldoutSteps int     `json:"holdout_steps,omitempty"`
	Precision    float64 `json:"precision,omitempty"`
	Recall       float64 `json:"recall,omitempty"`
	F1           float64 `json:"f1,omitempty"`
	IoU          float64 `json:"iou,omitempty"`
}

// SweepParams is one grid candidate: what a sweep job's leaderboard reports
// and what core's queue-driven sweep carries as a Redis message.
type SweepParams struct {
	LR         float32 `json:"lr"`
	Momentum   float32 `json:"momentum"`
	Features   int     `json:"features"`
	Modules    int     `json:"modules"`
	TrainSteps int     `json:"train_steps"`
}

// SweepEntry is one leaderboard row of a sweep result.
type SweepEntry struct {
	Params SweepParams `json:"params"`
	// JobID is the child train_dist job that produced the metrics.
	JobID     string  `json:"job_id,omitempty"`
	TrainLoss float64 `json:"train_loss"`
	Precision float64 `json:"precision"`
	Recall    float64 `json:"recall"`
	F1        float64 `json:"f1"`
	IoU       float64 `json:"iou"`
	// EarlyStopped marks candidates halted at the half-budget rung.
	EarlyStopped bool `json:"early_stopped,omitempty"`
	// CheckpointRef is the winner's final checkpoint, set on the leaderboard
	// head and Best only: a segment job's net_ref. The checkpoints of the
	// other candidates are dropped when the sweep ends.
	CheckpointRef string `json:"checkpoint_ref,omitempty"`
}

// Better reports whether e beats o on F1 (ties broken by IoU) — the
// leaderboard order.
func (e SweepEntry) Better(o SweepEntry) bool {
	if e.F1 != o.F1 {
		return e.F1 > o.F1
	}
	return e.IoU > o.IoU
}

// SweepResult reports a hyperparameter sweep: the full leaderboard sorted
// best-first and the winning candidate.
type SweepResult struct {
	Candidates   int          `json:"candidates"`
	EarlyStopped int          `json:"early_stopped,omitempty"`
	Leaderboard  []SweepEntry `json:"leaderboard"`
	Best         SweepEntry   `json:"best"`
}

// WorkflowStepResult is one step of a workflow report.
type WorkflowStepResult struct {
	Name         string             `json:"name"`
	Status       string             `json:"status"`
	DurationMS   int64              `json:"duration_ms"`
	Measurements map[string]float64 `json:"measurements,omitempty"`
}

// WorkflowResult reports a measured DAG run, including the rendered
// Table-I-style resource summary.
type WorkflowResult struct {
	Workflow string               `json:"workflow"`
	Steps    []WorkflowStepResult `json:"steps"`
	TotalMS  int64                `json:"total_ms"`
	Failed   bool                 `json:"failed"`
	Table    string               `json:"table,omitempty"`
}

// PipelineSlabResult summarizes one time slab's trip through the
// IVT -> segment -> label pipeline.
type PipelineSlabResult struct {
	Slab      int `json:"slab"`
	StartStep int `json:"start_step"`
	Steps     int `json:"steps"`
	// IVT stage.
	IVTMean float64 `json:"ivt_mean"`
	IVTMax  float64 `json:"ivt_max"`
	// Segment stage.
	SegSteps   int `json:"seg_steps"`
	SegMoves   int `json:"seg_moves"`
	SeedsUsed  int `json:"seeds_used"`
	MaskVoxels int `json:"mask_voxels"`
	// Label stage.
	Objects      int `json:"objects"`
	ObjectVoxels int `json:"object_voxels"`
	MaxDuration  int `json:"max_duration"`
	// MaskRef is the slab's segmentation mask as a dataset ref, retained
	// when the job's result_mode is "ref" (the pipeline's stages always
	// chain by ref internally; inline mode releases the intermediates).
	MaskRef string `json:"mask_ref,omitempty"`
}

// PipelineResult reports a streamed pipeline job. On cancellation the
// aggregates cover the slabs that completed all three stages.
type PipelineResult struct {
	Slabs     int `json:"slabs"`
	SlabsDone int `json:"slabs_done"`
	Steps     int `json:"steps"`
	// Step-weighted IVT field aggregates.
	IVTMean float64 `json:"ivt_mean"`
	IVTMax  float64 `json:"ivt_max"`
	// Summed segmentation statistics.
	SegSteps    int `json:"seg_steps"`
	SegMoves    int `json:"seg_moves"`
	SeedsUsed   int `json:"seeds_used"`
	MaskVoxels  int `json:"mask_voxels"`
	VoxelsTotal int `json:"voxels_total"`
	// Summed labelling statistics (objects are per-slab: a structure
	// spanning a slab boundary counts once per slab it appears in).
	Objects      int                  `json:"objects"`
	ObjectVoxels int                  `json:"object_voxels"`
	MaxDuration  int                  `json:"max_duration"`
	PerSlab      []PipelineSlabResult `json:"per_slab,omitempty"`
}

// ResultEnvelope wraps a terminal job's result payload.
type ResultEnvelope struct {
	ID     string          `json:"id"`
	Kind   Kind            `json:"kind"`
	State  State           `json:"state"`
	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}
