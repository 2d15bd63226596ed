package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"

	"chaseci/internal/api"
	"chaseci/internal/workflow"
)

// goldenUnits is how many leading units of each workload have a recorded
// digest.
const goldenUnits = 8

//go:embed golden.json
var goldenJSON []byte

// goldenFile is bench/golden.json: result digests of the first units of
// each workload at one seed. Inference results are compared exactly;
// training is compared on loss_tail, because conv-backward reassociates
// shard sums across GOMAXPROCS.
type goldenFile struct {
	Seed          uint64              `json:"seed"`
	Digests       map[string][]string `json:"digests"`
	TrainLossTail []float64           `json:"train_loss_tail"`
}

func loadGolden() (*goldenFile, error) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("bench/golden.json: %w", err)
	}
	return &g, nil
}

// lossEpsilon is the slack on "training did not diverge": loss_tail may
// exceed loss_head by at most this much.
const lossEpsilon = 0.05

// errWrong marks a result that arrived but is not the right answer — a job
// that ended other than succeeded included — as opposed to a refusal,
// transport error or timeout.
var errWrong = errors.New("wrong result")

// verifier checks every result inside the timed loop: envelope and state,
// structural invariants of the kind, same body => same digest, and the
// golden digests when the run's seed is the golden seed.
type verifier struct {
	workload string
	want     *goldenFile // nil when the seed has no goldens
	record   *goldenFile // non-nil when recording goldens

	mu      sync.Mutex
	byBody  map[int][32]byte
	wrong   int
	errs    []string
	nerrors int
}

func newVerifier(workload string, golden, record *goldenFile) *verifier {
	return &verifier{workload: workload, want: golden, record: record, byBody: make(map[int][32]byte)}
}

// fail records a failed unit's reason (the first few are printed).
func (v *verifier) fail(err error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.nerrors++
	if errors.Is(err, errWrong) {
		v.wrong++
	}
	if len(v.errs) < 5 {
		v.errs = append(v.errs, err.Error())
	}
}

func wrongf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errWrong, fmt.Sprintf(format, args...))
}

// structure checks the envelope and decodes and checks the kind's result
// into out, which must be a pointer to the kind's api result type.
func (v *verifier) structure(env *api.ResultEnvelope, out any) error {
	if env.State != api.StateSucceeded {
		return wrongf("job %s ended %s: %s", env.ID, env.State, env.Error)
	}
	if err := json.Unmarshal(env.Result, out); err != nil {
		return wrongf("job %s result does not parse: %v", env.ID, err)
	}
	switch r := out.(type) {
	case *api.WorkflowResult:
		if r.Failed || len(r.Steps) != 1 || r.Steps[0].Status != workflow.StatusSucceeded.String() || r.TotalMS != 1 {
			return wrongf("workflow result %+v", *r)
		}
	case *api.SegmentResult:
		if r.MaskVoxels <= 0 || r.Steps <= 0 || !api.ValidRef(r.MaskRef) {
			return wrongf("segment result mask_voxels=%d steps=%d mask_ref=%q", r.MaskVoxels, r.Steps, r.MaskRef)
		}
	case *api.IVTResult:
		if r.Steps != chainSteps || !(r.Max > 0) || math.IsInf(r.Max, 0) || !api.ValidRef(r.VolumeRef) {
			return wrongf("ivt result steps=%d max=%v volume_ref=%q", r.Steps, r.Max, r.VolumeRef)
		}
	case *api.LabelResult:
		if r.Objects <= 0 {
			return wrongf("label result objects=%d", r.Objects)
		}
	case *api.TrainDistResult:
		finite := !math.IsNaN(r.LossTail) && !math.IsInf(r.LossTail, 0)
		if r.Rounds != trainRounds || len(r.Losses) != trainRounds || !finite ||
			r.LossTail > r.LossHead+lossEpsilon || !api.ValidRef(r.CheckpointRef) ||
			len(r.Checkpoints) != trainRounds/trainCheckpointEvery-1 { // periodic ones; the final has its own field
			return wrongf("train_dist result rounds=%d loss_head=%v loss_tail=%v checkpoint_ref=%q checkpoints=%d",
				r.Rounds, r.LossHead, r.LossTail, r.CheckpointRef, len(r.Checkpoints))
		}
	default:
		panic(fmt.Sprintf("bench: no structural check for %T", out))
	}
	return nil
}

// check verifies a single-job unit: structure, digest consistency for a
// repeated body (bodyKey < 0 = the body never repeats), and the golden.
func (v *verifier) check(ci, unit, bodyKey int, env *api.ResultEnvelope) error {
	var out any
	switch env.Kind {
	case api.KindWorkflow:
		out = new(api.WorkflowResult)
	case api.KindSegment:
		out = new(api.SegmentResult)
	case api.KindTrainDist:
		out = new(api.TrainDistResult)
	default:
		return wrongf("job %s has unexpected kind %q", env.ID, env.Kind)
	}
	if err := v.structure(env, out); err != nil {
		return err
	}
	digest := sha256.Sum256(env.Result)
	if bodyKey >= 0 {
		v.mu.Lock()
		prev, seen := v.byBody[bodyKey]
		if !seen {
			v.byBody[bodyKey] = digest
		}
		v.mu.Unlock()
		if seen && prev != digest {
			return wrongf("job %s: same request body, different result digest", env.ID)
		}
	}
	if r, ok := out.(*api.TrainDistResult); ok {
		return v.goldenLoss(ci, unit, r.LossTail)
	}
	return v.golden(ci, unit, digest)
}

// golden compares (or records) the digest of one of client 0's first units.
func (v *verifier) golden(ci, unit int, digest [32]byte) error {
	if ci != 0 || unit >= goldenUnits {
		return nil
	}
	got := hex.EncodeToString(digest[:])
	if v.record != nil {
		v.mu.Lock()
		list := v.record.Digests[v.workload]
		for len(list) <= unit {
			list = append(list, "")
		}
		list[unit] = got
		v.record.Digests[v.workload] = list
		v.mu.Unlock()
		return nil
	}
	if v.want == nil {
		return nil
	}
	want := v.want.Digests[v.workload]
	if unit >= len(want) {
		return wrongf("%s unit %d has no golden digest", v.workload, unit)
	}
	if want[unit] != got {
		return wrongf("%s unit %d digest %s, golden %s", v.workload, unit, got[:12], want[unit][:12])
	}
	return nil
}

func (v *verifier) goldenLoss(ci, unit int, lossTail float64) error {
	if ci != 0 || unit >= goldenUnits {
		return nil
	}
	if v.record != nil {
		v.mu.Lock()
		for len(v.record.TrainLossTail) <= unit {
			v.record.TrainLossTail = append(v.record.TrainLossTail, 0)
		}
		v.record.TrainLossTail[unit] = lossTail
		v.mu.Unlock()
		return nil
	}
	if v.want == nil {
		return nil
	}
	if unit >= len(v.want.TrainLossTail) {
		return wrongf("train_dist unit %d has no golden loss_tail", unit)
	}
	want := v.want.TrainLossTail[unit]
	if math.Abs(lossTail-want) > 1e-3*math.Abs(want) {
		return wrongf("train_dist unit %d loss_tail %v, golden %v", unit, lossTail, want)
	}
	return nil
}

// chainDigest folds a chain's three result payloads into one digest.
type chainDigest struct{ parts []byte }

func newChainDigest(env *api.ResultEnvelope) *chainDigest {
	d := &chainDigest{}
	d.add(env)
	return d
}

func (d *chainDigest) add(env *api.ResultEnvelope) {
	s := sha256.Sum256(env.Result)
	d.parts = append(d.parts, s[:]...)
}

func (d *chainDigest) sum() [32]byte { return sha256.Sum256(d.parts) }
