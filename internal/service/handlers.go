package service

import (
	"context"
	"errors"
	"fmt"
	"time"

	"chaseci/internal/api"
	"chaseci/internal/connect"
	"chaseci/internal/dataset"
	"chaseci/internal/ffn"
	"chaseci/internal/merra"
	"chaseci/internal/sim"
	"chaseci/internal/workflow"
)

// DefaultRegistry returns a registry with the built-in handler for every
// api kind — the uniform front-end over the heterogeneous kernels.
func DefaultRegistry() *Registry {
	r := NewRegistry()
	r.Register(api.KindSegment, SegmentHandler)
	r.Register(api.KindLabel, LabelHandler)
	r.Register(api.KindIVT, IVTHandler)
	r.Register(api.KindTrainDist, TrainDistHandler)
	r.Register(api.KindSweep, SweepHandler)
	r.Register(api.KindWorkflow, WorkflowHandler)
	r.Register(api.KindPipeline, PipelineHandler)
	return r
}

// synthIVTVolume materializes the synthetic IVT volume behind a spec,
// reporting per-step progress under the given stage name — the single
// synthesis path shared by every kind that accepts a synth source.
func synthIVTVolume(ctx context.Context, jc *JobContext, sy *api.SynthSpec, stage string) (*merra.Field3D, error) {
	g := merra.Grid{NLon: sy.NLon, NLat: sy.NLat, NLev: sy.NLev}
	gen := merra.NewGenerator(g, sy.Seed)
	jc.Progress(0, int64(sy.Steps), stage)
	return merra.IVTVolumeCtx(ctx, gen, merra.PressureLevels(g.NLev), sy.Start, sy.Steps,
		func(done, total int) { jc.Progress(int64(done), int64(total), stage) })
}

// source is a job's input as sourceVolume materialized it: the store's
// shared view for a ref (blob), else the request's own inline Data or the
// synthetic IVT volume (vol; time-major, like ffn.Volume). Nothing is copied,
// and everything but a synthesized volume is read-only: a ref's blob is
// shared by every job resolving it, concurrently, and is a view of the bytes
// its content address names; inline data must be pristine for a retried
// attempt. A handler that needs a transformed volume writes it into a buffer
// of its own (normalizedVolume, thresholdVolume) and releases that buffer.
// owned marks the one source the job may hand back: a synthesized volume
// sits in a free-list buffer nobody else has seen, and whoever holds the
// source releases it once the job has consumed it.
type source struct {
	blob  *dataset.Blob
	vol   *ffn.Volume
	owned bool
}

// volume returns the input as the float32 field the kernels read. For a
// mask ref this is where the packed payload is expanded (once per cached
// blob); a consumer of the bits themselves reads blob.Bits instead.
func (s *source) volume() *ffn.Volume {
	if s.vol == nil {
		b := s.blob
		s.vol = &ffn.Volume{D: b.D, H: b.H, W: b.W, Data: b.Floats()}
	}
	return s.vol
}

// sourceVolume materializes a job's input (see source).
func sourceVolume(ctx context.Context, jc *JobContext, src *api.VolumeSource) (source, error) {
	if src.Ref != "" {
		jc.Progress(0, 1, "resolve")
		blob, err := jc.Datasets().Resolve(src.Ref)
		if err != nil {
			return source{}, err
		}
		jc.Progress(1, 1, "resolve")
		return source{blob: blob}, nil
	}
	if src.Synth != nil {
		vol, err := synthIVTVolume(ctx, jc, src.Synth, "synthesize")
		if err != nil {
			return source{}, err
		}
		return source{vol: &ffn.Volume{D: src.Synth.Steps, H: src.Synth.NLat, W: src.Synth.NLon, Data: vol.Data}, owned: true}, nil
	}
	return source{vol: &ffn.Volume{D: src.D, H: src.H, W: src.W, Data: src.Data}}, nil
}

// sourceDepth reports the time depth of a job's source volume without
// materializing it: a ref's from the store's record.
func sourceDepth(jc *JobContext, src *api.VolumeSource) (int, error) {
	switch {
	case src.Ref != "":
		info, ok := jc.Datasets().Stat(src.Ref)
		if !ok {
			return 0, fmt.Errorf("%w: source ref %s is not in the dataset store", api.ErrInvalid, src.Ref)
		}
		return info.D, nil
	case src.Synth != nil:
		return src.Synth.Steps, nil
	default:
		return src.D, nil
	}
}

// normalizedVolume conditions raw into a buffer borrowed from the free
// list; the caller releases it with ffn.ReleaseVolume.
func normalizedVolume(raw *ffn.Volume) *ffn.Volume {
	return raw.NormalizeInto(ffn.BorrowVolume(raw.D, raw.H, raw.W))
}

// thresholdVolume builds the binary mask raw >= threshold in a buffer
// borrowed from the free list; the caller releases it with
// ffn.ReleaseVolume.
func thresholdVolume(raw *ffn.Volume, threshold float32) *ffn.Volume {
	out := ffn.BorrowVolume(raw.D, raw.H, raw.W)
	for i, v := range raw.Data {
		if v >= threshold {
			out.Data[i] = 1
		} else {
			out.Data[i] = 0
		}
	}
	return out
}

// trainingSet is the conditioning every training path starts from: the raw
// source, its binary labels (raw >= threshold) and the normalized image.
// Labels and image live in borrowed buffers that release returns, along
// with a synthesized raw (ownsRaw); any other raw is read-only (see source).
type trainingSet struct {
	raw, labels, image *ffn.Volume
	ownsRaw            bool
}

// openTrainingSet materializes src.
func openTrainingSet(jc *JobContext, src *api.VolumeSource, threshold float32) (trainingSet, error) {
	in, err := sourceVolume(jc.Ctx(), jc, src)
	if err != nil {
		return trainingSet{}, err
	}
	raw := in.volume()
	return trainingSet{raw: raw, ownsRaw: in.owned, labels: thresholdVolume(raw, threshold), image: normalizedVolume(raw)}, nil
}

func (s *trainingSet) release() {
	ffn.ReleaseVolume(s.labels)
	ffn.ReleaseVolume(s.image)
	if s.ownsRaw {
		ffn.ReleaseVolume(s.raw)
	}
}

// optimizerDefaults resolves a spec's zero learning rate and momentum.
func optimizerDefaults(lr, momentum float32) (float32, float32) {
	if lr == 0 {
		lr = 0.05
	}
	if momentum == 0 {
		momentum = 0.9
	}
	return lr, momentum
}

// lossSummary condenses a loss curve into the mean of its first and of its
// last fifth — the head/tail pair every training result reports.
func lossSummary(losses []float64) (head, tail float64) {
	return ffn.MeanTail(losses[:(len(losses)+4)/5], 1), ffn.MeanTail(losses, 0.2)
}

// netConfig maps an optional api.NetConfig onto ffn defaults.
func netConfig(nc *api.NetConfig) ffn.Config {
	cfg := ffn.DefaultConfig()
	if nc == nil {
		return cfg
	}
	if nc.FOV != [3]int{} {
		cfg.FOV = nc.FOV
	}
	if nc.Features > 0 {
		cfg.Features = nc.Features
	}
	if nc.Modules > 0 {
		cfg.Modules = nc.Modules
	}
	if nc.MoveStep != [3]int{} {
		cfg.MoveStep = nc.MoveStep
	}
	if nc.MoveProb > 0 {
		cfg.MoveProb = nc.MoveProb
	}
	if nc.SegmentProb > 0 {
		cfg.SegmentProb = nc.SegmentProb
	}
	return cfg
}

// SegmentHandler runs FFN flood-fill segmentation: the network (drawn from
// net_seed, or the one a net_ref checkpoint holds — shared with every job
// naming the same weights, through the runner's cache), seed selection,
// then SegmentCtx. A cancelled flood still returns the partial mask
// statistics alongside ctx.Err().
func SegmentHandler(jc *JobContext) (any, error) {
	spec := jc.Request().Segment
	var net *ffn.Network
	var err error
	if spec.NetRef != "" {
		net, err = jc.runner.nets.checkpointed(jc, spec.NetRef)
	} else {
		net, err = jc.runner.nets.seeded(netConfig(spec.Net), spec.NetSeed)
	}
	if err != nil {
		return nil, err
	}
	cfg := net.Config()
	in, err := sourceVolume(jc.Ctx(), jc, &spec.Source)
	if err != nil {
		return nil, err
	}
	raw := in.volume()
	if in.owned {
		defer ffn.ReleaseVolume(raw)
	}
	// Seeds come from the raw field, before normalization.
	seeds := spec.Seeds
	if len(seeds) == 0 {
		stride := spec.SeedStride
		if stride == [3]int{} {
			stride = cfg.FOV
		}
		seeds = ffn.GridSeeds(raw, cfg.FOV, stride, spec.Threshold)
	}
	image := normalizedVolume(raw)
	defer ffn.ReleaseVolume(image)

	res := api.SegmentResult{}
	jc.Progress(0, 0, "segment")
	mask, stats, segErr := net.SegmentCtx(jc.Ctx(), image, seeds, spec.MaxSteps,
		func(steps int) { jc.Progress(int64(steps), 0, "segment") })
	// The mask is packed (stored or inlined) below and then recycled.
	defer ffn.ReleaseVolume(mask)
	res.Steps = stats.Steps
	res.Moves = stats.Moves
	res.SeedsUsed = stats.SeedsUsed
	res.MaskVoxels = stats.MaskVoxels
	res.VoxelsTotal = stats.VoxelsTotal
	if spec.ReturnMask {
		res.D, res.H, res.W = mask.D, mask.H, mask.W
		if jc.RefMode() && segErr == nil {
			info, err := jc.Datasets().PutMask(mask.D, mask.H, mask.W, mask.Data, jc.Owner())
			if err != nil {
				return res, err
			}
			res.MaskRef = info.ID
		} else {
			// Inline (and cancelled-partial) masks travel 1-bit packed:
			// ~32x smaller on the wire than the float array they replace.
			res.MaskBits = dataset.PackBits(mask.Data)
		}
	}
	return res, segErr
}

// LabelHandler thresholds the source and runs CONNECT labelling.
func LabelHandler(jc *JobContext) (any, error) {
	spec := jc.Request().Label
	in, err := sourceVolume(jc.Ctx(), jc, &spec.Source)
	if err != nil {
		return nil, err
	}
	var vol *connect.Volume
	if b := in.blob; b != nil && b.Kind == dataset.KindMask && spec.Threshold > 0 && spec.Threshold <= 1 {
		// A stored mask's voxels are 0 or 1, so such a threshold keeps
		// exactly its set bits: scan the packed payload where it lies.
		vol = connect.FromBits(b.D, b.H, b.W, b.Bits)
	} else {
		// The labelling reads the thresholded field only until LabelCtx
		// returns; the source is dead as soon as it is thresholded.
		bin := thresholdVolume(in.volume(), spec.Threshold)
		defer ffn.ReleaseVolume(bin)
		if in.owned {
			ffn.ReleaseVolume(in.vol)
		}
		vol = connect.FromMask(bin.D, bin.H, bin.W, bin.Data)
	}
	conn := connect.Conn26
	if spec.Connectivity == 6 {
		conn = connect.Conn6
	}
	jc.Progress(0, int64(vol.T), "label")
	result, err := connect.LabelCtx(jc.Ctx(), vol, conn, spec.MinVoxels,
		func(done, total int) { jc.Progress(int64(done), int64(total), "label") })
	if err != nil {
		return nil, err
	}
	// Only the objects are reported: the label array goes back to the list.
	result.Release()
	stats := connect.Summarize(result)
	res := api.LabelResult{
		Objects:      stats.Objects,
		TotalVoxels:  stats.TotalVoxels,
		MeanDuration: stats.MeanDuration,
		MaxDuration:  stats.MaxDuration,
		MeanVoxels:   stats.MeanVoxels,
	}
	maxObjects := spec.MaxObjects
	if maxObjects == 0 {
		maxObjects = 20
	}
	for _, o := range result.Objects {
		if len(res.Top) >= maxObjects {
			break
		}
		res.Top = append(res.Top, api.ObjectSummary{
			ID: o.ID, Voxels: o.Voxels,
			Genesis: o.Genesis, Termination: o.Termination,
			PeakArea: o.PeakArea,
		})
	}
	return res, nil
}

// IVTHandler derives the IVT volume and summarizes each time slice.
func IVTHandler(jc *JobContext) (any, error) {
	spec := jc.Request().IVT
	sy := spec.Synth
	vol, err := synthIVTVolume(jc.Ctx(), jc, &sy, "ivt")
	if err != nil {
		return nil, err
	}
	// Summarized and (in ref mode) encoded below, then recycled.
	defer vol.Release()
	hw := sy.NLon * sy.NLat
	res := api.IVTResult{Steps: sy.Steps, PerStep: make([]api.IVTStep, sy.Steps)}
	above := 0
	for t := 0; t < sy.Steps; t++ {
		slice := vol.Data[t*hw : (t+1)*hw]
		var sum float64
		var mx float32
		for _, v := range slice {
			sum += float64(v)
			if v > mx {
				mx = v
			}
			if spec.Threshold > 0 && v >= spec.Threshold {
				above++
			}
		}
		res.PerStep[t] = api.IVTStep{Mean: sum / float64(hw), Max: float64(mx)}
		res.Mean += sum / float64(hw)
		if float64(mx) > res.Max {
			res.Max = float64(mx)
		}
	}
	res.Mean /= float64(sy.Steps)
	if spec.Threshold > 0 {
		res.Coverage = float64(above) / float64(sy.Steps*hw)
	}
	if jc.RefMode() {
		// Offload the derived field: downstream segment/label jobs submit
		// the ref and the volume never crosses the gateway.
		info, err := jc.Datasets().PutVolume(sy.Steps, sy.NLat, sy.NLon, vol.Data, jc.Owner())
		if err != nil {
			return res, err
		}
		res.VolumeRef = info.ID
	}
	return res, nil
}

// WorkflowHandler executes a measured virtual-time DAG on a private clock.
// Virtual durations cost no wall time, so even multi-hour plans finish in
// microseconds; cancellation is checked between events.
func WorkflowHandler(jc *JobContext) (any, error) {
	spec := jc.Request().Workflow
	clk := sim.NewClock()
	wf := workflow.New(spec.Name, clk)
	for _, st := range spec.Steps {
		st := st
		err := wf.AddStep(workflow.StepSpec{
			Name:      st.Name,
			DependsOn: st.DependsOn,
			Run: func(ctx *workflow.Ctx) {
				for k, v := range st.Measurements {
					ctx.Record(k, v)
				}
				ctx.After(time.Duration(st.DurationMS)*time.Millisecond, func() {
					var err error
					if st.Fail != "" {
						err = errors.New(st.Fail)
					}
					ctx.Done(err)
				})
			},
		})
		if err != nil {
			return nil, err
		}
	}
	jc.Progress(0, int64(len(spec.Steps)), "workflow")
	report, execErr := wf.ExecuteCtx(jc.Ctx())

	res := api.WorkflowResult{Workflow: report.Workflow, Failed: wf.Failed()}
	completed := int64(0)
	for _, s := range report.Steps {
		res.Steps = append(res.Steps, api.WorkflowStepResult{
			Name:         s.Name,
			Status:       s.Status.String(),
			DurationMS:   s.Duration.Milliseconds(),
			Measurements: s.Measurements,
		})
		if s.Status == workflow.StatusSucceeded || s.Status == workflow.StatusFailed {
			completed++
		}
	}
	res.TotalMS = report.Total.Milliseconds()
	res.Table = report.RenderTable()
	jc.Progress(completed, int64(len(spec.Steps)), "workflow")
	if execErr != nil {
		return res, execErr
	}
	if wf.Failed() {
		for _, s := range report.Steps {
			if s.Status == workflow.StatusFailed {
				return res, fmt.Errorf("workflow step %q failed: %v", s.Name, wf.StepError(s.Name))
			}
		}
		return res, errors.New("workflow failed")
	}
	return res, nil
}
