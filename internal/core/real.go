package core

import (
	"context"
	"encoding/json"
	"fmt"

	"chaseci/internal/api"
	"chaseci/internal/dataset"
	"chaseci/internal/ffn"
	"chaseci/internal/merra"
	"chaseci/internal/queue"
	"chaseci/internal/service"
	"chaseci/internal/viz"
)

// This file is the real-compute spine of the workflow: when
// ConnectConfig.Real is set, the run also performs the actual computation at
// experiment scale — real NC4-lite subset bytes land in Ceph, and steps 2-4
// run as chased/v1 jobs chained by ref over the ecosystem's own object store.
// The virtual-time model answers "how long at cluster scale"; this path
// answers "does the pipeline actually work".

// realGranuleCount is how many real granules step 1 materializes in Ceph.
const realGranuleCount = 4

// landRealGranules renders the first few archive granules on the real-scale
// grid, extracts the IVT subset exactly as the THREDDS NCSS endpoint does,
// and stores the bytes in the cluster object store.
func (run *ConnectRun) landRealGranules() error {
	rc := run.Config.Real
	gen := merra.NewGenerator(rc.Grid, rc.Seed)
	levels := merra.PressureLevels(rc.Grid.NLev)
	mount := run.Eco.Storage.MountBucket("connect-data")
	for i := range min(realGranuleCount, run.Config.Archive.NumFiles()) {
		full := merra.StateFile(gen.State(i), levels, run.Config.Archive.FileTime(i).Unix())
		fullBytes := full.EncodeBytes()
		v, err := merra.ExtractVariable(fullBytes, "IVT")
		if err != nil {
			return fmt.Errorf("core: IVT extraction from generated granule: %w", err)
		}
		subset := &merra.File{Time: full.Time}
		subset.AddVariable(v.Name, v.Dims, v.Data)
		if err := mount.WriteFile(fmt.Sprintf("real/%s", run.Config.Archive.FileName(i)), subset.EncodeBytes()); err != nil {
			return fmt.Errorf("core: storing real granule: %w", err)
		}
	}
	return nil
}

// runJob submits req to an in-process runner, waits for the job to end and
// decodes its result into out. Failure and cancellation surface as errors.
func runJob(r *service.Runner, req *api.JobRequest, out any) error {
	st, err := r.Submit(req, "core")
	if err != nil {
		return err
	}
	if st, err = r.Await(context.TODO(), st.ID, nil); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if st.State != api.StateSucceeded {
		return fmt.Errorf("core: %s job %s %s: %s", req.Kind, st.ID, st.State, st.Error)
	}
	raw, _, _ := r.Result(st.ID)
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("core: %s result: %w", req.Kind, err)
	}
	return nil
}

// caseStudyNet is the experiment-scale FFN geometry of the case study.
func caseStudyNet(features, modules int) *api.NetConfig {
	return &api.NetConfig{FOV: [3]int{3, 7, 7}, Features: features, Modules: modules, MoveStep: [3]int{1, 2, 2}}
}

// RunSegmentation is steps 2-4 of the case study as a client of chased/v1,
// over an IVT volume already in ds: a train_dist job trains the FFN and
// leaves its checkpoint in the store (step 2: "save the model to Ceph"), a
// segment job floods the volume with that checkpoint's network by net_ref
// and stores the mask (step 3), and label jobs track objects in the mask and
// — the CONNECT baseline — in the thresholded field itself (step 4). Labels
// and seeds are the field at or above its rc.Quantile quantile. Every kernel
// runs inside a job; what happens here is submitting, waiting, and scoring
// the stored mask against the labels.
func RunSegmentation(ds *dataset.Manager, volume string, rc *RealComputeConfig) (*RealResult, error) {
	field, err := ds.Resolve(volume)
	if err != nil {
		return nil, err
	}
	flat := merra.Field2D{NLon: len(field.Data), NLat: 1, Data: field.Data}
	th := flat.Quantile(rc.Quantile)

	runner := service.NewRunnerConfigured(service.DefaultRegistry(), queue.NewStore(),
		service.RunnerConfig{Workers: 1, Datasets: ds})
	defer runner.Close()
	src := api.VolumeSource{Ref: volume}
	var train api.TrainDistResult
	if err := runJob(runner, &api.JobRequest{Kind: api.KindTrainDist, Name: "2-train", TrainDist: &api.TrainDistSpec{
		Source: src, Threshold: th, Workers: 2, Rounds: rc.TrainSteps, BatchPerRound: 8,
		LR: 0.03, Momentum: 0.9, Net: caseStudyNet(6, 0), NetSeed: rc.Seed, SampleSeed: rc.Seed,
	}}, &train); err != nil {
		return nil, err
	}
	var seg api.SegmentResult
	if err := runJob(runner, &api.JobRequest{Kind: api.KindSegment, Name: "3-inference", ResultMode: api.ResultModeRef, Segment: &api.SegmentSpec{
		Source: src, Threshold: th, NetRef: train.CheckpointRef, SeedStride: [3]int{1, 4, 4}, ReturnMask: true,
	}}, &seg); err != nil {
		return nil, err
	}
	var ffnObjs, connObjs api.LabelResult
	if err := runJob(runner, &api.JobRequest{Kind: api.KindLabel, Name: "4-objects", Label: &api.LabelSpec{
		Source: api.VolumeSource{Ref: seg.MaskRef}, Threshold: 0.5, MinVoxels: 4,
	}}, &ffnObjs); err != nil {
		return nil, err
	}
	if err := runJob(runner, &api.JobRequest{Kind: api.KindLabel, Name: "4-connect-baseline", Label: &api.LabelSpec{
		Source: src, Threshold: th, MinVoxels: 4,
	}}, &connObjs); err != nil {
		return nil, err
	}

	stored, err := ds.Resolve(seg.MaskRef)
	if err != nil {
		return nil, err
	}
	raw := &ffn.Volume{D: field.D, H: field.H, W: field.W, Data: field.Data}
	mask := &ffn.Volume{D: stored.D, H: stored.H, W: stored.W, Data: stored.Floats()}
	labels := ffn.NewVolume(field.D, field.H, field.W)
	for i, v := range field.Data {
		if v >= th {
			labels.Data[i] = 1
		}
	}
	res := &RealResult{
		CheckpointRef: train.CheckpointRef,
		MaskRef:       seg.MaskRef,
		TrainLossHead: train.LossHead,
		TrainLossTail: train.LossTail,
		IoU:           ffn.IoU(mask, labels),
		FFNObjects:    ffnObjs.Objects,
		CONNObjects:   connObjs.Objects,
		ReportText: viz.SegmentationReport(mask, labels) + "\n" +
			"CONNECT baseline objects on reference labels:\n" + viz.ObjectReport(&connObjs),
		OverlayPPM: viz.RenderOverlayPPM(viz.VolumeSlice(raw, 0), viz.VolumeSlice(mask, 0), raw.H, raw.W),
	}
	res.Precision, res.Recall = ffn.PrecisionRecall(mask, labels)
	return res, nil
}

// sceneSource renders a RealComputeConfig's IVT volume as an inline
// chased/v1 volume source — the raw form the job kinds consume (they
// threshold and normalize themselves).
func sceneSource(rc *RealComputeConfig) api.VolumeSource {
	gen := merra.NewGenerator(rc.Grid, rc.Seed)
	vol := merra.IVTVolume(gen, merra.PressureLevels(rc.Grid.NLev), 20, rc.TimeSteps)
	return api.VolumeSource{D: rc.TimeSteps, H: rc.Grid.NLat, W: rc.Grid.NLon, Data: vol.Data}
}

// realCompute is the run's real-compute half: the scene goes into the
// ecosystem's dataset store, RunSegmentation chains the jobs over it, and
// the step-4 notebook's report and overlay land beside the results.
func (run *ConnectRun) realCompute() error {
	scene := sceneSource(run.Config.Real)
	info, err := run.Eco.Datasets.PutVolume(scene.D, scene.H, scene.W, scene.Data, "core")
	if err != nil {
		return err
	}
	res, err := RunSegmentation(run.Eco.Datasets, info.ID, run.Config.Real)
	if err != nil {
		return err
	}
	mount := run.Eco.Storage.MountBucket("connect-results")
	if err := mount.WriteFile("real/report.txt", []byte(res.ReportText)); err != nil {
		return err
	}
	if err := mount.WriteFile("real/overlay-t0.ppm", res.OverlayPPM); err != nil {
		return err
	}
	run.RealResult = res
	return nil
}
