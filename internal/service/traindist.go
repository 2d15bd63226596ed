package service

import (
	"fmt"

	"chaseci/internal/api"
	"chaseci/internal/dataset"
	"chaseci/internal/ffn"
)

// The training jobs, train_dist and train. They are the only handlers that
// build networks of their own rather than take the runner's shared ones
// (netcache.go): a trainer steps the network it is given.
//
// train_dist is synchronous data-parallel FFN training under the
// service Runner. The kernel (ffn.DistTrainer) is worker-count invariant by
// construction — every round draws one global batch from a round-derived RNG
// and averages gradients in global sample order — so the loss sequence is
// bit-identical at any width, under elastic add/remove between rounds, and
// across a checkpoint/restore boundary. Checkpoints are content-addressed
// CDS1 datasets: a resumed job names one by ref, and two runs that reach the
// same round with the same state collide into the same id.

// putCheckpoint stores the trainer's current state as a checkpoint dataset,
// pinned atomically against a concurrent delete; the tracker's release
// matches the pin and sweeps orphans if the job never completes.
func putCheckpoint(jc *JobContext, refs *pipeRefs, t *ffn.DistTrainer) (string, error) {
	// Serialized once, straight into the CDS1 frame the store keeps.
	ck := t.Checkpoint()
	frame, err := dataset.CheckpointFrame(ck.EncodedLen())
	if err != nil {
		return "", err
	}
	info, created, err := jc.Datasets().PutPinned(ck.AppendTo(frame), jc.Owner())
	if err != nil {
		return "", err
	}
	refs.track(refs.masks, info.ID, created)
	return info.ID, nil
}

// TrainDistHandler runs a data-parallel training job: fresh from a spec, or
// resumed from a checkpoint ref (the checkpoint carries model, optimizer
// momentum, sampling seed, batch geometry, and loss history — Rounds means
// total rounds including the resumed history). A cancelled run reports the
// rounds actually completed; its periodic checkpoints are released, but an
// identical re-run re-creates the same content-addressed refs. The trainer's
// borrowed arrays go back to the free list however the handler returns —
// success, error, cancel, or a panic unwinding through it.
func TrainDistHandler(jc *JobContext) (any, error) {
	spec := jc.Request().TrainDist
	set, err := openTrainingSet(jc, &spec.Source, spec.Threshold)
	if err != nil {
		return nil, err
	}
	defer set.release()

	var t *ffn.DistTrainer
	res := api.TrainDistResult{}
	if spec.ResumeFrom != "" {
		jc.Progress(0, 1, "resume")
		ck, err := resolveCheckpoint(jc, spec.ResumeFrom)
		if err != nil {
			return nil, err
		}
		t, err = ffn.ResumeDistTrainer(ck, set.image, set.labels, spec.Workers)
		if err != nil {
			return nil, err
		}
		res.ResumedFrom = spec.ResumeFrom
	} else {
		lr, momentum := optimizerDefaults(spec.LR, spec.Momentum)
		net, err := ffn.NewNetwork(netConfig(spec.Net), spec.NetSeed)
		if err != nil {
			return nil, err
		}
		t, err = ffn.NewDistTrainer(net, lr, momentum, set.image, set.labels,
			spec.SampleSeed, spec.BatchPerRound, spec.Workers)
		if err != nil {
			return nil, err
		}
	}
	defer t.Release()
	res.StartRound = t.RoundIndex()
	res.GradBytes = t.Net.GradBytes()

	refs := &pipeRefs{ds: jc.Datasets(), masks: make(map[string]*refEntry)}
	defer refs.release()

	elastic := spec.Elastic
	for t.RoundIndex() < spec.Rounds {
		round := t.RoundIndex()
		for len(elastic) > 0 && elastic[0].Round <= round {
			if err := t.SetWorkers(elastic[0].Workers); err != nil {
				return res, err
			}
			elastic = elastic[1:]
		}
		res.CommBytes += t.CommBytesPerRound()
		jc.Progress(int64(round), int64(spec.Rounds), fmt.Sprintf("round %d/%d (%dw)", round, spec.Rounds, t.Workers()))
		if _, err := t.Round(jc.Ctx()); err != nil {
			fillLosses(&res, t)
			return res, err
		}
		done := t.RoundIndex()
		if spec.CheckpointEvery > 0 && done < spec.Rounds && done%spec.CheckpointEvery == 0 {
			ref, err := putCheckpoint(jc, refs, t)
			if err != nil {
				fillLosses(&res, t)
				return res, err
			}
			res.Checkpoints = append(res.Checkpoints, api.CheckpointInfo{Round: done, Ref: ref})
		}
	}
	jc.Progress(int64(spec.Rounds), int64(spec.Rounds), "checkpoint")

	// The final checkpoint is always written: it is what a follow-on job's
	// resume_from names.
	ref, err := putCheckpoint(jc, refs, t)
	if err != nil {
		fillLosses(&res, t)
		return res, err
	}
	res.CheckpointRef = ref
	fillLosses(&res, t)

	// Success: promote every checkpoint this run reported before release
	// unpins them — Delete no-ops on kept ids, so they survive the sweep.
	for _, ck := range res.Checkpoints {
		jc.Datasets().Keep(ck.Ref)
	}
	jc.Datasets().Keep(res.CheckpointRef)
	return res, nil
}

// fillLosses copies the trainer's state into the result — shared by the
// success and cancelled-partial paths.
func fillLosses(res *api.TrainDistResult, t *ffn.DistTrainer) {
	res.Workers = t.Workers()
	res.Rounds = t.RoundIndex()
	res.Losses = append([]float64(nil), t.Losses()...)
	res.LossHead, res.LossTail = lossSummary(res.Losses)
}

// TrainHandler runs FFN SGD training against the thresholded source. A
// cancelled run reports the losses of the steps actually taken. With
// HoldoutSteps > 0 the trailing time slices are withheld from training and
// the trained model is scored on them (precision/recall/F1/IoU) — the
// evaluation unit sweep jobs fan out over.
func TrainHandler(jc *JobContext) (any, error) {
	spec := jc.Request().Train
	set, err := openTrainingSet(jc, &spec.Source, spec.Threshold)
	if err != nil {
		return nil, err
	}
	defer set.release()
	cfg := netConfig(spec.Net)

	holdout := spec.HoldoutSteps
	trainImg, trainLbl := set.image, set.labels
	var testImg, testLbl *ffn.Volume
	var testSeeds [][3]int
	if holdout > 0 {
		if holdout >= set.raw.D {
			return nil, fmt.Errorf("%w: holdout of %d steps leaves no training data in a %d-step volume",
				api.ErrInvalid, holdout, set.raw.D)
		}
		// Seeds come from the raw held-out slab, before normalization (the
		// same convention SegmentHandler uses for its seed threshold).
		_, _, testRaw, _ := ffn.Split(set.raw, set.labels, set.raw.D-holdout)
		testSeeds = ffn.GridSeeds(testRaw, cfg.FOV, [3]int{1, 4, 4}, spec.Threshold)
		trainImg, trainLbl, testImg, testLbl = ffn.Split(set.image, set.labels, set.raw.D-holdout)
	}

	net, err := ffn.NewNetwork(cfg, spec.NetSeed)
	if err != nil {
		return nil, err
	}
	// A step is one batch-1 round of the data-parallel trainer on one worker:
	// the one trainer, and the one sampling stream, train_dist runs.
	lr, momentum := optimizerDefaults(spec.LR, spec.Momentum)
	t, err := ffn.NewDistTrainer(net, lr, momentum, trainImg, trainLbl, spec.SampleSeed, 1, 1)
	if err != nil {
		return nil, err
	}
	defer t.Release()
	jc.Progress(0, int64(spec.Steps), "train")
	var trainErr error
	for t.RoundIndex() < spec.Steps {
		if _, trainErr = t.Round(jc.Ctx()); trainErr != nil {
			break
		}
		jc.Progress(int64(t.RoundIndex()), int64(spec.Steps), "train")
	}
	losses := t.Losses()
	if len(losses) == 0 {
		return nil, trainErr
	}
	res := api.TrainResult{Steps: len(losses)}
	res.LossHead, res.LossTail = lossSummary(losses)
	if trainErr != nil || holdout == 0 {
		return res, trainErr
	}

	jc.Progress(0, 0, "validate")
	mask, _, segErr := net.SegmentCtx(jc.Ctx(), testImg, testSeeds, 0, nil)
	defer ffn.ReleaseVolume(mask)
	if segErr != nil {
		// An aborted flood must never score as a legitimate (if terrible)
		// model — fail the candidate instead of reporting a zero mask.
		return res, fmt.Errorf("held-out segmentation: %w", segErr)
	}
	prec, rec := ffn.PrecisionRecall(mask, testLbl)
	res.HoldoutSteps = holdout
	res.Precision, res.Recall = prec, rec
	if prec+rec > 0 {
		res.F1 = 2 * prec * rec / (prec + rec)
	}
	res.IoU = ffn.IoU(mask, testLbl)
	return res, nil
}
