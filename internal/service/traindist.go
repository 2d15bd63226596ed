package service

import (
	"errors"
	"fmt"

	"chaseci/internal/api"
	"chaseci/internal/dataset"
	"chaseci/internal/ffn"
)

// The training job, train_dist. It is the only handler that does not flood
// with the runner's shared networks (netcache.go): its trainer builds the
// network it steps, or decodes it from the checkpoint it resumes, on
// borrowed memory that goes back to the free list with the trainer.
//
// train_dist is synchronous data-parallel FFN training under the
// service Runner. The kernel (ffn.DistTrainer) is worker-count invariant by
// construction — every round draws one global batch from a round-derived RNG
// and averages gradients in global sample order — so the loss sequence is
// bit-identical at any width, under elastic add/remove between rounds, and
// across a checkpoint/restore boundary. Checkpoints are content-addressed
// CDS1 datasets: a resumed job names one by ref, and two runs that reach the
// same round with the same state collide into the same id. With
// holdout_steps it is also the evaluation unit a sweep fans out.

// checkpointRefs tracks the checkpoint datasets one train_dist run stores.
// Each track matches one pin taken atomically inside PutPinned (two rounds
// that reach the same state content-collide into one id with a count). Only
// ids this run created are ever deleted, and the Manager's Keep/pin
// deferral ensures a content collision with a user upload, a kept result,
// or a concurrent identical job never destroys data someone else wants.
type checkpointRefs struct {
	ds  *dataset.Manager
	ids map[string]*checkpointRef
}

type checkpointRef struct {
	count   int
	created bool
}

// track records a checkpoint id whose pin PutPinned already took (a
// separate Pin here would leave a window for a concurrent job's release to
// delete a content-colliding id first). Each track is matched by one Unpin
// in release.
func (c *checkpointRefs) track(id string, created bool) {
	e := c.ids[id]
	if e == nil {
		e = &checkpointRef{}
		c.ids[id] = e
	}
	e.count++
	// created sticks: a later idempotent re-put must not demote it.
	e.created = e.created || created
}

// release runs as the handler returns, after a succeeded run has
// Keep-promoted the checkpoints it reports: every claim is unpinned and
// checkpoints this run created are deleted — Delete no-ops on kept ids, so
// only a cancelled or failed run's checkpoints go.
func (c *checkpointRefs) release() {
	for id, e := range c.ids {
		if e.created {
			c.ds.Delete(id)
		}
		for ; e.count > 0; e.count-- {
			c.ds.Unpin(id)
		}
		delete(c.ids, id)
	}
}

// putCheckpoint stores the trainer's current state as a checkpoint dataset,
// pinned atomically against a concurrent delete; the tracker's release
// matches the pin and sweeps orphans if the job never completes.
func putCheckpoint(jc *JobContext, refs *checkpointRefs, t *ffn.DistTrainer) (string, error) {
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
	refs.track(info.ID, created)
	return info.ID, nil
}

// TrainDistHandler runs a data-parallel training job: fresh from a spec, or
// resumed from a checkpoint ref (the checkpoint carries model, optimizer
// momentum, sampling seed, batch geometry, and loss history — Rounds means
// total rounds including the resumed history). With HoldoutSteps the
// trailing slices are split off before the trainer is built, fresh or
// resumed, and the final model is scored on them; a held-out flood that does
// not complete fails the job rather than score its partial mask. A cancelled
// run reports the rounds actually completed; its checkpoints are released,
// and so is the final one of a run whose scoring failed — only a succeeded
// job keeps any, but an identical re-run re-creates the same content-
// addressed refs. The trainer's borrowed arrays, its network and momentum
// among them, go back to the free list however the handler returns —
// success, error, cancel, or a panic unwinding through it.
func TrainDistHandler(jc *JobContext) (any, error) {
	spec := jc.Request().TrainDist
	holdout := spec.HoldoutSteps
	if holdout > 0 {
		// api refused a holdout the request's own depth cannot hold; a ref's
		// depth is the store's, checked before anything is materialized.
		depth, err := sourceDepth(jc, &spec.Source)
		if err != nil {
			return nil, err
		}
		if holdout >= depth {
			return nil, fmt.Errorf("%w: train_dist.holdout_steps %d leaves nothing to train on in a %d-step source",
				api.ErrInvalid, holdout, depth)
		}
	}
	set, err := openTrainingSet(jc, &spec.Source, spec.Threshold)
	if err != nil {
		return nil, err
	}
	defer set.release()
	img, lbl := set.image, set.labels
	var testRaw, testImg, testLbl *ffn.Volume
	if holdout > 0 {
		split := set.raw.D - holdout
		_, _, testRaw, _ = ffn.Split(set.raw, set.labels, split)
		img, lbl, testImg, testLbl = ffn.Split(set.image, set.labels, split)
	}

	var t *ffn.DistTrainer
	res := api.TrainDistResult{}
	if spec.ResumeFrom != "" {
		jc.Progress(0, 1, "resume")
		ck, err := resolveCheckpoint(jc, spec.ResumeFrom)
		if err != nil {
			return nil, err
		}
		t, err = ffn.ResumeDistTrainer(ck, img, lbl, spec.Workers)
		if err != nil {
			// The trainer did not take the decoded model over.
			ck.Release()
			// Training sizes more from the network than a flood does: its
			// gradient matrix and per-lane scratch are held to the caps an
			// inline net's are, before the trainer borrows either.
			if errors.Is(err, ffn.ErrTooLarge) {
				err = fmt.Errorf("%w: train_dist.resume_from %s: %w", api.ErrInvalid, spec.ResumeFrom, err)
			}
			return nil, err
		}
		res.ResumedFrom = spec.ResumeFrom
	} else {
		lr, momentum := optimizerDefaults(spec.LR, spec.Momentum)
		t, err = ffn.FreshDistTrainer(spec.Net.Config(), spec.NetSeed, lr, momentum, img, lbl,
			spec.SampleSeed, spec.BatchPerRound, spec.Workers)
		if err != nil {
			return nil, err
		}
	}
	defer t.Release()
	res.StartRound = t.RoundIndex()
	res.GradBytes = t.Net.GradBytes()

	refs := &checkpointRefs{ds: jc.Datasets(), ids: make(map[string]*checkpointRef)}
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
	fillLosses(&res, t)
	if err != nil {
		return res, err
	}
	if holdout > 0 {
		if err := scoreHoldout(jc, t.Net, testRaw, testImg, testLbl, spec.Threshold, &res); err != nil {
			return res, err
		}
		res.HoldoutSteps = holdout
	}
	res.CheckpointRef = ref

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

// scoreHoldout floods the held-out slab with the trained network, seeded
// from the raw slab before normalization (the convention SegmentHandler uses
// for its seed threshold), and scores the mask against its labels. An
// aborted flood is an error, never a legitimate (if terrible) score.
func scoreHoldout(jc *JobContext, net *ffn.Network, raw, img, lbl *ffn.Volume, threshold float32, res *api.TrainDistResult) error {
	jc.Progress(0, 0, "validate")
	seeds := ffn.GridSeeds(raw, net.Config().FOV, [3]int{1, 4, 4}, threshold)
	mask, _, err := net.SegmentCtx(jc.Ctx(), img, seeds, 0, nil)
	defer ffn.ReleaseVolume(mask)
	if err != nil {
		return fmt.Errorf("held-out segmentation: %w", err)
	}
	res.Precision, res.Recall = ffn.PrecisionRecall(mask, lbl)
	if p, r := res.Precision, res.Recall; p+r > 0 {
		res.F1 = 2 * p * r / (p + r)
	}
	res.IoU = ffn.IoU(mask, lbl)
	return nil
}
