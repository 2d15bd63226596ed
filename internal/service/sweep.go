package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"chaseci/internal/api"
)

// The sweep job: hyperparameter search as a job that submits jobs. Each
// candidate of the spec's grid (api.SweepSpec.Candidates) becomes a train
// job with a held-out validation slab, submitted through the same
// admission-controlled fair queue as everything else — a sweep enjoys no
// back door around tenant bounds. While its children run, the sweep worker "helps": it drains the
// pending queue like any pool worker, so a single-worker runner cannot
// deadlock on a job that is waiting for jobs. With nothing to help it parks
// on a watch of the runner's anyJob list — woken when a child ends, and
// when any job is queued after it began to wait (work conservation).

// submitChild submits a child job under the parent's identity. When
// admission sheds the submit the parent helps the pool instead of failing,
// and with nothing to help waits on w (the caller's watch of the runner's
// anyJob list) for a job to leave the queue.
func (jc *JobContext) submitChild(w *watch, req *api.JobRequest) (api.JobStatus, error) {
	for {
		st, err := jc.runner.Submit(req, jc.Owner())
		if err == nil || !errors.Is(err, ErrOverloaded) {
			return st, err
		}
		if !jc.helpOnce() {
			if err := w.wait(jc.ctx, nil); err != nil {
				return api.JobStatus{}, err
			}
		}
	}
}

// helpOnce pops one pending job and executes it inline on the calling
// worker's goroutine. False when the dispatcher has nothing to hand over
// (an empty queue, or a cluster runner, whose node pools carry their own).
func (jc *JobContext) helpOnce() bool {
	id, ok := jc.runner.disp.steal()
	if !ok {
		return false
	}
	jc.runner.execute(id)
	return true
}

// sweepDepth reports the time depth of the sweep's source volume without
// materializing it.
func sweepDepth(jc *JobContext, src *api.VolumeSource) (int, error) {
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

// sweepChild builds candidate i's train job. The network seed is shared
// across candidates (so architectures differ only where the grid says they
// do) and the sampling seed is derived from it the way core's queue-driven
// sweep derives it (seed ^ 0xabcd).
func sweepChild(spec *api.SweepSpec, name string, i int, h api.SweepParams, steps, holdout int) *api.JobRequest {
	return &api.JobRequest{
		Kind: api.KindTrain,
		Name: fmt.Sprintf("%s/cand-%02d", name, i),
		Train: &api.TrainSpec{
			Source:       spec.Source,
			Threshold:    spec.Threshold,
			Steps:        steps,
			LR:           h.LR,
			Momentum:     h.Momentum,
			NetSeed:      spec.Seed,
			SampleSeed:   spec.Seed ^ 0xabcd,
			HoldoutSteps: holdout,
			Net: &api.NetConfig{
				FOV:      [3]int{3, 7, 7},
				Features: h.Features,
				Modules:  h.Modules,
				MoveStep: [3]int{1, 2, 2},
			},
		},
	}
}

// runCandidates executes one rung: every candidate trains for its given
// step count and is scored on the holdout slab. Parallelism is bounded by
// spec.Parallel (0 defaults to 2, matching the api doc); the sweep worker
// helps drain the pool while it waits.
func runCandidates(jc *JobContext, spec *api.SweepSpec, name string, cands []api.SweepParams, steps []int, holdout int, stage string, entries []api.SweepEntry) (err error) {
	limit := spec.Parallel
	if limit <= 0 {
		limit = 2
	}
	w := jc.runner.watch(&jc.runner.anyJob)
	defer w.close()
	inflight := make(map[string]int)
	defer func() {
		if err != nil {
			for id := range inflight {
				jc.runner.Cancel(id)
			}
		}
	}()
	next, done := 0, 0
	for done < len(cands) {
		for next < len(cands) && len(inflight) < limit {
			st, err := jc.submitChild(w, sweepChild(spec, name, next, cands[next], steps[next], holdout))
			if err != nil {
				return err
			}
			inflight[st.ID] = next
			next++
		}
		progressed := false
		for id, idx := range inflight {
			raw, st, ok := jc.runner.Result(id)
			if !ok {
				return fmt.Errorf("service: sweep candidate %s vanished", id)
			}
			if !st.State.Terminal() {
				continue
			}
			delete(inflight, id)
			done++
			progressed = true
			if st.State != api.StateSucceeded {
				return fmt.Errorf("service: sweep candidate %s (%s): %s", id, st.Name, st.Error)
			}
			var tr api.TrainResult
			if err := json.Unmarshal(raw, &tr); err != nil {
				return fmt.Errorf("service: sweep candidate %s result: %w", id, err)
			}
			params := cands[idx]
			params.TrainSteps = steps[idx]
			entries[idx] = api.SweepEntry{
				Params:    params,
				JobID:     id,
				TrainLoss: tr.LossTail,
				Precision: tr.Precision,
				Recall:    tr.Recall,
				F1:        tr.F1,
				IoU:       tr.IoU,
			}
			jc.Progress(int64(done), int64(len(cands)), fmt.Sprintf("%s %d/%d", stage, done, len(cands)))
		}
		if !progressed && !jc.helpOnce() {
			if err := w.wait(jc.ctx, nil); err != nil {
				return err
			}
		}
	}
	return nil
}

// SweepHandler fans a hyperparameter grid out over train jobs and returns
// the leaderboard. With EarlyStop, candidates first train a half-step rung;
// those at or below the median F1 stop there (their rung-1 scores stand,
// flagged EarlyStopped) and only the survivors train the full budget — the
// successive-halving economics without a scheduler in the client.
func SweepHandler(jc *JobContext) (any, error) {
	if jc.runner == nil {
		// A JobContext built by a test harness: nothing to submit children to.
		return nil, errors.New("service: job context has no runner to submit child jobs")
	}
	spec := jc.Request().Sweep
	name := jc.Request().Name
	if name == "" {
		name = "sweep"
	}
	cands := spec.Candidates()

	depth, err := sweepDepth(jc, &spec.Source)
	if err != nil {
		return nil, err
	}
	frac := spec.TrainFraction
	if frac == 0 {
		frac = 0.5
	}
	trainSteps := int(frac * float64(depth))
	if trainSteps < 1 {
		trainSteps = 1
	}
	holdout := depth - trainSteps
	if holdout < 1 {
		return nil, fmt.Errorf("%w: train fraction %g leaves no holdout in a %d-step volume",
			api.ErrInvalid, frac, depth)
	}

	res := api.SweepResult{Candidates: len(cands)}
	entries := make([]api.SweepEntry, len(cands))
	full := make([]int, len(cands))
	for i, h := range cands {
		full[i] = h.TrainSteps
	}

	survivors := cands
	steps := full
	if spec.EarlyStop && len(cands) > 1 {
		rung := make([]int, len(cands))
		for i, s := range full {
			rung[i] = (s + 1) / 2
		}
		if err := runCandidates(jc, spec, name+"/rung1", cands, rung, holdout, "rung1", entries); err != nil {
			return nil, err
		}
		f1s := make([]float64, len(entries))
		for i, e := range entries {
			f1s[i] = e.F1
		}
		sort.Float64s(f1s)
		median := f1s[(len(f1s)-1)/2]
		survivors, steps = nil, nil
		idxs := make([]int, 0, len(cands))
		for i, e := range entries {
			if e.F1 > median {
				survivors = append(survivors, cands[i])
				steps = append(steps, full[i])
				idxs = append(idxs, i)
			} else {
				entries[i].EarlyStopped = true
				res.EarlyStopped++
			}
		}
		if len(survivors) == 0 {
			// A flat rung (every candidate at the median) promotes everyone:
			// stopping all of them would leave the sweep with no full run.
			survivors, steps, idxs = cands, full, idxs[:0]
			for i := range cands {
				idxs = append(idxs, i)
				entries[i].EarlyStopped = false
			}
			res.EarlyStopped = 0
		}
		sub := make([]api.SweepEntry, len(survivors))
		if err := runCandidates(jc, spec, name+"/final", survivors, steps, holdout, "final", sub); err != nil {
			return nil, err
		}
		for k, i := range idxs {
			entries[i] = sub[k]
		}
	} else {
		if err := runCandidates(jc, spec, name, survivors, steps, holdout, "train", entries); err != nil {
			return nil, err
		}
	}

	sort.SliceStable(entries, func(i, j int) bool { return entries[i].Better(entries[j]) })
	res.Leaderboard = entries
	res.Best = entries[0]
	return res, nil
}
