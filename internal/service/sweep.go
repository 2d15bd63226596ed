package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"chaseci/internal/api"
	"chaseci/internal/dataset"
)

// The sweep job: hyperparameter search as a job that submits jobs. Each
// candidate of the spec's grid (api.SweepSpec.Candidates) becomes a
// train_dist job with a held-out validation slab, submitted through the same
// admission-controlled fair queue as everything else — a sweep enjoys no
// back door around tenant bounds. While its children run, the sweep worker
// "helps": it drains its pool's pending queue like any pool worker — on a
// cluster runner, the queue of the node it runs on — so a pool whose workers
// all wait on jobs they submitted still runs what is queued on it. (A child
// no node has room for is parked, not queued: the waiting sweeps keep their
// claims.) With nothing to help it parks on a watch of the runner's anyJob
// list — woken when a child ends, and when any job is queued or bound after
// it began to wait (work conservation).

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
// worker's goroutine. False when the dispatcher has nothing to hand over:
// the worker's queue is empty.
func (jc *JobContext) helpOnce() bool {
	id, ok := jc.runner.disp.steal(jc.job)
	if !ok {
		return false
	}
	jc.runner.execute(id)
	return true
}

// sweep is one sweep job's bookkeeping: the holdout every child validates
// on, and the checkpoints its children left behind, which are the sweep's to
// drop when it ends — all but the winner's, and any the owner already held
// before it began (content addressing lets a child reproduce one byte for
// byte, and the user's copy is not the sweep's to delete).
type sweep struct {
	jc      *JobContext
	spec    *api.SweepSpec
	holdout int
	held    map[string]bool
	ckpts   []string
}

// candidate is one child to run: its parameters, with TrainSteps the
// rounds it trains to, and the checkpoint it resumes from ("" = fresh).
type candidate struct {
	params api.SweepParams
	resume string
}

// ownedCheckpoints lists the checkpoints owner holds a claim on.
func ownedCheckpoints(ds *dataset.Manager, owner string) map[string]bool {
	held := make(map[string]bool)
	for _, info := range ds.List() {
		if info.Kind == dataset.KindCheckpoint.String() && ds.IsOwner(info.ID, owner) {
			held[info.ID] = true
		}
	}
	return held
}

// release drops the owner's claim on every checkpoint the children left
// except keep (the winner's; "" for a sweep that failed) and the ones held
// before the sweep began.
func (s *sweep) release(keep string) {
	for _, ref := range s.ckpts {
		if ref != keep && !s.held[ref] {
			s.jc.Datasets().Drop(ref, s.jc.Owner())
		}
	}
}

// collect reads a succeeded child's result: its leaderboard row, and its
// checkpoint, which the sweep now owns.
func (s *sweep) collect(id string, params api.SweepParams) (api.SweepEntry, error) {
	raw, _, _ := s.jc.runner.Result(id)
	var tr api.TrainDistResult
	if err := json.Unmarshal(raw, &tr); err != nil {
		return api.SweepEntry{}, fmt.Errorf("service: sweep candidate %s result: %w", id, err)
	}
	s.ckpts = append(s.ckpts, tr.CheckpointRef)
	return api.SweepEntry{
		Params:        params,
		JobID:         id,
		TrainLoss:     tr.LossTail,
		Precision:     tr.Precision,
		Recall:        tr.Recall,
		F1:            tr.F1,
		IoU:           tr.IoU,
		CheckpointRef: tr.CheckpointRef,
	}, nil
}

// run executes one rung, its children named after name and its progress
// reported under stage: every candidate trains to its TrainSteps and is
// scored on the holdout slab. Parallelism is bounded by spec.Parallel (0
// defaults to 2, matching the api doc); the sweep worker helps drain the
// pool while it waits. If the rung fails, the children still in flight are
// cancelled and waited for, so a checkpoint one of them wrote on its way out
// is the sweep's to drop too.
func (s *sweep) run(name, stage string, cands []candidate, entries []api.SweepEntry) (err error) {
	jc := s.jc
	limit := s.spec.Parallel
	if limit <= 0 {
		limit = 2
	}
	w := jc.runner.watch(&jc.runner.anyJob)
	defer w.close()
	inflight := make(map[string]int)
	defer func() {
		if err == nil {
			return
		}
		for id := range inflight {
			jc.runner.Cancel(id)
		}
		for id, idx := range inflight {
			if st, _ := jc.runner.Await(context.Background(), id, nil); st.State == api.StateSucceeded {
				s.collect(id, cands[idx].params) // for its checkpoint: the row is moot
			}
		}
	}()
	next, done := 0, 0
	for done < len(cands) {
		// Helping can keep the worker busy with children indefinitely: a
		// cancelled sweep stops at the next one.
		if err := jc.ctx.Err(); err != nil {
			return err
		}
		for next < len(cands) && len(inflight) < limit {
			c := cands[next]
			st, err := jc.submitChild(w, &api.JobRequest{Kind: api.KindTrainDist, Name: fmt.Sprintf("%s/cand-%02d", name, next),
				TrainDist: s.spec.Child(c.params, s.holdout, c.resume)})
			if err != nil {
				return err
			}
			inflight[st.ID] = next
			next++
		}
		progressed := false
		for id, idx := range inflight {
			st, ok := jc.runner.Status(id)
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
			if entries[idx], err = s.collect(id, cands[idx].params); err != nil {
				return err
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

// SweepHandler fans a hyperparameter grid out over train_dist jobs and
// returns the leaderboard, whose head (and Best) names the winner's
// checkpoint. With EarlyStop, candidates first train a half-step rung;
// those at or below the median F1 stop there (their rung-1 scores stand,
// flagged EarlyStopped) and only the survivors resume from their rung
// checkpoint to the full budget — the successive-halving economics without
// a scheduler in the client, and no round trained twice.
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

	depth, err := sourceDepth(jc, &spec.Source)
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

	s := &sweep{jc: jc, spec: spec, holdout: holdout, held: ownedCheckpoints(jc.Datasets(), jc.Owner())}
	res := api.SweepResult{Candidates: len(cands)}
	defer func() { s.release(res.Best.CheckpointRef) }()
	entries := make([]api.SweepEntry, len(cands))
	if spec.EarlyStop && len(cands) > 1 {
		rung := make([]candidate, len(cands))
		for i, h := range cands {
			h.TrainSteps = (h.TrainSteps + 1) / 2
			rung[i] = candidate{params: h}
		}
		if err := s.run(name+"/rung1", "rung1", rung, entries); err != nil {
			return nil, err
		}
		f1s := make([]float64, len(entries))
		for i, e := range entries {
			f1s[i] = e.F1
		}
		sort.Float64s(f1s)
		median := f1s[(len(f1s)-1)/2]
		// A flat rung (nobody above the median) promotes everyone: stopping
		// all of them would leave the sweep with no full run.
		flat := f1s[len(f1s)-1] == median
		var survivors []candidate
		var idxs []int
		for i, e := range entries {
			if flat || e.F1 > median {
				survivors = append(survivors, candidate{params: cands[i], resume: e.CheckpointRef})
				idxs = append(idxs, i)
			} else {
				entries[i].EarlyStopped = true
				res.EarlyStopped++
			}
		}
		sub := make([]api.SweepEntry, len(survivors))
		if err := s.run(name+"/final", "final", survivors, sub); err != nil {
			return nil, err
		}
		for k, i := range idxs {
			entries[i] = sub[k]
		}
	} else {
		fresh := make([]candidate, len(cands))
		for i, h := range cands {
			fresh[i] = candidate{params: h}
		}
		if err := s.run(name, "train", fresh, entries); err != nil {
			return nil, err
		}
	}

	sort.SliceStable(entries, func(i, j int) bool { return entries[i].Better(entries[j]) })
	// Only the winner's checkpoint outlives the sweep.
	for i := range entries[1:] {
		entries[1+i].CheckpointRef = ""
	}
	res.Leaderboard = entries
	res.Best = entries[0]
	return res, nil
}
