package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"

	"chaseci/internal/api"
	"chaseci/internal/dataset"
)

// The sweep job: hyperparameter search as a job that runs jobs. Each
// candidate of the spec's grid (api.SweepSpec.Candidates) becomes a
// train_dist job with a held-out validation slab. A child is a job like any
// other — an id, a status, a result and a leaderboard row, registered
// through Submit's own checks — but it is not dispatched: the sweep runs it
// in one of its own lanes, up to Parallel at once, under the sweep's own
// pool worker and, on a cluster runner, the sweep's node claim. So a sweep
// never waits on a queue or a placement its own claim may be blocking, and
// it holds one pool worker however many children it runs.

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
// checkpoint, which the sweep now owns. Lanes call it concurrently, under
// the caller's lock.
func (s *sweep) collect(j *job, params api.SweepParams) (api.SweepEntry, error) {
	raw, _ := s.jc.runner.resultOf(j)
	var tr api.TrainDistResult
	if err := json.Unmarshal(raw, &tr); err != nil {
		return api.SweepEntry{}, fmt.Errorf("service: sweep candidate %s result: %w", j.id, err)
	}
	s.ckpts = append(s.ckpts, tr.CheckpointRef)
	return api.SweepEntry{
		Params:        params,
		JobID:         j.id,
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
// scored on the holdout slab. Children are registered in candidate order and
// each runs in a lane of its own goroutine, at most spec.Parallel at once (0
// defaults to 2, matching the api doc). The first child that does not
// succeed — or the sweep's own cancellation, or its node's drain — cancels
// the other lanes, and run returns only once every lane has, so a checkpoint
// a child wrote on its way out is the sweep's to drop too.
func (s *sweep) run(name, stage string, cands []candidate, entries []api.SweepEntry) error {
	jc := s.jc
	limit := s.spec.Parallel
	if limit <= 0 {
		limit = 2
	}
	ctx, cancel := context.WithCancel(jc.ctx)
	defer cancel()
	lanes := make(chan struct{}, limit)
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex // guards failed, done, entries and s.ckpts
		failed error
		done   int
	)
	fail := func(err error) {
		if failed == nil {
			failed = err
			cancel()
		}
	}
	for i, c := range cands {
		select {
		case lanes <- struct{}{}:
		case <-ctx.Done():
		}
		if ctx.Err() != nil {
			break
		}
		child, _, err := jc.runner.register(&api.JobRequest{Kind: api.KindTrainDist, Name: fmt.Sprintf("%s/cand-%02d", name, i),
			TrainDist: s.spec.Child(c.params, s.holdout, c.resume)}, jc.Owner(), jc.job)
		if err != nil {
			mu.Lock()
			fail(err)
			mu.Unlock()
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-lanes }()
			jc.runner.execute(ctx, child.id)
			st := jc.runner.statusOf(child)
			mu.Lock()
			defer mu.Unlock()
			if st.State != api.StateSucceeded {
				fail(fmt.Errorf("service: sweep candidate %s (%s): %s", child.id, st.Name, st.Error))
				return
			}
			entry, err := s.collect(child, c.params) // for its checkpoint, even when the row is moot
			if err != nil {
				fail(err)
				return
			}
			entries[i] = entry
			done++
			jc.Progress(int64(done), int64(len(cands)), fmt.Sprintf("%s %d/%d", stage, done, len(cands)))
		}()
	}
	wg.Wait()
	if err := jc.ctx.Err(); err != nil {
		return err
	}
	return failed
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
