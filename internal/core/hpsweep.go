package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"chaseci/internal/api"
	"chaseci/internal/cluster"
	"chaseci/internal/gpusim"
	"chaseci/internal/queue"
	"chaseci/internal/service"
)

// SweepConfig drives the Section III-E3 extension: a Redis queue of
// hyperparameter sets consumed by a pool of single-GPU validation pods.
// Each popped candidate is evaluated by the chased/v1 train_dist job the
// sweep job kind fans out for it (api.SweepSpec.Child: train on the leading
// slab, score precision/recall/F1/IoU on the rest), so this entry point
// keeps only the queue mechanics, pod topology, and virtual GPU time as the
// surrounding test harness.
type SweepConfig struct {
	Namespace string
	// Candidates is the parameter grid to evaluate.
	Candidates []api.SweepParams
	// Workers is the validation pod count.
	Workers int
	// Scene sizes the real data; TrainFraction of its time steps train, the
	// remainder validate.
	Scene         *RealComputeConfig
	TrainFraction float64
	GPU           gpusim.Model
	Seed          uint64
}

// DefaultSweep returns a small grid at experiment scale. Module depth is a
// grid axis alongside the learning rate, so the sweep compares shallow and
// default-depth networks instead of hardcoding Modules: 2.
func DefaultSweep() SweepConfig {
	return SweepConfig{
		Namespace: "hp-sweep",
		Candidates: (&api.SweepSpec{
			LRs:        []float32{0.01, 0.03},
			Momentums:  []float32{0.9},
			Features:   []int{6},
			Modules:    []int{1, 2},
			TrainSteps: []int{200},
		}).Candidates(),
		Workers:       4,
		Scene:         defaultSweepScene(),
		TrainFraction: 0.67,
		GPU:           gpusim.GTX1080Ti(),
		Seed:          5,
	}
}

func defaultSweepScene() *RealComputeConfig {
	rc := DefaultRealCompute()
	rc.TimeSteps = 9 // room for a 6/3 train/test split
	return rc
}

// SweepResult reports the sweep. An entry's JobID is empty: each candidate
// is scored by a job on a runner private to the sweep.
type SweepResult struct {
	Results     []api.SweepEntry
	Best        api.SweepEntry
	VirtualTime time.Duration
	PodsUsed    int
}

const sweepQueueKey = "hp-sweep:params"

// RunHyperparameterSweep executes the sweep on the cluster: candidates are
// queued, worker pods pop them and submit each as a holdout-scored
// train_dist job on an in-process runner, and write the JSON results to the
// object store; the best candidate by F1 wins.
func (e *Ecosystem) RunHyperparameterSweep(cfg SweepConfig) (*SweepResult, error) {
	if len(cfg.Candidates) == 0 {
		return nil, errors.New("core: no sweep candidates")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Scene == nil {
		cfg.Scene = defaultSweepScene()
	}
	if cfg.TrainFraction <= 0 || cfg.TrainFraction >= 1 {
		cfg.TrainFraction = 0.67
	}
	if cfg.GPU.TrainVoxelsPerSec == 0 {
		cfg.GPU = gpusim.GTX1080Ti()
	}
	if _, err := e.Cluster.CreateNamespace(cfg.Namespace, nil); err != nil && err != cluster.ErrDuplicate {
		return nil, err
	}

	// Build the scene once; every pod validates on the same held-out steps,
	// as §III-E3 requires (the train_dist job splits off the trailing slab).
	src, th := sceneSource(cfg.Scene)
	trainSteps := int(float64(src.D) * cfg.TrainFraction)
	if trainSteps < 1 {
		trainSteps = 1
	}
	if trainSteps >= src.D {
		trainSteps = src.D - 1
	}
	holdout := src.D - trainSteps
	trainVoxels := trainSteps * src.H * src.W

	// Queue the parameter sets, one JSON message each.
	for _, h := range cfg.Candidates {
		msg, err := json.Marshal(h)
		if err != nil {
			return nil, err
		}
		e.Queue.LPush(sweepQueueKey, string(msg))
	}

	runner := service.NewRunnerConfigured(service.DefaultRegistry(), queue.NewStore(), service.RunnerConfig{Workers: cfg.Workers})
	defer runner.Close()

	mount := e.Storage.MountBucket("hp-sweep")
	start := e.Clock.Now()
	var evalErr error

	evaluate := func(h api.SweepParams) (api.SweepEntry, error) {
		var tr api.TrainDistResult
		err := runJob(runner, &api.JobRequest{Kind: api.KindTrainDist, Name: "validate",
			TrainDist: (&api.SweepSpec{Source: src, Threshold: th, Seed: cfg.Seed}).Child(h, holdout, "")}, &tr)
		if err != nil {
			return api.SweepEntry{}, err
		}
		// The checkpoint stays on the private runner: CheckpointRef is left
		// empty, so the stored results and queue messages keep their shape.
		return api.SweepEntry{
			Params:    h,
			TrainLoss: tr.LossTail,
			Precision: tr.Precision,
			Recall:    tr.Recall,
			F1:        tr.F1,
			IoU:       tr.IoU,
		}, nil
	}

	job, err := e.Cluster.CreateJob(cluster.JobSpec{
		Name: "validate", Namespace: cfg.Namespace,
		Parallelism: cfg.Workers,
		Template: cluster.PodTemplate{
			Requests: cluster.Resources{CPU: 2, Memory: 8e9, GPUs: 1},
			Labels:   map[string]string{"app": "hp-sweep"},
			Run: func(pc *cluster.PodCtx) {
				var next func()
				next = func() {
					if !pc.Alive() {
						return
					}
					msg, ok := e.Queue.RPop(sweepQueueKey)
					if !ok {
						pc.Succeed()
						return
					}
					var h api.SweepParams
					if err := json.Unmarshal([]byte(msg), &h); err != nil {
						evalErr = fmt.Errorf("core: bad hyperparameter message: %w", err)
						pc.Fail(evalErr.Error())
						return
					}
					// Real evaluation through the job kind; GPU time modeled
					// from the training volume x steps actually run.
					res, err := evaluate(h)
					if err != nil {
						evalErr = err
						pc.Fail(err.Error())
						return
					}
					out, err := json.Marshal(res)
					if err != nil {
						evalErr = err
						pc.Fail(err.Error())
						return
					}
					key := fmt.Sprintf("results/%s.json", msg)
					if err := mount.WriteFile(key, out); err != nil {
						evalErr = err
						pc.Fail(err.Error())
						return
					}
					voxels := float64(trainVoxels) * float64(h.TrainSteps) / 100
					pc.After(cfg.GPU.TrainTime(voxels), next)
				}
				next()
			},
		},
	})
	if err != nil {
		return nil, err
	}
	done := false
	job.OnComplete(func(ok bool) { done = true })
	e.Clock.RunWhile(func() bool { return !done })
	if job.Failed() {
		if evalErr != nil {
			return nil, evalErr
		}
		return nil, errors.New("core: sweep job failed")
	}

	// Collect results from the object store.
	res := &SweepResult{VirtualTime: e.Clock.Now() - start, PodsUsed: len(job.Pods())}
	for _, key := range mount.Glob("results/") {
		data, err := mount.ReadFile(key)
		if err != nil {
			return nil, err
		}
		var vr api.SweepEntry
		if err := json.Unmarshal(data, &vr); err != nil {
			return nil, err
		}
		res.Results = append(res.Results, vr)
	}
	if len(res.Results) != len(cfg.Candidates) {
		return nil, fmt.Errorf("core: sweep produced %d results for %d candidates",
			len(res.Results), len(cfg.Candidates))
	}
	res.Best = res.Results[0]
	for _, r := range res.Results[1:] {
		if r.Better(res.Best) {
			res.Best = r
		}
	}
	return res, nil
}
