package core

import (
	"errors"
	"fmt"
	"time"

	"chaseci/internal/api"
	"chaseci/internal/cluster"
	"chaseci/internal/ffn"
	"chaseci/internal/gpusim"
	"chaseci/internal/merra"
	"chaseci/internal/queue"
	"chaseci/internal/service"
)

// DistTrainConfig drives the Section III-E2 extension as running code: a
// Kubernetes ReplicaSet of TensorFlow-style training workers discovered
// through a Service. Since PR 10 the actual data-parallel SGD is the
// chased/v1 train_dist job kind — this entry point is a thin wrapper that
// submits one such job to an in-process runner and keeps the virtual-time
// ecosystem (pod topology, GPU compute time, WAN ring all-reduce traffic)
// as the surrounding test harness.
type DistTrainConfig struct {
	Namespace string
	Workers   int
	Rounds    int // synchronous update rounds
	// BatchPerWorker is FOV examples per worker per round.
	BatchPerWorker int
	GPU            gpusim.Model
	// VoxelsPerRound is the modeled GPU work per worker per round, used for
	// virtual compute time.
	VoxelsPerRound float64
	// Scene sizes the real training data.
	Scene *RealComputeConfig
	// LR / Momentum are the optimizer settings.
	LR, Momentum float32
	Seed         uint64
}

// DefaultDistTrain returns a 4-worker setup at experiment scale.
func DefaultDistTrainConfig() DistTrainConfig {
	return DistTrainConfig{
		Namespace:      "dist-train",
		Workers:        4,
		Rounds:         60,
		BatchPerWorker: 4,
		GPU:            gpusim.GTX1080Ti(),
		VoxelsPerRound: 5e5,
		Scene:          DefaultRealCompute(),
		LR:             0.03,
		Momentum:       0.9,
		Seed:           7,
	}
}

// DistTrainResult reports one distributed-training run.
type DistTrainResult struct {
	Workers     int
	Losses      []float64 // mean loss per round across workers
	VirtualTime time.Duration
	// CommBytes is the total gradient traffic moved over the WAN.
	CommBytes float64
	// Endpoints are the worker pod names the Service resolved.
	Endpoints []string
}

// FinalLoss returns the mean of the last fifth of the loss curve.
func (r *DistTrainResult) FinalLoss() float64 { return ffn.MeanTail(r.Losses, 0.2) }

// RunDistributedTraining executes the extension: it spawns the ReplicaSet
// and Service on the ecosystem, submits the training itself as one
// train_dist job (real gradients, worker-count-invariant losses), then
// replays the per-round compute and ring all-reduce cost on the virtual
// clock.
func (e *Ecosystem) RunDistributedTraining(cfg DistTrainConfig) (*DistTrainResult, error) {
	if cfg.Workers <= 0 || cfg.Rounds <= 0 {
		return nil, errors.New("core: Workers and Rounds must be positive")
	}
	if cfg.Scene == nil {
		cfg.Scene = DefaultRealCompute()
	}
	if cfg.BatchPerWorker <= 0 {
		cfg.BatchPerWorker = 4
	}
	if _, err := e.Cluster.CreateNamespace(cfg.Namespace, nil); err != nil && err != cluster.ErrDuplicate {
		return nil, err
	}

	// ReplicaSet + Service: the Kubernetes topology §III-E2 describes.
	rs, err := e.Cluster.CreateReplicaSet(cluster.ReplicaSetSpec{
		Name: "tf-train", Namespace: cfg.Namespace, Replicas: cfg.Workers,
		Template: cluster.PodTemplate{
			Requests: cluster.Resources{CPU: 2, Memory: 8e9, GPUs: 1},
			Labels:   map[string]string{"app": "tf-train"},
			Run:      func(pc *cluster.PodCtx) {}, // long-running worker
		},
	})
	if err != nil {
		return nil, err
	}
	svc := e.Cluster.CreateService("tf-train", cfg.Namespace, map[string]string{"app": "tf-train"})
	e.Clock.RunFor(time.Second) // let the scheduler bind the replicas
	eps := svc.Endpoints()
	if len(eps) != cfg.Workers {
		rs.Delete()
		return nil, fmt.Errorf("core: service resolved %d endpoints, want %d", len(eps), cfg.Workers)
	}

	res := &DistTrainResult{Workers: cfg.Workers}
	for _, p := range eps {
		res.Endpoints = append(res.Endpoints, p.Spec.Name)
	}

	// One training code path: the train_dist job kind does the real SGD.
	src, th := sceneSource(cfg.Scene)
	runner := service.NewRunnerConfigured(service.DefaultRegistry(), queue.NewStore(), service.RunnerConfig{Workers: 1})
	defer runner.Close()
	var tr api.TrainDistResult
	err = runJob(runner, &api.JobRequest{
		Kind: api.KindTrainDist,
		Name: "tf-train",
		TrainDist: &api.TrainDistSpec{
			Source:        src,
			Threshold:     th,
			Workers:       cfg.Workers,
			Rounds:        cfg.Rounds,
			BatchPerRound: cfg.Workers * cfg.BatchPerWorker,
			LR:            cfg.LR,
			Momentum:      cfg.Momentum,
			Net:           caseStudyNet(6, 0),
			NetSeed:       cfg.Seed,
			SampleSeed:    cfg.Seed,
		},
	}, &tr)
	if err != nil {
		rs.Delete()
		return nil, err
	}
	res.Losses = tr.Losses

	// Replay the run on the virtual clock: per round, parallel GPU compute
	// plus the ring all-reduce over the WAN between the worker pods' sites.
	start := e.Clock.Now()
	for round := 0; round < len(tr.Losses); round++ {
		e.Clock.RunFor(cfg.GPU.TrainTime(cfg.VoxelsPerRound))
		if cfg.Workers > 1 {
			res.CommBytes += run2ringAllReduce(e, eps, tr.GradBytes)
		}
	}
	res.VirtualTime = e.Clock.Now() - start
	rs.Delete()
	e.Clock.RunFor(time.Second)
	return res, nil
}

// run2ringAllReduce moves one ring all-reduce's traffic between consecutive
// endpoints' sites in virtual time and returns the bytes moved.
func run2ringAllReduce(e *Ecosystem, eps []*cluster.Pod, gradBytes float64) float64 {
	// Ring all-reduce: each worker sends 2*(g-1)/g of the gradient size per
	// phase pair; model it as simultaneous neighbor transfers.
	g := len(eps)
	per := 2 * float64(g-1) / float64(g) * gradBytes
	total := 0.0
	pending := 0
	for i, p := range eps {
		next := eps[(i+1)%g]
		a := e.Cluster.Node(p.Node)
		b := e.Cluster.Node(next.Node)
		if a == nil || b == nil {
			continue
		}
		pending++
		total += per
		e.Net.Transfer(a.Site, b.Site, per, func() { pending-- })
	}
	e.Clock.RunWhile(func() bool { return pending > 0 })
	return total
}

// sceneSource renders a RealComputeConfig as an inline chased/v1 volume
// source plus the quantile threshold that binarizes it — the raw form the
// training job kinds consume (they threshold and normalize themselves).
func sceneSource(rc *RealComputeConfig) (api.VolumeSource, float32) {
	gen := merra.NewGenerator(rc.Grid, rc.Seed)
	levels := merra.PressureLevels(rc.Grid.NLev)
	vol := merra.IVTVolume(gen, levels, 20, rc.TimeSteps)
	flat := merra.Field2D{NLon: len(vol.Data), NLat: 1, Data: vol.Data}
	th := flat.Quantile(rc.Quantile)
	return api.VolumeSource{
		D: rc.TimeSteps, H: rc.Grid.NLat, W: rc.Grid.NLon,
		Data: append([]float32(nil), vol.Data...),
	}, th
}
