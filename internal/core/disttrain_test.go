package core

import (
	"testing"

	"chaseci/internal/ffn"
)

func TestDistributedTrainingConverges(t *testing.T) {
	eco := BuildNautilus(DefaultNautilus())
	cfg := DefaultDistTrainConfig()
	res, err := eco.RunDistributedTraining(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Losses) != cfg.Rounds {
		t.Fatalf("got %d loss rounds, want %d", len(res.Losses), cfg.Rounds)
	}
	head := ffn.MeanTail(res.Losses[:10], 1)
	tail := res.FinalLoss()
	if tail >= head {
		t.Fatalf("distributed training did not converge: %v -> %v", head, tail)
	}
	if len(res.Endpoints) != cfg.Workers {
		t.Fatalf("endpoints = %v, want %d workers", res.Endpoints, cfg.Workers)
	}
	if res.CommBytes <= 0 {
		t.Fatal("no all-reduce traffic recorded")
	}
	if res.VirtualTime <= 0 {
		t.Fatal("no virtual time elapsed")
	}
	// Workers' pods must be torn down afterwards.
	if got := eco.Cluster.PodsInPhase(cfg.Namespace, 1 /* PodRunning */); got != 0 {
		t.Fatalf("%d training pods still running after teardown", got)
	}
}

func TestDistributedTrainingSingleWorkerNoComm(t *testing.T) {
	eco := BuildNautilus(DefaultNautilus())
	cfg := DefaultDistTrainConfig()
	cfg.Workers = 1
	cfg.Rounds = 10
	res, err := eco.RunDistributedTraining(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.CommBytes != 0 {
		t.Fatalf("single worker moved %v comm bytes, want 0", res.CommBytes)
	}
}

func TestDistributedTrainingMoreWorkersLowerLossPerRound(t *testing.T) {
	// With a bigger effective batch (more workers), the loss after a fixed
	// number of rounds should be at least as good, and virtual time per
	// round should not grow with compute (it is parallel) beyond comm cost.
	run := func(workers int) *DistTrainResult {
		eco := BuildNautilus(DefaultNautilus())
		cfg := DefaultDistTrainConfig()
		cfg.Workers = workers
		cfg.Rounds = 40
		res, err := eco.RunDistributedTraining(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1 := run(1)
	r8 := run(8)
	// Same number of rounds: 8 workers see 8x the examples. Allow slack but
	// demand it not be dramatically worse.
	if r8.FinalLoss() > r1.FinalLoss()*1.5 {
		t.Fatalf("8-worker loss %v much worse than 1-worker %v", r8.FinalLoss(), r1.FinalLoss())
	}
	// Comm bytes scale with workers and rounds.
	if r8.CommBytes <= 0 {
		t.Fatal("8-worker run has no comm traffic")
	}
}

func TestDistributedTrainingValidation(t *testing.T) {
	eco := BuildNautilus(DefaultNautilus())
	cfg := DefaultDistTrainConfig()
	cfg.Workers = 0
	if _, err := eco.RunDistributedTraining(cfg); err == nil {
		t.Fatal("zero workers accepted")
	}
}
