package core

import (
	"fmt"
	"testing"

	"chaseci/internal/api"
	"chaseci/internal/ffn"
	"chaseci/internal/merra"
	"chaseci/internal/queue"
	"chaseci/internal/service"
)

// sweepBoard is the board of sweepJob's grid in candidate order, recorded
// when each candidate was a train job and held bit for bit since candidates
// are train_dist jobs: the same trainer on the same seeds.
var sweepBoard = []api.SweepEntry{
	{Params: api.SweepParams{LR: 0.01, Momentum: 0.9, Features: 6, Modules: 1, TrainSteps: 200},
		TrainLoss: 0.06503269220487183, Precision: 0.8105263157894737, Recall: 0.8279569892473119, F1: 0.8191489361702128, IoU: 0.6936936936936937},
	{Params: api.SweepParams{LR: 0.01, Momentum: 0.9, Features: 6, Modules: 2, TrainSteps: 200},
		TrainLoss: 0.1145586279844532, Precision: 0.8301158301158301, Recall: 0.7706093189964157, F1: 0.7992565055762081, IoU: 0.6656346749226006},
	{Params: api.SweepParams{LR: 0.03, Momentum: 0.9, Features: 6, Modules: 1, TrainSteps: 200},
		TrainLoss: 0.05902551655539383, Precision: 0.8321167883211679, Recall: 0.8172043010752689, F1: 0.8245931283905967, IoU: 0.7015384615384616},
	{Params: api.SweepParams{LR: 0.03, Momentum: 0.9, Features: 6, Modules: 2, TrainSteps: 200},
		TrainLoss: 0.12939281910739547, Precision: 0.903954802259887, Recall: 0.5734767025089605, F1: 0.7017543859649122, IoU: 0.5405405405405406},
}

// defaultSweepScene is the case-study scene with room for a 6/3 train/test
// split.
func defaultSweepScene() *RealComputeConfig {
	rc := DefaultRealCompute()
	rc.TimeSteps = 9
	return rc
}

// sweepJob is the sweep whose board sweepBoard records: learning rate x
// module depth over the sweep scene, labelled at its quantile, with
// parallel child jobs in flight.
func sweepJob(parallel int) *api.JobRequest {
	rc := defaultSweepScene()
	src := sceneSource(rc)
	flat := merra.Field2D{NLon: len(src.Data), NLat: 1, Data: src.Data}
	return &api.JobRequest{Kind: api.KindSweep, Name: "hp-sweep", Sweep: &api.SweepSpec{
		Source:        src,
		Threshold:     flat.Quantile(rc.Quantile),
		TrainFraction: 0.67,
		LRs:           []float32{0.01, 0.03},
		Momentums:     []float32{0.9},
		Features:      []int{6},
		Modules:       []int{1, 2},
		TrainSteps:    []int{200},
		Parallel:      parallel,
		Seed:          5,
	}}
}

// TestHyperparameterSweepFindsBest runs sweepJob as a sweep job and holds
// its leaderboard to sweepBoard row for row, whatever the runner's worker
// count and the sweep's parallelism.
func TestHyperparameterSweepFindsBest(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for _, parallel := range []int{1, 4} {
			t.Run(fmt.Sprintf("workers=%d/parallel=%d", workers, parallel), func(t *testing.T) {
				runner := service.NewRunnerConfigured(service.DefaultRegistry(), queue.NewStore(), service.RunnerConfig{Workers: workers})
				defer runner.Close()
				var res api.SweepResult
				if err := runJob(runner, sweepJob(parallel), &res); err != nil {
					t.Fatal(err)
				}
				checkSweepBoard(t, &res)
			})
		}
	}
}

func checkSweepBoard(t *testing.T, res *api.SweepResult) {
	t.Helper()
	if res.Candidates != len(sweepBoard) || len(res.Leaderboard) != len(sweepBoard) {
		t.Fatalf("candidates = %d, rows = %d, want %d", res.Candidates, len(res.Leaderboard), len(sweepBoard))
	}
	rows := make(map[api.SweepParams]api.SweepEntry)
	for _, e := range sweepBoard {
		rows[e.Params] = e
	}
	for _, got := range res.Leaderboard {
		got.JobID, got.CheckpointRef = "", ""
		want, ok := rows[got.Params]
		if !ok {
			t.Fatalf("leaderboard row %+v is not a sweepBoard candidate, or repeats one", got.Params)
		}
		delete(rows, got.Params)
		if got != want {
			t.Errorf("row %+v\nwant %+v", got, want)
		}
	}
	best := res.Best
	if best.CheckpointRef == "" {
		t.Error("the winner names no checkpoint")
	}
	best.JobID, best.CheckpointRef = "", ""
	if best != sweepBoard[2] {
		t.Errorf("best = %+v, want %+v", best, sweepBoard[2])
	}
	// The leaderboard orders: no two candidates tie on F1, and the winner
	// segments (measured 0.70/0.80/0.82/0.82, best 0.82).
	for i, a := range res.Leaderboard {
		for _, b := range res.Leaderboard[i+1:] {
			if a.F1 == b.F1 {
				t.Fatalf("candidates %+v and %+v tie at F1 %v: the sweep cannot order them", a.Params, b.Params, a.F1)
			}
		}
	}
	if res.Best.F1 < 0.75 {
		t.Fatalf("best F1 = %v, want >= 0.75 (validation must find a working model)", res.Best.F1)
	}
}

// sweepVolumes is the sweep scene as an image and an (empty) label volume of
// its shape — what the split tests cut.
func sweepVolumes() (img, lbl *ffn.Volume) {
	src := sceneSource(defaultSweepScene())
	return &ffn.Volume{D: src.D, H: src.H, W: src.W, Data: src.Data}, ffn.NewVolume(src.D, src.H, src.W)
}

func TestSplitSeparatesTrainAndTest(t *testing.T) {
	img, lbl := sweepVolumes()
	trImg, trLbl, teImg, teLbl := ffn.Split(img, lbl, 6)
	if trImg.D != 6 || teImg.D != img.D-6 {
		t.Fatalf("split depths = %d/%d", trImg.D, teImg.D)
	}
	if trLbl.D != 6 || teLbl.D != lbl.D-6 {
		t.Fatalf("label depths = %d/%d", trLbl.D, teLbl.D)
	}
	// The two views must not overlap: mutate train, test unchanged.
	trImg.Data[0] = 999
	if teImg.Data[0] == 999 {
		t.Fatal("train and test views share the same leading voxel")
	}
}

func TestSplitPanicsOnDegenerate(t *testing.T) {
	img, lbl := sweepVolumes()
	defer func() {
		if recover() == nil {
			t.Fatal("degenerate split did not panic")
		}
	}()
	ffn.Split(img, lbl, img.D)
}
