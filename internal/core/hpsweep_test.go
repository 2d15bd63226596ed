package core

import (
	"testing"

	"chaseci/internal/api"
	"chaseci/internal/ffn"
)

// sweepBoard is DefaultSweep's board in stored-result order, recorded when
// each candidate was a train job and held bit for bit since candidates are
// train_dist jobs: the same trainer on the same seeds.
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

func TestHyperparameterSweepFindsBest(t *testing.T) {
	eco := BuildNautilus(DefaultNautilus())
	cfg := DefaultSweep()
	res, err := eco.RunHyperparameterSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != len(sweepBoard) {
		t.Fatalf("results = %d, want %d", len(res.Results), len(sweepBoard))
	}
	for i, want := range sweepBoard {
		if res.Results[i] != want {
			t.Errorf("result %d = %+v\nwant %+v", i, res.Results[i], want)
		}
	}
	if res.Best != sweepBoard[2] {
		t.Errorf("best = %+v, want %+v", res.Best, sweepBoard[2])
	}
	for _, r := range res.Results {
		if !res.Best.Better(r) && res.Best != r {
			t.Fatalf("best %+v is not >= %+v", res.Best, r)
		}
	}
	// The leaderboard orders: no two candidates tie on F1, and the winner
	// segments (measured 0.70/0.80/0.82/0.82, best 0.82).
	for i, a := range res.Results {
		for _, b := range res.Results[i+1:] {
			if a.F1 == b.F1 {
				t.Fatalf("candidates %+v and %+v tie at F1 %v: the sweep cannot order them", a.Params, b.Params, a.F1)
			}
		}
	}
	if res.Best.F1 < 0.75 {
		t.Fatalf("best F1 = %v, want >= 0.75 (validation must find a working model)", res.Best.F1)
	}
	if res.VirtualTime <= 0 {
		t.Fatal("sweep consumed no virtual time")
	}
	// Held-out evaluation results stored in Ceph.
	if got := len(eco.Storage.MountBucket("hp-sweep").Glob("results/")); got != len(cfg.Candidates) {
		t.Fatalf("stored results = %d, want %d", got, len(cfg.Candidates))
	}
}

func TestHyperparameterSweepEmptyGrid(t *testing.T) {
	eco := BuildNautilus(DefaultNautilus())
	cfg := DefaultSweep()
	cfg.Candidates = nil
	if _, err := eco.RunHyperparameterSweep(cfg); err == nil {
		t.Fatal("empty grid accepted")
	}
}

// sweepVolumes is the sweep scene as an image and an (empty) label volume of
// its shape — what the split tests cut.
func sweepVolumes() (img, lbl *ffn.Volume) {
	src, _ := sceneSource(defaultSweepScene())
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
