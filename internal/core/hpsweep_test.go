package core

import (
	"testing"

	"chaseci/internal/ffn"
)

func TestHyperparameterSweepFindsBest(t *testing.T) {
	eco := BuildNautilus(DefaultNautilus())
	cfg := DefaultSweep()
	res, err := eco.RunHyperparameterSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != len(cfg.Candidates) {
		t.Fatalf("results = %d, want %d", len(res.Results), len(cfg.Candidates))
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
