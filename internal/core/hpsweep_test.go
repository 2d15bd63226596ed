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
	if res.Best.F1 <= 0 {
		t.Fatalf("best F1 = %v, want > 0 (validation must find a working model)", res.Best.F1)
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

func TestHyperparamsRoundTrip(t *testing.T) {
	h := ffn.Hyperparams{LR: 0.03, Momentum: 0.9, Features: 6, Modules: 2, TrainSteps: 300}
	back, err := ffn.DecodeHyperparams(h.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if back != h {
		t.Fatalf("round trip = %+v, want %+v", back, h)
	}
	if _, err := ffn.DecodeHyperparams("not json"); err == nil {
		t.Fatal("garbage message accepted")
	}
}

func TestGridCartesianProduct(t *testing.T) {
	g := ffn.Grid([]float32{0.01, 0.03}, []float32{0.8, 0.9}, []int{4}, []int{1, 2}, []int{100, 200, 300})
	if len(g) != 24 {
		t.Fatalf("grid size = %d, want 24", len(g))
	}
	// An empty modules axis sweeps the historical default depth of 2.
	g = ffn.Grid([]float32{0.01}, []float32{0.9}, []int{4}, nil, []int{100})
	if len(g) != 1 || g[0].Modules != 2 {
		t.Fatalf("default modules grid = %+v, want one candidate with Modules 2", g)
	}
}
