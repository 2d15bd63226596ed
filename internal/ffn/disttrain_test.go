package ffn

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"chaseci/internal/tensor"
)

// distScene builds a labelled scene plus a fresh trainer at the given
// width; every trainer in a test shares seeds so loss curves are comparable
// bit for bit.
func distTrainer(t *testing.T, img, lbl *Volume, workers int) *DistTrainer {
	t.Helper()
	net, err := NewNetwork(smallConfig(), 42)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewDistTrainer(net, 0.05, 0.9, img, lbl, 77, 8, workers)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func runRounds(t *testing.T, tr *DistTrainer, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := tr.Round(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDistTrainerWorkerCountInvariance is the tentpole's core promise: the
// per-round loss sequence is bit-identical at any data-parallel width.
func TestDistTrainerWorkerCountInvariance(t *testing.T) {
	img, lbl := buildARScene(t, 6)
	base := distTrainer(t, img, lbl, 1)
	runRounds(t, base, 10)
	for _, w := range []int{2, 3, 4, 16} {
		tr := distTrainer(t, img, lbl, w)
		runRounds(t, tr, 10)
		for r, l := range tr.Losses() {
			if l != base.Losses()[r] {
				t.Fatalf("workers=%d round %d: loss %v != single-worker %v", w, r, l, base.Losses()[r])
			}
		}
	}
}

// TestDistTrainerElasticInvariance: adding and removing workers between
// rounds never changes the losses, only the modeled comm volume.
func TestDistTrainerElasticInvariance(t *testing.T) {
	img, lbl := buildARScene(t, 6)
	base := distTrainer(t, img, lbl, 1)
	runRounds(t, base, 9)

	tr := distTrainer(t, img, lbl, 2)
	for r := 0; r < 9; r++ {
		switch r {
		case 3:
			if err := tr.SetWorkers(4); err != nil {
				t.Fatal(err)
			}
		case 6:
			if err := tr.SetWorkers(1); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := tr.Round(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	for r, l := range tr.Losses() {
		if l != base.Losses()[r] {
			t.Fatalf("elastic round %d: loss %v != steady %v", r, l, base.Losses()[r])
		}
	}
	if tr.Workers() != 1 {
		t.Fatalf("final width = %d, want 1", tr.Workers())
	}
	if err := tr.SetWorkers(0); !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("SetWorkers(0) = %v, want ErrNoWorkers", err)
	}
}

// TestDistTrainerCommModel checks the ring all-reduce accounting: zero at
// width 1, 2*(W-1)*GradBytes across the ring otherwise.
func TestDistTrainerCommModel(t *testing.T) {
	img, lbl := buildARScene(t, 6)
	tr := distTrainer(t, img, lbl, 1)
	if got := tr.CommBytesPerRound(); got != 0 {
		t.Fatalf("1-worker comm = %v, want 0", got)
	}
	tr.SetWorkers(4)
	want := 2 * 3 * tr.Net.GradBytes()
	if got := tr.CommBytesPerRound(); got != want {
		t.Fatalf("4-worker comm = %v, want %v", got, want)
	}
}

// TestCheckpointRoundTrip: encode -> decode -> encode is the identity, and
// the decoded trainer state matches the original.
func TestCheckpointRoundTrip(t *testing.T) {
	img, lbl := buildARScene(t, 6)
	tr := distTrainer(t, img, lbl, 2)
	runRounds(t, tr, 4)

	raw := tr.CheckpointBytes()
	ck, err := DecodeCheckpoint(raw)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Round != 4 || ck.BatchPerRound != 8 || ck.SampleSeed != 77 || len(ck.Losses) != 4 {
		t.Fatalf("decoded header = round %d batch %d seed %d losses %d",
			ck.Round, ck.BatchPerRound, ck.SampleSeed, len(ck.Losses))
	}
	for i, l := range ck.Losses {
		if l != tr.Losses()[i] {
			t.Fatalf("loss[%d] = %v, want %v", i, l, tr.Losses()[i])
		}
	}
	if again := ck.EncodeBytes(); !bytes.Equal(raw, again) {
		t.Fatalf("re-encode differs: %d vs %d bytes", len(raw), len(again))
	}
}

func TestDecodeCheckpointRejectsGarbage(t *testing.T) {
	if _, err := DecodeCheckpoint([]byte("not a checkpoint")); err == nil {
		t.Fatal("garbage accepted")
	}
	img, lbl := buildARScene(t, 6)
	tr := distTrainer(t, img, lbl, 1)
	raw := tr.CheckpointBytes()
	if _, err := DecodeCheckpoint(raw[:len(raw)-3]); err == nil {
		t.Fatal("truncated checkpoint accepted")
	}
}

// TestDistTrainerResumeBitExact is the checkpoint -> restore -> continue
// acceptance check: a run interrupted at round 5 and resumed at a different
// width reproduces the uninterrupted loss curve exactly, and the snapshot
// does not disturb the trainer that took it.
func TestDistTrainerResumeBitExact(t *testing.T) {
	img, lbl := buildARScene(t, 6)
	base := distTrainer(t, img, lbl, 1)
	runRounds(t, base, 12)

	tr := distTrainer(t, img, lbl, 2)
	runRounds(t, tr, 5)
	ck, err := DecodeCheckpoint(tr.CheckpointBytes())
	if err != nil {
		t.Fatal(err)
	}
	// The snapshotted trainer keeps running: its curve must stay on the
	// baseline too (the checkpoint is a copy, not a handoff).
	runRounds(t, tr, 7)

	resumed, err := ResumeDistTrainer(ck, img, lbl, 4)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.RoundIndex() != 5 || len(resumed.Losses()) != 5 {
		t.Fatalf("resume starts at round %d with %d losses, want 5/5",
			resumed.RoundIndex(), len(resumed.Losses()))
	}
	runRounds(t, resumed, 7)

	for r, want := range base.Losses() {
		if tr.Losses()[r] != want {
			t.Fatalf("snapshotted trainer round %d: %v != %v", r, tr.Losses()[r], want)
		}
		if resumed.Losses()[r] != want {
			t.Fatalf("resumed trainer round %d: %v != %v", r, resumed.Losses()[r], want)
		}
	}
}

func TestDistTrainerRoundCancelled(t *testing.T) {
	img, lbl := buildARScene(t, 6)
	tr := distTrainer(t, img, lbl, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := tr.Round(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Round on cancelled ctx = %v, want context.Canceled", err)
	}
	if tr.RoundIndex() != 0 || len(tr.Losses()) != 0 {
		t.Fatalf("cancelled round mutated state: round %d, %d losses", tr.RoundIndex(), len(tr.Losses()))
	}
}

// TestEvaluateCtxPropagatesSegmentError is the regression for the silent
// error drop this PR fixes: a cancelled held-out segmentation must fail the
// candidate, never score its all-zero mask as a legitimate model.
func TestEvaluateCtxPropagatesSegmentError(t *testing.T) {
	img, lbl := buildARScene(t, 6)
	trImg, trLbl, teImg, teLbl := Split(img, lbl, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Zero train steps skip the (also cancellable) training loop, so the
	// first ctx check the evaluation hits is inside the segmentation.
	h := Hyperparams{LR: 0.03, Momentum: 0.9, Features: 4, Modules: 1, TrainSteps: 0}
	_, err := EvaluateCtx(ctx, h, trImg, trLbl, teImg, teLbl, 5)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("EvaluateCtx on cancelled ctx = %v, want context.Canceled", err)
	}
	// The untouched path still works end to end.
	h.TrainSteps = 30
	res, err := Evaluate(h, trImg, trLbl, teImg, teLbl, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Params != h || res.TrainLoss <= 0 {
		t.Fatalf("evaluation result = %+v", res)
	}
}

// TestAverageGradsMatchesSerialTrainStep: one worker, batch 1 —
// ComputeGrads + AverageGrads + ApplyGrads must equal TrainStep bit for bit.
func TestAverageGradsMatchesSerialTrainStep(t *testing.T) {
	mk := func() *Network {
		n, err := NewNetwork(smallConfig(), 5)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	a, b := mk(), mk()
	img, lbl := buildARScene(t, 6)
	fov := smallConfig().FOV
	fi := extractFOV(img, fov, 1, 8, 8)
	fl := extractFOV(lbl, fov, 1, 8, 8)

	lossA := a.TrainStep(tensor.NewSGD(0.03, 0.9), fi, fl)
	lossB, g := b.ComputeGrads(fi, fl)
	avg, err := AverageGrads([]*ParamGrads{g})
	if err != nil {
		t.Fatal(err)
	}
	b.ApplyGrads(tensor.NewSGD(0.03, 0.9), avg)
	if lossA != lossB {
		t.Fatalf("losses differ: %v vs %v", lossA, lossB)
	}
	// After identical updates, both predict identically.
	pa := a.Apply(fi, a.SeedPOM())
	pb := b.Apply(fi, b.SeedPOM())
	for i := range pa.Data {
		if pa.Data[i] != pb.Data[i] {
			t.Fatal("distributed single-worker update diverged from serial TrainStep")
		}
	}
}
