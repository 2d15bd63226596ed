package ffn

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"chaseci/internal/parallel"
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
	if _, err := DecodeCheckpoint(raw[:len(raw)-3]); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("truncated velocity block: err = %v, want ErrBadCheckpoint", err)
	}
	// The 56-byte model header asking for 2^30 features, wrapped as a
	// checkpoint: refused from the lengths alone, before any allocation.
	hostile := binary.LittleEndian.AppendUint32(ckptMagic[:], uint32(modelHeaderLen))
	hostile = append(hostile, hugeModelHeader()...)
	var err error
	if got := allocatedBy(func() { _, err = DecodeCheckpoint(hostile) }); got > 4096 {
		t.Fatalf("DecodeCheckpoint allocated %d bytes for a %d-byte input", got, len(hostile))
	}
	if !errors.Is(err, ErrBadCheckpoint) || !errors.Is(err, ErrBadModel) {
		t.Fatalf("hostile model header: err = %v, want ErrBadCheckpoint wrapping ErrBadModel", err)
	}
	// A valid checkpoint whose Batch field alone is 2^31: resuming it would
	// size the batch x P gradient matrix from that field and die with
	// "runtime: out of memory", which no recover catches.
	if _, err := DecodeCheckpoint(withBatch(raw, 1<<31)); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("2^31 batch per round: err = %v, want ErrBadCheckpoint", err)
	}
	if _, err := DecodeCheckpoint(withBatch(raw, maxCheckpointBatch)); err != nil {
		t.Fatalf("batch per round at the bound: %v", err)
	}
}

// withBatch returns a copy of a serialized checkpoint with its Batch field
// (after LR, Momentum and SampleSeed in ckptState) overwritten.
func withBatch(raw []byte, batch uint32) []byte {
	out := append([]byte(nil), raw...)
	modelLen := binary.LittleEndian.Uint32(out[len(ckptMagic):])
	binary.LittleEndian.PutUint32(out[len(ckptMagic)+4+int(modelLen)+16:], batch)
	return out
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

// TestBatchOneRoundIsTrainStep: a batch-1 Round on center c leaves the same
// loss and the same weights, bit for bit, as TrainStep on c — the all-reduce
// over one row and the shared optimizer step add nothing of their own.
func TestBatchOneRoundIsTrainStep(t *testing.T) {
	mk := func() *Network {
		n, err := NewNetwork(smallConfig(), 5)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	a, b := mk(), mk()
	img, lbl := buildARScene(t, 6)
	tr, err := NewDistTrainer(b, 0.03, 0.9, img, lbl, 77, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	opt := tensor.NewSGD(0.03, 0.9)
	fov := smallConfig().FOV
	for r := 0; r < 3; r++ {
		c := tr.centers.draw(tr.roundRNG(r), tr.PositiveBias)
		lossA := a.TrainStep(opt, extractFOV(img, fov, c[0], c[1], c[2]), extractFOV(lbl, fov, c[0], c[1], c[2]))
		lossB, err := tr.Round(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if lossA != lossB {
			t.Fatalf("round %d: losses differ: TrainStep %v, Round %v", r, lossA, lossB)
		}
		if !bytes.Equal(a.SaveBytes(), b.SaveBytes()) {
			t.Fatalf("round %d: batch-1 Round diverged from serial TrainStep", r)
		}
	}
}

// TestModelAndCheckpointBytesAreStable pins the serialized formats and the
// arithmetic behind them to hashes recorded before the parameters became
// one flat vector: a round trip cannot see a format shift when writer and
// reader move together, and the loss/weight hashes see any reassociation in
// the backward pass, the all-reduce or the optimizer step. One conv shard,
// because the backward kernel's shard reduction reassociates by design.
func TestModelAndCheckpointBytesAreStable(t *testing.T) {
	defer parallel.SetWorkers(parallel.SetWorkers(1))
	const (
		modelSHA   = "7f02cd67aa4fd6ee7ed3e6b2d92765be0017ac17eb85c2ee54c76cc83dcfe217"
		ckptSHA    = "a495112d375d80271bddc4176a985e081ea84da88d3be830d2f4213551314b74"
		trainerSHA = "15399611dcffaf929cda215178860a7a4421b63970d6ccd3161c75e05b18498d"
	)
	sum := func(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b)) }

	n, err := NewNetwork(smallConfig(), 42)
	if err != nil {
		t.Fatal(err)
	}
	if got := sum(n.SaveBytes()); got != modelSHA {
		t.Errorf("fresh model bytes hash %s, want %s", got, modelSHA)
	}

	img, lbl := buildARScene(t, 6)
	tr := distTrainer(t, img, lbl, 2)
	runRounds(t, tr, 3)
	if got := sum(tr.CheckpointBytes()); got != ckptSHA {
		t.Errorf("checkpoint after 3 rounds hashes %s, want %s", got, ckptSHA)
	}
	// Both encoders build their bytes in one slice of the final length.
	for name, encode := range map[string]func() []byte{"model": n.SaveBytes, "checkpoint": tr.CheckpointBytes} {
		var enc []byte
		if allocs := testing.AllocsPerRun(10, func() { enc = encode() }); allocs != 1 || len(enc) != cap(enc) {
			t.Errorf("%s encode: %.0f allocs, len %d cap %d; want 1 exact slice", name, allocs, len(enc), cap(enc))
		}
	}

	// The sequential trainer: 40 losses, then the trained model.
	n, _ = NewNetwork(smallConfig(), 3)
	losses, err := NewTrainer(n, 0.03, 0.9, 99).TrainOnVolume(img, lbl, 40)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	binary.Write(&buf, binary.LittleEndian, losses)
	buf.Write(n.SaveBytes())
	if got := sum(buf.Bytes()); got != trainerSHA {
		t.Errorf("40 Trainer steps hash %s, want %s", got, trainerSHA)
	}
}
