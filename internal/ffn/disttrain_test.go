package ffn

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"testing"
	"unsafe"

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
	// The embedded model header is held to the probability rule a model file
	// is: resume_from and net_ref decode through here.
	for _, c := range badProbabilities {
		t.Run(c.name, func(t *testing.T) {
			bad := append([]byte(nil), raw...)
			binary.LittleEndian.PutUint32(bad[len(ckptMagic)+4+c.off:], math.Float32bits(c.v))
			if _, err := DecodeCheckpoint(bad); !errors.Is(err, ErrBadCheckpoint) || !errors.Is(err, ErrBadModel) {
				t.Errorf("err = %v, want ErrBadCheckpoint wrapping ErrBadModel", err)
			}
		})
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
// loss and the same weights, bit for bit, as one SGD step on c (refStep:
// exampleGrad, then step) — the all-reduce over one row adds nothing of its
// own.
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
		c := tr.centers.draw(tr.roundRNG(r))
		lossA := refStep(a, opt, extractFOV(img, fov, c[0], c[1], c[2]), extractFOV(lbl, fov, c[0], c[1], c[2]))
		lossB, err := tr.Round(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if lossA != lossB {
			t.Fatalf("round %d: losses differ: one SGD step %v, Round %v", r, lossA, lossB)
		}
		if !bytes.Equal(a.SaveBytes(), b.SaveBytes()) {
			t.Fatalf("round %d: batch-1 Round diverged from one SGD step", r)
		}
	}
}

// TestModelAndCheckpointBytesAreStable pins the serialized formats and the
// arithmetic behind them to hashes recorded before the parameters became
// one flat vector: a round trip cannot see a format shift when writer and
// reader move together, and the loss/weight hashes see any reassociation in
// the backward pass, the all-reduce or the optimizer step. The checkpoint
// hash holds at every conv worker count: every gradient element has one
// writer, which sums in the scalar order.
func TestModelAndCheckpointBytesAreStable(t *testing.T) {
	defer parallel.SetWorkers(parallel.SetWorkers(0))
	const (
		modelSHA = "7f02cd67aa4fd6ee7ed3e6b2d92765be0017ac17eb85c2ee54c76cc83dcfe217"
		ckptSHA  = "a495112d375d80271bddc4176a985e081ea84da88d3be830d2f4213551314b74"
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
	var tr *DistTrainer
	for _, workers := range []int{1, 2, 8} {
		parallel.SetWorkers(workers)
		tr = distTrainer(t, img, lbl, 2)
		runRounds(t, tr, 3)
		if got := sum(tr.CheckpointBytes()); got != ckptSHA {
			t.Errorf("%d conv workers: checkpoint after 3 rounds hashes %s, want %s", workers, got, ckptSHA)
		}
	}
	// Both encoders build their bytes in one slice of the final length.
	for name, encode := range map[string]func() []byte{"model": n.SaveBytes, "checkpoint": tr.CheckpointBytes} {
		var enc []byte
		if allocs := testing.AllocsPerRun(10, func() { enc = encode() }); allocs != 1 || len(enc) != cap(enc) {
			t.Errorf("%s encode: %.0f allocs, len %d cap %d; want 1 exact slice", name, allocs, len(enc), cap(enc))
		}
	}

	// And the trainer appends the same bytes into a caller's frame — the
	// service's CDS1 header with exact spare capacity — without allocating.
	want := tr.CheckpointBytes()
	frame := make([]byte, 20, 20+tr.Checkpoint().EncodedLen())
	if allocs := testing.AllocsPerRun(10, func() { frame = tr.Checkpoint().AppendTo(frame[:20]) }); allocs != 0 || len(frame) != cap(frame) || !bytes.Equal(frame[20:], want) {
		t.Errorf("Checkpoint().AppendTo a frame: %.0f allocs, len %d cap %d, same bytes %v; want 0 allocs, exact fit, identical",
			allocs, len(frame), cap(frame), bytes.Equal(frame[20:], want))
	}
}

// borrowed lists the base address of every array the trainer holds from the
// free list, and their lengths.
func borrowed(tr *DistTrainer) (ptrs map[*float32]bool, lens []int) {
	ptrs = make(map[*float32]bool)
	add := func(b []float32) {
		if len(b) > 0 {
			ptrs[&b[0]] = true
			lens = append(lens, len(b))
		}
	}
	add(tr.grads)
	if idx := tr.centers.buf; len(idx) > 0 {
		ptrs[(*float32)(unsafe.Pointer(&idx[0]))] = true
		lens = append(lens, len(idx))
	}
	for _, ts := range tr.scratch {
		add(ts.slab)
	}
	return ptrs, lens
}

// TestDistTrainerAllocBound: a second trainer of the same geometry, built
// after the first was released, borrows the very arrays the first gave back
// — the batch x P gradient matrix, the center index, each chunk's slab —
// and allocates less than any one of the big ones. The second trains on
// different labels: every borrowed length is geometry, never label content.
func TestDistTrainerAllocBound(t *testing.T) {
	defer parallel.SetWorkers(parallel.SetWorkers(2)) // two lanes: the batch in two chunks
	img, lbl := buildARScene(t, 6)
	first := distTrainer(t, img, lbl, 2)
	runRounds(t, first, 2)
	had, _ := borrowed(first)
	if len(had) != 4 {
		t.Fatalf("first trainer holds %d borrowed arrays, want matrix + center index + 2 slabs", len(had))
	}
	matrixBytes, slabBytes := uint64(4*len(first.grads)), uint64(4*len(first.scratch[0].slab))
	firstPos := len(first.centers.pos)
	first.Release()
	if first.grads != nil || first.centers.buf != nil || first.centers.pos != nil || first.scratch != nil {
		t.Fatal("Release must detach what it returned")
	}
	first.Release() // a no-op, not a double put

	other := &Volume{D: lbl.D, H: lbl.H, W: lbl.W, Data: append([]float32(nil), lbl.Data...)}
	for i := 0; i < len(other.Data); i += 7 {
		other.Data[i] = 1 - other.Data[i]
	}

	net, err := NewNetwork(smallConfig(), 42)
	if err != nil {
		t.Fatal(err)
	}
	var second *DistTrainer
	got := allocatedBy(func() {
		second, err = NewDistTrainer(net, 0.05, 0.9, img, other, 77, 8, 2)
		if err != nil {
			t.Fatal(err)
		}
		runRounds(t, second, 2)
	})
	defer second.Release()
	if len(second.centers.pos) == firstPos {
		t.Fatalf("both label volumes have %d positive centers: the test needs them to differ", firstPos)
	}
	has, _ := borrowed(second)
	for p := range has {
		if !had[p] {
			t.Errorf("second trainer holds an array the first never released: it was allocated, not borrowed")
		}
	}
	if len(has) != len(had) {
		t.Errorf("second trainer holds %d borrowed arrays, first held %d", len(has), len(had))
	}
	// What is left is the optimizer's velocity (P floats, 18 KB), the
	// trainer and scratch structs, tensor headers, and whatever conv
	// temporaries the first trainer's scheduling left cold: 35 KB measured.
	// One slab or the matrix on top of that is over the bound.
	if !raceEnabled && got >= matrixBytes/2 {
		t.Errorf("second trainer allocated %d B; slab %d B, gradient matrix %d B", got, slabBytes, matrixBytes)
	}
	t.Logf("second trainer allocated %d B (slab %d B, gradient matrix %d B)", got, slabBytes, matrixBytes)
}

// stockFreeList leaves one buffer of each length on top of the free list:
// zeroed, which is what fresh memory from make looks like, or NaN.
func stockFreeList(lens []int, zero bool) {
	tensor.PoisonReleased(!zero)
	defer tensor.PoisonReleased(true) // the package's TestMain setting
	for _, n := range lens {
		tensor.PutFloats(make([]float32, n))
	}
}

// TestDistTrainerOverDirtyBuffersMatchesFresh: a run over borrowed arrays
// full of NaN — the state the free list hands out under this package's
// TestMain — has the loss sequence and checkpoint bytes of a run over
// zeroed memory. Every array is written in full before it is read (the
// backward kernels zero what they accumulate into): drop one of those
// clears and NaN reaches a loss.
func TestDistTrainerOverDirtyBuffersMatchesFresh(t *testing.T) {
	img, lbl := buildARScene(t, 6)
	probe := distTrainer(t, img, lbl, 2)
	runRounds(t, probe, 1)
	_, lens := borrowed(probe)

	run := func(zero bool) ([]float64, []byte) {
		stockFreeList(lens, zero)
		tr := distTrainer(t, img, lbl, 2)
		defer tr.Release()
		if first := tr.grads[0]; zero != (first == 0) || zero == math.IsNaN(float64(first)) {
			t.Fatalf("zero=%v run borrowed a gradient matrix starting with %v", zero, first)
		}
		runRounds(t, tr, 6)
		return append([]float64(nil), tr.Losses()...), tr.CheckpointBytes()
	}
	freshLosses, freshCkpt := run(true)
	dirtyLosses, dirtyCkpt := run(false)
	for r, l := range freshLosses {
		if dirtyLosses[r] != l {
			t.Fatalf("round %d: loss over dirty buffers %v, over fresh memory %v", r, dirtyLosses[r], l)
		}
	}
	if !bytes.Equal(freshCkpt, dirtyCkpt) {
		t.Fatal("checkpoint bytes over dirty buffers differ from those over fresh memory")
	}
}

// TestRoundShardPanicReraisedOnCaller: a panic on a shard goroutine has no
// caller to unwind to and would end the process; Round parks it and raises
// it on its own caller once every shard has stopped, so a deferred Release
// is safe — nothing is still writing the arrays it returns.
func TestRoundShardPanicReraisedOnCaller(t *testing.T) {
	img, lbl := buildARScene(t, 6)
	short := &Volume{D: img.D, H: img.H, W: img.W, Data: append([]float32(nil), img.Data[:len(img.Data)/8]...)}
	tr := distTrainer(t, short, lbl, 4)
	var raised any
	func() {
		defer tr.Release()
		defer func() { raised = recover() }()
		tr.Round(context.Background())
	}()
	if raised == nil {
		t.Fatal("an out-of-range FOV extract in a shard did not panic on Round's caller")
	}
	if tr.RoundIndex() != 0 || len(tr.Losses()) != 0 {
		t.Fatalf("panicked round advanced the trainer: round %d, %d losses", tr.RoundIndex(), len(tr.Losses()))
	}
	// The released arrays are intact: the next trainer borrows them and
	// reproduces the reference curve.
	base := distTrainer(t, img, lbl, 4)
	defer base.Release()
	runRounds(t, base, 3)
	for _, l := range base.Losses() {
		if math.IsNaN(l) {
			t.Fatal("trainer over the arrays a panicked round released lost to NaN")
		}
	}
}

// TestGradMatrixBound: batch and network geometry are each capped on their
// own; together they must fit maxGradElems, checked before anything is
// borrowed — for a fresh trainer, and for a checkpoint, whose resume would
// otherwise size the matrix from an upload.
func TestGradMatrixBound(t *testing.T) {
	cfg := smallConfig()
	cfg.Features = 13 // the smallest network whose 4096-batch matrix is over the limit
	net, err := NewNetwork(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p := net.ParamCount(); maxCheckpointBatch*p <= maxGradElems || (maxGradElems/p)*p > maxGradElems {
		t.Fatalf("test geometry: %d parameters", p)
	}
	img, lbl := buildARScene(t, 6)
	atLimit := maxGradElems / net.ParamCount()
	var tr *DistTrainer
	if got := allocatedBy(func() { tr, err = NewDistTrainer(net, 0.05, 0.9, img, lbl, 1, atLimit+1, 1) }); !errors.Is(err, ErrTooLarge) || got > 4096 {
		t.Fatalf("batch %d x %d params: err = %v after allocating %d B, want ErrTooLarge before any allocation", atLimit+1, net.ParamCount(), err, got)
	}
	ck := &Checkpoint{Net: net, Opt: tensor.NewSGD(0.05, 0.9), BatchPerRound: maxCheckpointBatch}
	if _, err := ResumeDistTrainer(ck, img, lbl, 1); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("resume of a hand-built oversized checkpoint: err = %v, want ErrTooLarge", err)
	}
	if _, err := DecodeCheckpoint(ck.EncodeBytes()); !errors.Is(err, ErrBadCheckpoint) || !errors.Is(err, ErrTooLarge) {
		t.Fatalf("decode of an oversized checkpoint: err = %v, want ErrBadCheckpoint wrapping ErrTooLarge", err)
	}
	ck.BatchPerRound = atLimit
	if _, err := DecodeCheckpoint(ck.EncodeBytes()); err != nil {
		t.Fatalf("checkpoint at the limit: %v", err)
	}
	_ = tr
}
