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
	tr, err := FreshDistTrainer(smallConfig(), 42, 0.05, 0.9, img, lbl, 77, 8, workers)
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
	if _, err := DecodeCheckpoint(withBatch(raw, MaxBatch)); err != nil {
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
	add(tr.Net.params)
	add(tr.grads)
	add(tr.plan.w)
	if idx := tr.centers.buf; len(idx) > 0 {
		ptrs[(*float32)(unsafe.Pointer(&idx[0]))] = true
		lens = append(lens, len(idx))
	}
	for _, chunk := range tr.scratch {
		for _, ts := range chunk {
			if ts != nil {
				add(ts.slab)
			}
		}
	}
	add(tr.Opt.Velocity(len(tr.Net.params)))
	return ptrs, lens
}

// TestDistTrainerAllocBound: a second trainer of the same geometry, built
// after the first was released, borrows the very arrays the first gave back
// — the parameter vector, the batch x P gradient matrix, the center index,
// the lane weights, each chunk's slab (paired where the host pairs: two
// chunks of four samples train two pairs each) and the optimizer's
// velocity — and allocates less than any one of the big ones. The second
// trains on different labels: every borrowed length is geometry, never
// label content.
func TestDistTrainerAllocBound(t *testing.T) {
	defer parallel.SetWorkers(parallel.SetWorkers(2)) // two lanes: the batch in two chunks
	img, lbl := buildARScene(t, 6)
	first := distTrainer(t, img, lbl, 2)
	runRounds(t, first, 2)
	had, _ := borrowed(first)
	if len(had) != 7 {
		t.Fatalf("first trainer holds %d borrowed arrays, want parameters + matrix + center index + lane weights + 2 slabs + velocity", len(had))
	}
	matrixBytes, slabBytes := uint64(4*len(first.grads)), uint64(4*len(first.scratch[0][first.width-1].slab))
	firstPos := len(first.centers.pos)
	first.Release()
	if first.Net != nil || first.Opt != nil || first.grads != nil || first.centers.buf != nil || first.centers.pos != nil || first.plan.w != nil || first.scratch != nil {
		t.Fatal("Release must detach what it returned")
	}
	first.Release() // a no-op, not a double put

	other := &Volume{D: lbl.D, H: lbl.H, W: lbl.W, Data: append([]float32(nil), lbl.Data...)}
	for i := 0; i < len(other.Data); i += 7 {
		other.Data[i] = 1 - other.Data[i]
	}

	var second *DistTrainer
	var err error
	got := allocatedBy(func() {
		second, err = FreshDistTrainer(smallConfig(), 42, 0.05, 0.9, img, other, 77, 8, 2)
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
	// What is left is the trainer, network, plan and scratch structs, their
	// headers and the per-round slices: 3.8 KB measured. The parameter
	// vector or the velocity (P floats each, 17 KB) on top of that is over
	// the bound.
	modelBytes := uint64(4 * len(second.Net.params))
	if !raceEnabled && got >= modelBytes/2 {
		t.Errorf("second trainer allocated %d B; parameter vector %d B, slab %d B, gradient matrix %d B", got, modelBytes, slabBytes, matrixBytes)
	}
	t.Logf("second trainer allocated %d B (parameter vector %d B, slab %d B, gradient matrix %d B)", got, modelBytes, slabBytes, matrixBytes)
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
// own; together they must fit maxScratchElems, checked before anything is
// borrowed — for a fresh trainer, and for a checkpoint, whose resume would
// otherwise size the matrix from an upload. One lane's training scratch is
// held to the same limit.
func TestGradMatrixBound(t *testing.T) {
	cfg := smallConfig()
	cfg.Features = 13 // the smallest network whose 4096-batch matrix is over the limit
	net, err := NewNetwork(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p := len(net.params); MaxBatch*p <= maxScratchElems || (maxScratchElems/p)*p > maxScratchElems {
		t.Fatalf("test geometry: %d parameters", p)
	}
	img, lbl := buildARScene(t, 6)
	atLimit := maxScratchElems / len(net.params)
	var tr *DistTrainer
	if got := allocatedBy(func() { tr, err = NewDistTrainer(net, 0.05, 0.9, img, lbl, 1, atLimit+1, 1) }); !errors.Is(err, ErrTooLarge) || got > 4096 {
		t.Fatalf("batch %d x %d params: err = %v after allocating %d B, want ErrTooLarge before any allocation", atLimit+1, len(net.params), err, got)
	}
	ck := &Checkpoint{Net: net, Opt: tensor.NewSGD(0.05, 0.9), BatchPerRound: MaxBatch}
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
	// One lane's training scratch is held to the same limit: a 61^3 FOV
	// at 16 modules is a valid network, and a fresh trainer of it is
	// refused before its parameter vector is borrowed.
	big := DefaultConfig()
	big.FOV, big.Modules = [3]int{61, 61, 61}, 16
	if err := big.Validate(); err != nil || big.TrainScratchLen() <= maxScratchElems {
		t.Fatalf("test geometry: Validate = %v, training scratch %d elements", err, big.TrainScratchLen())
	}
	if got := allocatedBy(func() { tr, err = FreshDistTrainer(big, 1, 0.05, 0.9, img, lbl, 1, 1, 1) }); !errors.Is(err, ErrTooLarge) || got > 4096 {
		t.Fatalf("61^3 FOV, 16 modules: err = %v after allocating %d B, want ErrTooLarge before any allocation", err, got)
	}
	_ = tr
}

// TestPairedTrainingMatchesWidthOne: training two examples per buffer moves
// no bit. At forced widths 1 and 2 (the Go twins serve width 2 where the
// AVX-512F kernels do not run), at 1, 2 and 8 lanes and batches 1, 2, 3,
// 16 and 17 — chunks of one, even chunks and odd ones, whose last sample
// trains alone — every run has the losses, the gradient matrix and the
// checkpoint bytes of the width-1 run on one lane, over zeroed memory and
// over borrowed arrays full of NaN alike.
func TestPairedTrainingMatchesWidthOne(t *testing.T) {
	defer parallel.SetWorkers(parallel.SetWorkers(0))
	defer func(prev int) { forceWidth = prev }(forceWidth)
	img, lbl := buildARScene(t, 6)
	newTrainer := func(batch int) *DistTrainer {
		tr, err := FreshDistTrainer(smallConfig(), 42, 0.05, 0.9, img, lbl, 77, batch, 2)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	for _, batch := range []int{1, 2, 3, 16, 17} {
		var wantLosses []float64
		var wantGrads []float32
		var wantCkpt []byte
		for _, width := range []int{1, 2} {
			forceWidth = width
			for _, lanes := range []int{1, 2, 8} {
				parallel.SetWorkers(lanes)
				probe := newTrainer(batch)
				runRounds(t, probe, 1)
				_, lens := borrowed(probe)
				probe.Release()
				for _, dirty := range []bool{false, true} {
					name := fmt.Sprintf("batch %d, width %d, %d lanes, dirty=%v", batch, width, lanes, dirty)
					stockFreeList(lens, !dirty)
					tr := newTrainer(batch)
					if want := min(width, batch); tr.width != want {
						t.Fatalf("%s: trainer width %d, want %d", name, tr.width, want)
					}
					if math.IsNaN(float64(tr.grads[0])) != dirty {
						t.Fatalf("%s: borrowed a gradient matrix starting with %v", name, tr.grads[0])
					}
					runRounds(t, tr, 3)
					losses, grads, ckpt := tr.Losses(), tr.grads, tr.CheckpointBytes()
					if wantLosses == nil {
						wantLosses = append([]float64(nil), losses...)
						wantGrads = append([]float32(nil), grads...)
						wantCkpt = ckpt
						tr.Release()
						continue
					}
					for r, l := range losses {
						if math.Float64bits(l) != math.Float64bits(wantLosses[r]) {
							t.Fatalf("%s: round %d loss %v, width 1 on one lane %v", name, r, l, wantLosses[r])
						}
					}
					for i, g := range grads {
						if math.Float32bits(g) != math.Float32bits(wantGrads[i]) {
							t.Fatalf("%s: gradient matrix float %d (row %d) = %v, width 1 on one lane %v",
								name, i, i/len(tr.Net.params), g, wantGrads[i])
						}
					}
					if !bytes.Equal(ckpt, wantCkpt) {
						t.Fatalf("%s: checkpoint bytes differ from width 1 on one lane", name)
					}
					tr.Release()
				}
			}
		}
	}
}

// TestPairedSlabHeldToTheScratchCap: a trainer pairs only where its paired
// slab, twice TrainScratchLen, fits maxScratchElems, the same 64M-element
// ceiling api holds TrainScratchLen to, so pairing refuses no request and
// borrows no array past it. Batch 1 never pairs.
func TestPairedSlabHeldToTheScratchCap(t *testing.T) {
	defer func(prev int) { forceWidth = prev }(forceWidth)
	forceWidth = 2
	small := smallConfig()
	big := DefaultConfig()
	big.FOV, big.Modules = [3]int{57, 57, 57}, 16 // a scratch between 32M and 64M elements
	if n := big.TrainScratchLen(); n <= maxScratchElems/2 || n > maxScratchElems {
		t.Fatalf("test geometry: %d-element scratch", n)
	}
	for _, c := range []struct {
		cfg   Config
		batch int
		want  int
	}{{small, 16, 2}, {small, 2, 2}, {small, 1, 1}, {big, 16, 1}} {
		if got := c.cfg.trainWidth(c.batch); got != c.want {
			t.Errorf("FOV %v, %d modules, batch %d: width %d, want %d", c.cfg.FOV, c.cfg.Modules, c.batch, got, c.want)
		}
		if got := c.cfg.TrainSlabLen(c.batch); got != c.want*c.cfg.TrainScratchLen() || got > maxScratchElems {
			t.Errorf("FOV %v, batch %d: slab %d elements", c.cfg.FOV, c.batch, got)
		}
	}
}

// BenchmarkDistTrainRound times one round of the bench's train_dist job
// shape: the 3x7x7, 6-feature, 2-module net, 16 samples per round from
// the AR scene, over the lanes -cpu gives (run it with -cpu 1,2), at
// widths 1 and 2 (forceWidth; width 2 is the Go twins' where the AVX-512F
// kernels do not run). ns/example is per sample.
func BenchmarkDistTrainRound(b *testing.B) {
	defer func(prev int) { forceWidth = prev }(forceWidth)
	img, lbl := buildARScene(b, 6)
	const batch = 16
	for _, width := range []int{1, 2} {
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			forceWidth = width
			net, err := NewNetwork(smallConfig(), 7)
			if err != nil {
				b.Fatal(err)
			}
			tr, err := NewDistTrainer(net, 0.05, 0.9, img, lbl, 1, batch, 2)
			if err != nil {
				b.Fatal(err)
			}
			defer tr.Release()
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tr.Round(ctx); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(batch*b.N), "ns/example")
		})
	}
}
