package ffn

import (
	"context"
	"errors"
	"fmt"

	"chaseci/internal/parallel"
	"chaseci/internal/sim"
	"chaseci/internal/tensor"
)

// Data-parallel training for the Section III-E2 extension ("Tensorflow does
// support distributed training and we want to take advantage of this").
//
// DistTrainer runs synchronous data-parallel SGD with a worker-count-
// invariant sampling scheme. Every round draws one global batch of FOV
// centers from an RNG derived only from (SampleSeed, round index); the
// examples are sharded over internal/parallel's lanes, each chunk of samples
// with its own scratch, running exampleGrads against the shared (read-only)
// network and the round's lane weights (trainPlan, packed once before the
// fan-out), sample i writing row i of one batch x P gradient matrix. Where
// the paired kernels run (trainWidth) a chunk trains its samples two at a
// time, two examples per Blocked buffer and each in its own lanes, and an
// odd chunk's last sample alone; every sample's row holds the bits it gets
// alone, so the pairing, like the chunking, moves no result. The
// all-reduce sums the rows in global sample order and scales by 1/batch,
// and one optimizer step applies the mean to the flat parameter vector. The
// resulting loss sequence is therefore bit-identical at any lane count,
// under elastic worker changes between rounds, and across a
// checkpoint/restore boundary. The worker count is the modelled
// data-parallel width — what CommBytesPerRound prices — not a goroutine
// count. At batch 1 a round is one SGD step on one example, what a sweep
// candidate runs: like every example it runs on one lane, the calling
// goroutine's. Fanning its convs out over the lanes instead measured slower
// at two lanes than at one (EXPERIMENTS.md).
//
// Ownership: a trainer owns the network it trains and its optimizer.
// FreshDistTrainer builds the network, and a resumed trainer's comes from
// DecodeCheckpoint; either way its parameter vector, like the optimizer's
// velocity, the gradient matrix, the FOV-center index, the lane weights and
// each chunk's scratches, is borrowed from the tensor free list — a job
// builds a new trainer, and these are the arrays the previous job of the
// same geometry just dropped. Release hands them all back and ends the
// life of the trainer, its Net and its Opt: call it (deferred) once no
// Round is running and nothing more will be asked of any of them. It is
// optional — a trainer that is never released is ordinary garbage. Only
// the loss history stays valid after Release.
type DistTrainer struct {
	Net *Network
	Opt *tensor.SGD

	img, lbl *Volume
	centers  fovCenters

	sampleSeed uint64
	batch      int
	width      int // examples per step while a chunk has that many left (trainWidth)
	workers    int
	round      int
	losses     []float64

	// Reused across rounds: the round's centers and per-sample losses, the
	// borrowed gradient matrix (row i is sample i's gradient), the lane
	// weights every chunk reads and each chunk's borrowed scratches, at
	// width 1 and 2, each borrowed when the chunk first needs it.
	batchCenters [][3]int
	sampleLoss   []float64
	grads        []float32
	plan         *trainPlan
	scratch      [][2]*trainScratch
	shards       shardTask
}

// ErrNoWorkers indicates a non-positive worker count.
var ErrNoWorkers = errors.New("ffn: distributed trainer needs >= 1 worker")

// ErrTooLarge indicates a trainer whose gradient matrix or per-lane
// training scratch would be over maxScratchElems.
var ErrTooLarge = errors.New("ffn: training buffer exceeds the 64M-element limit")

// checkGradMatrix refuses a batch x params gradient matrix over
// maxScratchElems, by division so the product cannot overflow.
func checkGradMatrix(batch, params int) error {
	if batch > maxScratchElems/params {
		return fmt.Errorf("%w: batch per round %d x %d network parameters implies a gradient matrix over the %d-element limit",
			ErrTooLarge, batch, params, maxScratchElems)
	}
	return nil
}

// CheckTraining holds a trainer of c's geometry at batch examples per
// round to the caps on what it sizes from the two: the batch x parameters
// gradient matrix and one lane's training scratch (TrainScratchLen), each
// within maxScratchElems. Like fov x features, these knobs are capped on
// their own and bounded together: 4096 x a 64-feature, 4-module network is
// a 14.6 GB matrix, and a 29^3 FOV x 256 features x 16 modules a 1.1 GB
// scratch per lane. c must be valid (Validate).
func (c Config) CheckTraining(batch int) error {
	if err := checkGradMatrix(batch, c.paramCount()); err != nil {
		return err
	}
	if s := c.TrainScratchLen(); s > maxScratchElems {
		return fmt.Errorf("%w: fov x features x modules implies a training scratch of %d elements per lane, over the %d-element limit",
			ErrTooLarge, s, maxScratchElems)
	}
	return nil
}

// FreshDistTrainer builds a distributed trainer over a labelled volume that
// trains a new network of cfg's geometry, He-initialized from netSeed —
// NewNetwork(cfg, netSeed)'s weights, bit for bit — on a borrowed parameter
// vector.
func FreshDistTrainer(cfg Config, netSeed uint64, lr, momentum float32, img, lbl *Volume, sampleSeed uint64, batchPerRound, workers int) (*DistTrainer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.CheckTraining(batchPerRound); err != nil {
		return nil, err
	}
	net := newNetwork(cfg, tensor.GetFloats(cfg.paramCount()))
	net.initWeights(netSeed)
	t, err := NewDistTrainer(net, lr, momentum, img, lbl, sampleSeed, batchPerRound, workers)
	if err != nil {
		tensor.PutFloats(net.params)
	}
	return t, err
}

// NewDistTrainer builds a distributed trainer over a labelled volume that
// trains net, which it takes over (see DistTrainer).
func NewDistTrainer(net *Network, lr, momentum float32, img, lbl *Volume, sampleSeed uint64, batchPerRound, workers int) (*DistTrainer, error) {
	return newDistTrainer(net, tensor.NewSGD(lr, momentum), img, lbl, sampleSeed, batchPerRound, workers, 0, nil)
}

// ResumeDistTrainer continues a checkpointed run on a (bit-identical)
// labelled volume: the next Round executes exactly the round the
// interrupted run would have executed. The trainer takes ck's network and
// optimizer over.
func ResumeDistTrainer(ck *Checkpoint, img, lbl *Volume, workers int) (*DistTrainer, error) {
	return newDistTrainer(ck.Net, ck.Opt, img, lbl, ck.SampleSeed, ck.BatchPerRound, workers,
		ck.Round, append([]float64(nil), ck.Losses...))
}

func newDistTrainer(net *Network, opt *tensor.SGD, img, lbl *Volume, sampleSeed uint64, batchPerRound, workers, round int, losses []float64) (*DistTrainer, error) {
	if workers < 1 {
		return nil, ErrNoWorkers
	}
	if batchPerRound < 1 {
		return nil, fmt.Errorf("ffn: batch per round %d, want >= 1", batchPerRound)
	}
	if err := net.cfg.CheckTraining(batchPerRound); err != nil {
		return nil, err
	}
	centers, err := collectCenters(lbl, net.cfg.FOV)
	if err != nil {
		return nil, err
	}
	width := net.cfg.trainWidth(batchPerRound)
	return &DistTrainer{
		Net: net, Opt: opt,
		img: img, lbl: lbl, centers: centers,
		sampleSeed: sampleSeed, batch: batchPerRound, width: width, workers: workers,
		round: round, losses: losses,
		batchCenters: make([][3]int, batchPerRound),
		sampleLoss:   make([]float64, batchPerRound),
		// Dirty is fine: every round's backward passes overwrite every row,
		// and packs the plan before reading it.
		grads: tensor.GetFloats(batchPerRound * len(net.params)),
		plan:  net.borrowTrainPlan(width),
	}, nil
}

// Release returns the trainer's borrowed memory to the free list (see
// DistTrainer) and detaches Net and Opt. The trainer must not run another
// Round afterwards; calling Release again is a no-op.
func (t *DistTrainer) Release() {
	if t.Net != nil {
		tensor.PutFloats(t.Net.params)
		t.Opt.Release()
		t.Net, t.Opt = nil, nil
	}
	tensor.PutFloats(t.grads)
	t.grads = nil
	t.centers.release()
	t.plan.release()
	for _, chunk := range t.scratch {
		for _, ts := range chunk {
			if ts != nil {
				ts.release()
			}
		}
	}
	t.scratch = nil
}

// Workers returns the current modelled data-parallel width (see DistTrainer).
func (t *DistTrainer) Workers() int { return t.workers }

// SetWorkers changes the data-parallel width before the next round — the
// elastic add/remove path. Results are unaffected by construction.
func (t *DistTrainer) SetWorkers(n int) error {
	if n < 1 {
		return ErrNoWorkers
	}
	t.workers = n
	return nil
}

// RoundIndex returns the next round to execute (== completed rounds).
func (t *DistTrainer) RoundIndex() int { return t.round }

// Losses returns the per-round mean loss history (caller must not mutate).
func (t *DistTrainer) Losses() []float64 { return t.losses }

// CommBytesPerRound models one synchronous ring all-reduce at the current
// width: each of W workers moves 2*(W-1)/W gradient payloads per round
// (reduce-scatter + all-gather). A single worker moves nothing.
func (t *DistTrainer) CommBytesPerRound() float64 {
	w := float64(t.workers)
	if w <= 1 {
		return 0
	}
	return w * 2 * (w - 1) / w * t.Net.GradBytes()
}

// roundRNG derives round r's sampling stream. Independent of worker count
// and of how many prior rounds ran in this process.
func (t *DistTrainer) roundRNG(r int) *sim.RNG {
	return sim.NewRNG(t.sampleSeed ^ (uint64(r)+1)*0x9e3779b97f4a7c15)
}

// Round executes one synchronous data-parallel round and returns its global
// mean loss.
func (t *DistTrainer) Round(ctx context.Context) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	rng := t.roundRNG(t.round)
	for i := range t.batchCenters {
		t.batchCenters[i] = t.centers.draw(rng)
	}

	// The batch is sharded over parallel's lanes, not over t.workers: one
	// chunk of samples per lane, each chunk with scratches of its own for
	// the widths its steps run at, all reading the weights packed here. At
	// batch 1 the round runs inline.
	t.plan.pack(t.Net)
	w := parallel.Chunks(t.batch)
	for len(t.scratch) < w {
		t.scratch = append(t.scratch, [2]*trainScratch{})
	}
	for c := range w {
		lo, hi := parallel.Chunk(t.batch, w, c)
		for i := lo; i < hi; {
			k := min(t.width, hi-i) // a pair while two are left, at width 2
			if t.scratch[c][k-1] == nil {
				t.scratch[c][k-1] = t.Net.borrowTrainScratch(t.plan, k)
			}
			i += k
		}
	}
	t.shards = shardTask{t: t, chunks: w}
	parallel.Invoke(w, &t.shards)
	if err := ctx.Err(); err != nil {
		return 0, err
	}

	// The all-reduce: sum the rows into row 0 in global sample order, then
	// scale, so the mean does not depend on which chunk wrote which row.
	p := len(t.Net.params)
	mean := t.grads[:p]
	for i := 1; i < t.batch; i++ {
		for j, g := range t.grads[i*p : (i+1)*p] {
			mean[j] += g
		}
	}
	scale := float32(1) / float32(t.batch)
	for j := range mean {
		mean[j] *= scale
	}
	t.Net.step(t.Opt, mean)
	loss := 0.0
	for _, l := range t.sampleLoss {
		loss += l
	}
	loss /= float64(t.batch)
	t.losses = append(t.losses, loss)
	t.round++
	return loss, nil
}

// shardTask runs chunks [c0, c1) of a round's batch split into chunks
// pieces, chunk c on its scratches, sample i writing row i of the gradient
// matrix. It lives in the trainer, so a round's fan-out allocates nothing.
type shardTask struct {
	t      *DistTrainer
	chunks int
}

func (s *shardTask) Run(c0, c1 int) {
	t := s.t
	p := len(t.Net.params)
	for c := c0; c < c1; c++ {
		lo, hi := parallel.Chunk(t.batch, s.chunks, c)
		for i := lo; i < hi; {
			k := min(t.width, hi-i)
			ts := t.scratch[c][k-1]
			for slot := range k {
				ts.extract(slot, t.img, t.lbl, t.Net.cfg.FOV, t.batchCenters[i+slot])
			}
			t.Net.exampleGrads(ts, t.grads[i*p:(i+k)*p], t.sampleLoss[i:i+k])
			i += k
		}
	}
}

// Checkpoint is the run's state at the current round boundary: encode it
// (EncodeBytes, or AppendTo a caller's frame) before the next Round, because
// it aliases the trainer. The encoded bytes are a full snapshot — the
// trainer can keep running afterwards.
func (t *DistTrainer) Checkpoint() *Checkpoint {
	return &Checkpoint{
		Net: t.Net, Opt: t.Opt,
		SampleSeed:    t.sampleSeed,
		BatchPerRound: t.batch,
		Round:         t.round,
		Losses:        t.losses,
	}
}

// CheckpointBytes is Checkpoint().EncodeBytes().
func (t *DistTrainer) CheckpointBytes() []byte { return t.Checkpoint().EncodeBytes() }
