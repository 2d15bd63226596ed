package ffn

import (
	"encoding/binary"
	"errors"
	"fmt"

	"chaseci/internal/tensor"
)

// Training checkpoints for the train_dist job kind: the full state a
// data-parallel run needs to continue bit-exactly — model weights (the
// FFNMODL format), optimizer momentum, the sampling seed and batch
// geometry, the next round index, and the loss history so far. Sampling is
// stateless per round (each round derives its RNG from SampleSeed and the
// round index), so no RNG state needs to survive the round boundary: a run
// resumed from round R replays rounds R..N exactly as the uninterrupted run
// would have.
//
// Layout, little-endian: magic, uint32 model length, the model, ckptState,
// the losses (float64 each), then the momentum buffer — one float32 per
// parameter in the model's own order. As with the model, the fixed-size
// fields determine the exact length of everything that follows.

var ckptMagic = [8]byte{'F', 'F', 'N', 'C', 'K', 'P', 'T', 1}

// ErrBadCheckpoint indicates the bytes are not a serialized checkpoint.
var ErrBadCheckpoint = errors.New("ffn: not a serialized training checkpoint")

// Checkpoint is the resumable state of a distributed training run at a
// round boundary.
type Checkpoint struct {
	Net *Network
	Opt *tensor.SGD
	// SampleSeed is the run's sampling seed; each round r draws from
	// sim.NewRNG(SampleSeed ^ (r+1)*phi) independently of worker count.
	SampleSeed uint64
	// BatchPerRound is the global number of FOV examples per round.
	BatchPerRound int
	// Round is the next round index to execute (== len(Losses)).
	Round int
	// Losses is the per-round mean loss history up to Round.
	Losses []float64
}

// ckptState is the fixed-size block between the model and the losses.
type ckptState struct {
	LR, Momentum          float32
	SampleSeed            uint64
	Batch, Round, NLosses uint32
}

var ckptStateLen = binary.Size(ckptState{})

// MaxBatch bounds a training run's examples per round: a train_dist
// spec's batch_per_round, and a checkpoint's Batch field, which sizes the
// batch x P gradient matrix a resumed run borrows (the matrix itself is
// bounded by checkGradMatrix). A spec and a checkpoint are held to the same
// two bounds, so every checkpoint a job writes stays resumable.
const MaxBatch = 4096

// EncodedLen is the exact length of the serialized checkpoint.
func (c *Checkpoint) EncodedLen() int {
	return len(ckptMagic) + 4 + c.Net.modelLen() + ckptStateLen + 8*len(c.Losses) + 4*len(c.Net.params)
}

// AppendTo appends the serialized checkpoint to b — the one encoder: into a
// slice with EncodedLen spare capacity (a dataset.CheckpointFrame, or
// EncodeBytes' own) it allocates nothing.
func (c *Checkpoint) AppendTo(b []byte) []byte {
	b = append(b, ckptMagic[:]...)
	b = binary.LittleEndian.AppendUint32(b, uint32(c.Net.modelLen()))
	b = c.Net.appendModel(b)
	// Fixed-size values: binary.Append cannot fail.
	b, _ = binary.Append(b, binary.LittleEndian, ckptState{
		LR: c.Opt.LR, Momentum: c.Opt.Momentum, SampleSeed: c.SampleSeed,
		Batch: uint32(c.BatchPerRound), Round: uint32(c.Round), NLosses: uint32(len(c.Losses)),
	})
	b, _ = binary.Append(b, binary.LittleEndian, c.Losses)
	b, _ = binary.Append(b, binary.LittleEndian, c.Opt.Velocity(len(c.Net.params)))
	return b
}

// EncodeBytes returns the serialized checkpoint, built in one slice of
// exactly its final length.
func (c *Checkpoint) EncodeBytes() []byte {
	return c.AppendTo(make([]byte, 0, c.EncodedLen()))
}

// DecodeCheckpoint reconstructs a checkpoint (network, optimizer with
// momentum state, loss history) from serialized bytes. Every length is
// checked against the bytes actually present before anything is allocated.
// The network's parameter vector and the optimizer's velocity are decoded
// into arrays borrowed from the tensor free list: ResumeDistTrainer takes
// them over, and its Release gives them back.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	cfg, model, st, rest, err := decodeCheckpointHead(data)
	if err != nil {
		return nil, err
	}
	net := decodeNetwork(cfg, model, tensor.GetFloats(cfg.paramCount()))
	lossBytes := 8 * int(st.NLosses)
	losses := make([]float64, st.NLosses)
	opt := tensor.NewSGD(st.LR, st.Momentum)
	binary.Decode(rest[:lossBytes], binary.LittleEndian, losses)
	binary.Decode(rest[lossBytes:], binary.LittleEndian, opt.Velocity(len(net.params)))
	return &Checkpoint{
		Net: net, Opt: opt,
		SampleSeed:    st.SampleSeed,
		BatchPerRound: int(st.Batch),
		Round:         int(st.Round),
		Losses:        losses,
	}, nil
}

// Release gives a decoded checkpoint's parameter vector and velocity, both
// borrowed from the free list, back to it: for a caller that does not hand
// them to a trainer (ResumeDistTrainer takes them over). Only a checkpoint
// DecodeCheckpoint returned is released, and it is not used afterwards;
// calling Release again is a no-op.
func (ck *Checkpoint) Release() {
	if ck.Net != nil {
		tensor.PutFloats(ck.Net.params)
		ck.Opt.Release()
		ck.Net, ck.Opt = nil, nil
	}
}

// DecodeCheckpointNet is DecodeCheckpoint for a caller that only floods
// with the network: it makes every check DecodeCheckpoint makes, failing
// with the same error, and decodes the network alone — neither the loss
// history nor the optimizer's velocity, one float per parameter — into
// memory of its own, not the free list's.
func DecodeCheckpointNet(data []byte) (*Network, error) {
	cfg, model, _, _, err := decodeCheckpointHead(data)
	if err != nil {
		return nil, err
	}
	return decodeNetwork(cfg, model, make([]float32, cfg.paramCount())), nil
}

// decodeCheckpointHead checks everything of a checkpoint without
// allocating: it returns the network's geometry and serialized parameters,
// the fixed-size state, and the rest of the bytes, whose length it has
// checked to be exactly the losses and velocities the state and the
// network call for.
func decodeCheckpointHead(data []byte) (Config, []byte, ckptState, []byte, error) {
	var st ckptState
	if len(data) < len(ckptMagic)+4 || [8]byte(data[:8]) != ckptMagic {
		return Config{}, nil, st, nil, ErrBadCheckpoint
	}
	modelLen := binary.LittleEndian.Uint32(data[8:])
	rest := data[12:]
	if int(modelLen) > len(rest) {
		return Config{}, nil, st, nil, fmt.Errorf("%w: model length %d exceeds payload", ErrBadCheckpoint, modelLen)
	}
	cfg, model, err := parseModel(rest[:modelLen])
	if err != nil {
		return cfg, nil, st, nil, fmt.Errorf("%w: %w", ErrBadCheckpoint, err)
	}
	params := cfg.paramCount()
	rest = rest[modelLen:]
	if len(rest) < ckptStateLen {
		return cfg, nil, st, nil, fmt.Errorf("%w: truncated header", ErrBadCheckpoint)
	}
	binary.Decode(rest[:ckptStateLen], binary.LittleEndian, &st) // length checked above
	rest = rest[ckptStateLen:]
	if st.Batch < 1 || st.Batch > MaxBatch {
		return cfg, nil, st, nil, fmt.Errorf("%w: batch per round %d outside [1,%d]", ErrBadCheckpoint, st.Batch, MaxBatch)
	}
	if err := checkGradMatrix(int(st.Batch), params); err != nil {
		return cfg, nil, st, nil, fmt.Errorf("%w: %w", ErrBadCheckpoint, err)
	}
	if len(rest) != 8*int(st.NLosses)+4*params {
		return cfg, nil, st, nil, fmt.Errorf("%w: %d bytes after the header, want %d losses and %d velocities",
			ErrBadCheckpoint, len(rest), st.NLosses, params)
	}
	return cfg, model, st, rest, nil
}
