package ffn

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"chaseci/internal/tensor"
)

// Native fuzz targets for the two decoders fed by untrusted bytes (a
// checkpoint dataset is an opaque upload). Invariants: no panic; a refusal
// is the decoder's own sentinel; nothing allocated beyond what the input's
// own length accounts for; and decode -> encode -> decode is the identity.
// The checked-in corpus under testdata/fuzz holds a valid model, a valid
// checkpoint, the 56-byte header that asks for 2^30 features, a model and a
// checkpoint whose MoveStep exceeds FOV/2, a model and a checkpoint of a
// 1-feature, 1-module network whose header claims a 1x101x101 FOV (over
// the 65-per-side cap; the payload matches), models and checkpoints with a
// NaN or out-of-(0,1) probability (an accepted one must have all four
// inside), a checkpoint with a truncated velocity block, and a valid
// checkpoint whose Batch field is 2^31; the
// checkpoint target also seeds itself with a 13-feature checkpoint at batch
// 4096 (each within its own cap, 78M matrix elements together — too big for
// a corpus file). A checkpoint that decodes must also resume within its own
// batch x P gradient matrix, which the decoder holds to maxScratchElems.

// fuzzAllocSlack covers the fixed-size pieces of a decoded network (views,
// headers, error text) plus whatever the fuzz worker's other goroutines
// allocate meanwhile; the decoded payloads themselves are bounded by the
// input length.
const fuzzAllocSlack = 1 << 20

// probsInRange reports whether all four of cfg's probabilities are inside
// (0,1), NaN failing.
func probsInRange(cfg Config) bool {
	for _, p := range [4]float32{cfg.MoveProb, cfg.SegmentProb, cfg.PadProb, cfg.SeedProb} {
		if !(p > 0 && p < 1) {
			return false
		}
	}
	return true
}

func FuzzLoadModel(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var n *Network
		var err error
		if got := allocatedBy(func() { n, err = LoadBytes(data) }); got > uint64(len(data))+fuzzAllocSlack {
			t.Fatalf("LoadBytes allocated %d bytes for a %d-byte input", got, len(data))
		}
		if err != nil {
			if !errors.Is(err, ErrBadModel) {
				t.Fatalf("LoadBytes: %v, want ErrBadModel", err)
			}
			return
		}
		if !probsInRange(n.cfg) {
			t.Fatalf("accepted a model whose probabilities leave (0,1): %+v", n.cfg)
		}
		enc := n.SaveBytes()
		again, err := LoadBytes(enc)
		if err != nil {
			t.Fatalf("re-decode of an accepted model: %v", err)
		}
		if !bytes.Equal(again.SaveBytes(), enc) {
			t.Fatal("decode -> encode -> decode is not the identity")
		}
	})
}

func FuzzDecodeCheckpoint(f *testing.F) {
	big := smallConfig()
	big.Features = 13
	bigNet, err := NewNetwork(big, 1)
	if err != nil {
		f.Fatal(err)
	}
	f.Add((&Checkpoint{Net: bigNet, Opt: tensor.NewSGD(0.05, 0.9), BatchPerRound: MaxBatch}).EncodeBytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		var ck *Checkpoint
		var err error
		if got := allocatedBy(func() { ck, err = DecodeCheckpoint(data) }); got > uint64(len(data))+fuzzAllocSlack {
			t.Fatalf("DecodeCheckpoint allocated %d bytes for a %d-byte input", got, len(data))
		}
		// The network-only decode accepts and refuses exactly what the full
		// one does, with the same error, and yields the same network bytes.
		net, netErr := DecodeCheckpointNet(data)
		if fmt.Sprint(netErr) != fmt.Sprint(err) {
			t.Fatalf("DecodeCheckpointNet: %v; DecodeCheckpoint: %v", netErr, err)
		}
		if err == nil && !bytes.Equal(net.SaveBytes(), ck.Net.SaveBytes()) {
			t.Fatal("DecodeCheckpointNet's network is not DecodeCheckpoint's")
		}
		if err != nil {
			if !errors.Is(err, ErrBadCheckpoint) {
				t.Fatalf("DecodeCheckpoint: %v, want ErrBadCheckpoint", err)
			}
			return
		}
		if !probsInRange(ck.Net.cfg) {
			t.Fatalf("accepted a checkpoint whose probabilities leave (0,1): %+v", ck.Net.cfg)
		}
		enc := ck.EncodeBytes()
		again, err := DecodeCheckpoint(enc)
		if err != nil {
			t.Fatalf("re-decode of an accepted checkpoint: %v", err)
		}
		if !bytes.Equal(again.EncodeBytes(), enc) {
			t.Fatal("decode -> encode -> decode is not the identity")
		}
		// A resumed run sizes its centre, loss and gradient buffers from the
		// checkpoint's batch: batch x (P+8) four-byte words, the batch x P
		// part of it bounded whatever the two fields say. The volume is big
		// enough for the corpus' FOVs; a larger FOV is ErrNoExamples.
		if ck.BatchPerRound > maxScratchElems/len(ck.Net.params) {
			t.Fatalf("accepted a checkpoint whose %d x %d gradient matrix is over %d elements",
				ck.BatchPerRound, len(ck.Net.params), maxScratchElems)
		}
		vol := NewVolume(5, 9, 9)
		limit := uint64(ck.BatchPerRound*(len(ck.Net.params)+8)*4) + uint64(len(data)) + fuzzAllocSlack
		if got := allocatedBy(func() { _, err = ResumeDistTrainer(ck, vol, vol, 1) }); got > limit {
			t.Fatalf("ResumeDistTrainer allocated %d bytes for batch %d x %d params", got, ck.BatchPerRound, len(ck.Net.params))
		}
		if err != nil && !errors.Is(err, ErrNoExamples) {
			t.Fatalf("resume of an accepted checkpoint: %v", err)
		}
	})
}
