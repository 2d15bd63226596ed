package ffn

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Model serialization: after step 2 the paper saves "the trained FFN model
// ... in the Ceph Object Store, including all parameters and configurations
// needed to do inference on new NASA data". The byte format is a fixed
// little-endian header (modelHeader) followed by the flat parameter vector,
// float32 each, in canonical order — nothing else, so the header alone
// fixes the exact length of a well-formed model.

var modelMagic = [8]byte{'F', 'F', 'N', 'M', 'O', 'D', 'L', 1}

// ErrBadModel indicates the bytes are not a serialized FFN model.
var ErrBadModel = errors.New("ffn: not a serialized model")

// modelHeader is the serialized form of the Config fields a model carries.
type modelHeader struct {
	Magic                                    [8]byte
	FOV                                      [3]int32
	Features, Modules                        int32
	MoveStep                                 [3]int32
	MoveProb, SegmentProb, PadProb, SeedProb float32
}

var modelHeaderLen = binary.Size(modelHeader{})

func int32x3(v [3]int) [3]int32 { return [3]int32{int32(v[0]), int32(v[1]), int32(v[2])} }
func intx3(v [3]int32) [3]int   { return [3]int{int(v[0]), int(v[1]), int(v[2])} }

// modelLen is the exact length of the serialized model.
func (n *Network) modelLen() int { return modelHeaderLen + 4*len(n.params) }

// appendModel appends the serialized model to b.
func (n *Network) appendModel(b []byte) []byte {
	c := n.cfg
	// Fixed-size values: binary.Append cannot fail.
	b, _ = binary.Append(b, binary.LittleEndian, modelHeader{
		Magic: modelMagic,
		FOV:   int32x3(c.FOV), Features: int32(c.Features), Modules: int32(c.Modules),
		MoveStep: int32x3(c.MoveStep),
		MoveProb: c.MoveProb, SegmentProb: c.SegmentProb, PadProb: c.PadProb, SeedProb: c.SeedProb,
	})
	b, _ = binary.Append(b, binary.LittleEndian, n.params)
	return b
}

// parseModel checks a serialized model without allocating: it returns the
// geometry its header declares and its payload, known to be exactly that
// geometry's parameter vector. The header is untrusted: nothing is sized
// from it before the payload is known to match it.
func parseModel(data []byte) (Config, []byte, error) {
	var cfg Config
	if len(data) < modelHeaderLen {
		return cfg, nil, ErrBadModel
	}
	var h modelHeader
	binary.Decode(data[:modelHeaderLen], binary.LittleEndian, &h) // length checked above
	if h.Magic != modelMagic {
		return cfg, nil, ErrBadModel
	}
	cfg = Config{
		FOV: intx3(h.FOV), Features: int(h.Features), Modules: int(h.Modules),
		MoveStep: intx3(h.MoveStep),
		MoveProb: h.MoveProb, SegmentProb: h.SegmentProb, PadProb: h.PadProb, SeedProb: h.SeedProb,
	}
	if err := cfg.Validate(); err != nil {
		return cfg, nil, fmt.Errorf("%w: bad config: %v", ErrBadModel, err)
	}
	payload := data[modelHeaderLen:]
	if len(payload) != 4*cfg.paramCount() {
		return cfg, nil, fmt.Errorf("%w: %d payload bytes do not match a %d-feature, %d-module network",
			ErrBadModel, len(payload), cfg.Features, cfg.Modules)
	}
	return cfg, payload, nil
}

// decodeNetwork builds the network parseModel checked over params, a
// vector of cfg.paramCount() floats, filled from payload.
func decodeNetwork(cfg Config, payload []byte, params []float32) *Network {
	binary.Decode(payload, binary.LittleEndian, params) // length checked by parseModel
	return newNetwork(cfg, params)
}
