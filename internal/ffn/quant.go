package ffn

import (
	"chaseci/internal/tensor"
)

// Int8 quantized inference. Config.Precision == PrecisionInt8 routes the
// Segment flood through tensor's quantized conv kernels: 3x3x3 weights are
// quantized once per weight state (per-output-channel symmetric int8),
// activations are quantized dynamically per FOV slot, and the 1x1x1 logit
// head stays f32. Because activation quantization is per slot, an
// application's int8 output does not depend on what shares its batch, so
// the int8 mask is bit-identical at every worker count, exactly like the
// f32 path. Accuracy versus f32 is error-bounded rather than exact:
// quant_test.go pins the max-abs logit error and the mask disagreement rate.

// Precision selects the inference arithmetic for Segment.
type Precision string

const (
	// PrecisionF32 (or empty) runs the reference float32 kernels.
	PrecisionF32 Precision = "f32"
	// PrecisionInt8 runs quantized inference: int8 weights and uint8
	// activations with int32 accumulation, requantized to f32 between
	// layers. Training always stays f32.
	PrecisionInt8 Precision = "int8"
)

// quantNet holds the quantized form of the network's 3x3x3 conv weights.
// An int8 network gets it when it is made (NewNetwork), before anyone can
// share it, so concurrent floods only read it. A trainer's step drops it
// (the weights changed) and the next flood of that network, which its owner
// runs, builds it again.
type quantNet struct {
	wIn  *tensor.QuantizedWeights
	mods []*quantModule
}

type quantModule struct {
	q1, q2 *tensor.QuantizedWeights
}

// int8Inference reports whether Segment should run the quantized path.
func (n *Network) int8Inference() bool { return n.cfg.Precision == PrecisionInt8 }

// quantize builds the quantized form of the current weights.
func (n *Network) quantize() *quantNet {
	qn := &quantNet{wIn: tensor.QuantizeWeights(n.wIn)}
	for _, m := range n.mods {
		qn.mods = append(qn.mods, &quantModule{
			q1: tensor.QuantizeWeights(m.w1),
			q2: tensor.QuantizeWeights(m.w2),
		})
	}
	return qn
}

// bytes is the memory the quantized weights occupy.
func (qn *quantNet) bytes() int {
	size := func(q *tensor.QuantizedWeights) int {
		return len(q.W) + 4*(len(q.Packed)+len(q.Scales)+len(q.SumQ))
	}
	b := size(qn.wIn)
	for _, m := range qn.mods {
		b += size(m.q1) + size(m.q2)
	}
	return b
}

// forwardBatchQInto is the int8 counterpart of forwardBatchInto: quantized
// conv+ReLU for the input layer and module hidden, quantized
// conv+residual+ReLU for the module tail, and the f32 1x1x1 logit head.
// Results land in s.out; per-slot activation quantization makes a slot's
// result independent of the rest of the batch.
func (n *Network) forwardBatchQInto(s *batchScratch, k int) {
	qn := n.qn
	tensor.Conv3DBatchQReLUInto(s.x0, s.in, qn.wIn, n.bIn, k)
	cur, nxt := s.x0, s.x1
	for i, m := range n.mods {
		qm := qn.mods[i]
		tensor.Conv3DBatchQReLUInto(s.hid, cur, qm.q1, m.b1, k)
		tensor.Conv3DBatchQResReLUInto(nxt, s.hid, qm.q2, m.b2, cur, k)
		cur, nxt = nxt, cur
	}
	tensor.Conv3DBatchInto(s.out, cur, n.wOut, n.bOut, k)
}
