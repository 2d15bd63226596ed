package ffn

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"chaseci/internal/parallel"
	"chaseci/internal/tensor"
)

// TestSegmentInt8Invariance requires the int8 flood to produce bit-identical
// masks and statistics at worker counts 1/2/8: activations quantize per FOV
// slot, so the quantized forward — like the f32 one — depends only on the
// image and the center.
func TestSegmentInt8Invariance(t *testing.T) {
	net, img, seeds := batchScene(t, PrecisionInt8)
	prev := parallel.SetWorkers(1)
	refMask, refStats := net.Segment(img, seeds, 0)
	parallel.SetWorkers(prev)
	if refStats.Steps == 0 || refStats.MaskVoxels == 0 {
		t.Fatalf("degenerate int8 reference run: %+v", refStats)
	}

	for _, workers := range []int{2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			prev := parallel.SetWorkers(workers)
			defer parallel.SetWorkers(prev)
			mask, stats := net.Segment(img, seeds, 0)
			if stats != refStats {
				t.Fatalf("stats diverge: %+v, want %+v", stats, refStats)
			}
			for i := range refMask.Data {
				if mask.Data[i] != refMask.Data[i] {
					t.Fatalf("mask voxel %d diverges", i)
				}
			}
		})
	}
}

// TestSegmentInt8MaxSteps: the budget is honored under the quantized forward
// too.
func TestSegmentInt8MaxSteps(t *testing.T) {
	net, img, seeds := batchScene(t, PrecisionInt8)
	_, stats := net.Segment(img, seeds, 7)
	if stats.Steps != 7 {
		t.Fatalf("bounded int8 flood ran %d steps, want 7", stats.Steps)
	}
}

// TestForwardBatchQLogitError bounds the max-abs logit error of the int8
// forward against the f32 forward over a batch of FOVs, on the logits the
// flood reads (the f32 engine computes no others). The bound is
// empirical (measured ~0.09 for this scene) with ~3x headroom; a regression
// past it means the quantization pipeline broke, not that the model drifted.
const maxAbsLogitErr = 0.25

func TestForwardBatchQLogitError(t *testing.T) {
	net, img, seeds := batchScene(t, PrecisionInt8)
	f32net, _, _ := batchScene(t, PrecisionF32) // the same weights
	reads := readPositions(net.cfg)
	if len(reads) != 75 {
		t.Fatalf("the flood reads %d logits at 3x7x7, want 75", len(reads))
	}
	s := net.getBatchScratch(floodPlan{})
	defer net.putBatchScratch(s)
	plan := f32net.newFloodPlan()
	defer plan.release()
	ref := f32net.getBatchScratch(plan)
	defer f32net.putBatchScratch(ref)
	fov := net.cfg.FOV
	fovN := fov[0] * fov[1] * fov[2]
	k := min(cap(s.pos), len(seeds))
	for i := 0; i < k; i++ {
		p := seeds[i]
		extractFOVIntoSlice(s.in.Data[2*i*fovN:][:fovN], img, fov, p[0], p[1], p[2])
	}
	fillSlots(ref, img, seeds, k)
	f32net.forwardBatchInto(ref, k)
	net.forwardBatchQInto(s, k)

	var maxErr float64
	for i := 0; i < k; i++ {
		for _, j := range reads {
			if d := math.Abs(float64(s.out.Data[i*fovN+j]) - float64(ref.out.Data[i*fovN+j])); d > maxErr {
				maxErr = d
			}
		}
	}
	t.Logf("int8 max-abs logit error over the read logits of %d FOVs: %.4f", k, maxErr)
	if maxErr > maxAbsLogitErr {
		t.Fatalf("int8 max-abs logit error %.4f exceeds bound %.2f", maxErr, maxAbsLogitErr)
	}
	if maxErr == 0 {
		t.Fatal("int8 forward identical to f32 — quantization is not active")
	}
}

// TestSegmentInt8ErrorBounded bounds the end-to-end mask disagreement
// between int8 and f32 segmentation on the same scene. The bound is
// empirical (measured 0% here) with wide headroom; logit errors only
// flip mask voxels whose f32 logit sits within the error band of the
// threshold.
const maxMaskDisagreeRate = 0.02

func TestSegmentInt8ErrorBounded(t *testing.T) {
	f32net, img, seeds := batchScene(t, PrecisionF32)
	i8net, _, _ := batchScene(t, PrecisionInt8)
	f32mask, f32stats := f32net.Segment(img, seeds, 0)
	i8mask, i8stats := i8net.Segment(img, seeds, 0)
	if i8stats.Steps == 0 || i8stats.MaskVoxels == 0 {
		t.Fatalf("degenerate int8 run: %+v", i8stats)
	}
	var diff int
	for i := range f32mask.Data {
		if f32mask.Data[i] != i8mask.Data[i] {
			diff++
		}
	}
	rate := float64(diff) / float64(len(f32mask.Data))
	t.Logf("int8 vs f32: %d/%d mask voxels disagree (%.4f%%), steps %d vs %d",
		diff, len(f32mask.Data), 100*rate, i8stats.Steps, f32stats.Steps)
	if rate > maxMaskDisagreeRate {
		t.Fatalf("mask disagreement rate %.4f exceeds bound %.3f", rate, maxMaskDisagreeRate)
	}
}

// TestInt8QuantCacheInvalidation: an int8 network is made with its quantized
// weights, which a flood only reads; training must invalidate them so the
// next Segment re-quantizes the updated weights.
func TestInt8QuantCacheInvalidation(t *testing.T) {
	net, img, seeds := batchScene(t, PrecisionInt8)
	made := net.qn
	if made == nil {
		t.Fatal("NewNetwork did not build an int8 network's quantized weights")
	}
	before, _ := net.Segment(img, seeds, 0)
	if net.qn != made {
		t.Fatal("a flood rebuilt quantized weights the network was made with")
	}
	opt := tensor.NewSGD(0.05, 0.9)
	fov := net.cfg.FOV
	image := extractFOV(img, fov, fov[0]/2, fov[1]/2, fov[2]/2)
	label := tensor.New(1, fov[0], fov[1], fov[2])
	for i := 0; i < 8; i++ {
		refStep(net, opt, image, label)
	}
	if net.qn != nil {
		t.Fatal("an SGD step left a stale quantized cache")
	}
	after, _ := net.Segment(img, seeds, 0)
	same := true
	for i := range before.Data {
		if before.Data[i] != after.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("mask unchanged after training — quantized weights look stale")
	}
}

// TestSharedNetworkConcurrentFloods: a network no trainer owns is only read
// by a flood, so floods on one network started together — straight from
// NewNetwork, the int8 one included — each produce the mask a twin network
// floods to alone, and leave the weights and quantized weights as made.
func TestSharedNetworkConcurrentFloods(t *testing.T) {
	for _, p := range []Precision{PrecisionF32, PrecisionInt8} {
		twin, img, seeds := batchScene(t, p)
		want, wantStats := twin.Segment(img, seeds, 0)
		net, _, _ := batchScene(t, p)
		params, qn := append([]float32(nil), net.params...), net.qn

		masks := make([]*Volume, 4)
		stats := make([]InferenceStats, len(masks))
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range masks {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				masks[i], stats[i] = net.Segment(img, seeds, 0)
			}(i)
		}
		close(start)
		wg.Wait()
		for i, mask := range masks {
			if stats[i] != wantStats || !slices.Equal(mask.Data, want.Data) {
				t.Fatalf("%s flood %d of 4 concurrent: %+v, want the lone flood's %+v", p, i, stats[i], wantStats)
			}
		}
		if !slices.Equal(net.params, params) || net.qn != qn {
			t.Fatalf("%s: concurrent floods wrote the network", p)
		}
	}
}

// TestPrecisionValidation rejects unknown precisions and accepts the two
// documented ones.
func TestPrecisionValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Precision = "fp16"
	if _, err := NewNetwork(cfg, 1); err == nil {
		t.Fatal("want error for unknown precision")
	}
	for _, p := range []Precision{"", PrecisionF32, PrecisionInt8} {
		cfg.Precision = p
		if _, err := NewNetwork(cfg, 1); err != nil {
			t.Fatalf("precision %q rejected: %v", p, err)
		}
	}
}
