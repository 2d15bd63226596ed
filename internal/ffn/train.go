package ffn

import (
	"context"
	"errors"

	"chaseci/internal/sim"
	"chaseci/internal/tensor"
)

// Trainer drives FFN optimization on a labelled volume, sampling FOV
// examples centered on object voxels (positive-biased sampling, as FFN
// training does) and applying SGD steps. It is DistTrainer at batch 1 in
// everything but the sampling stream: Trainer draws every center from one
// sequential RNG, DistTrainer re-derives its RNG each round.
type Trainer struct {
	Net *Network
	Opt *tensor.SGD
	// PositiveBias is the fraction of samples whose center voxel is inside
	// an object (default 0.5; balanced sampling keeps flood-fill precision
	// high when the seed assertion is wrong).
	PositiveBias float64

	rng *sim.RNG
}

// NewTrainer builds a trainer with the given learning rate and momentum.
func NewTrainer(net *Network, lr, momentum float32, seed uint64) *Trainer {
	return &Trainer{
		Net:          net,
		Opt:          tensor.NewSGD(lr, momentum),
		PositiveBias: 0.5,
		rng:          sim.NewRNG(seed),
	}
}

// ErrNoExamples indicates the label volume has no usable training centers.
var ErrNoExamples = errors.New("ffn: no valid training centers in volume")

// TrainOnVolume runs `steps` optimization steps against (image, labels),
// returning the per-step losses. Labels are a binary volume.
func (t *Trainer) TrainOnVolume(image, labels *Volume, steps int) ([]float64, error) {
	return t.TrainOnVolumeCtx(context.Background(), image, labels, steps, nil)
}

// TrainOnVolumeCtx is the context-aware TrainOnVolume: cancellation is
// checked before every optimizer step, and a cancelled context returns the
// losses of the steps already taken together with ctx.Err(). progress (may
// be nil) is called with the completed step count after each step.
func (t *Trainer) TrainOnVolumeCtx(ctx context.Context, image, labels *Volume, steps int, progress func(step int)) ([]float64, error) {
	fov := t.Net.cfg.FOV
	centers, err := collectCenters(labels, fov)
	if err != nil {
		return nil, err
	}
	losses := make([]float64, 0, steps)
	ts := t.Net.trainBufs()
	for s := 0; s < steps; s++ {
		if err := ctx.Err(); err != nil {
			return losses, err
		}
		ts.extract(image, labels, fov, centers.draw(t.rng, t.PositiveBias))
		losses = append(losses, t.Net.TrainStep(t.Opt, ts.img, ts.lab))
		if progress != nil {
			progress(s + 1)
		}
	}
	return losses, nil
}

// fovCenters lists the in-bounds FOV centers of a label volume, split by
// label polarity.
type fovCenters struct{ pos, neg [][3]int }

func collectCenters(labels *Volume, fov [3]int) (fovCenters, error) {
	var c fovCenters
	for z := fov[0] / 2; z+fov[0]/2 < labels.D; z++ {
		for y := fov[1] / 2; y+fov[1]/2 < labels.H; y++ {
			for x := fov[2] / 2; x+fov[2]/2 < labels.W; x++ {
				if labels.At(z, y, x) > 0.5 {
					c.pos = append(c.pos, [3]int{z, y, x})
				} else {
					c.neg = append(c.neg, [3]int{z, y, x})
				}
			}
		}
	}
	if len(c.pos) == 0 && len(c.neg) == 0 {
		return c, ErrNoExamples
	}
	return c, nil
}

// draw samples one center: positive with probability positiveBias while
// both polarities exist.
func (c *fovCenters) draw(rng *sim.RNG, positiveBias float64) [3]int {
	if len(c.pos) > 0 && (len(c.neg) == 0 || rng.Float64() < positiveBias) {
		return c.pos[rng.Intn(len(c.pos))]
	}
	return c.neg[rng.Intn(len(c.neg))]
}

// MeanTail returns the mean of the final frac (0..1] of xs — a convergence
// summary used by tests and EXPERIMENTS.md.
func MeanTail(xs []float64, frac float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := int(float64(len(xs)) * frac)
	if n < 1 {
		n = 1
	}
	sum := 0.0
	for _, v := range xs[len(xs)-n:] {
		sum += v
	}
	return sum / float64(n)
}

// IoU computes intersection-over-union between two binary volumes.
func IoU(a, b *Volume) float64 {
	inter, union := 0, 0
	for i := range a.Data {
		av, bv := a.Data[i] > 0.5, b.Data[i] > 0.5
		if av && bv {
			inter++
		}
		if av || bv {
			union++
		}
	}
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// PrecisionRecall computes segmentation precision and recall of pred against
// truth.
func PrecisionRecall(pred, truth *Volume) (precision, recall float64) {
	tp, fp, fn := 0, 0, 0
	for i := range pred.Data {
		p, g := pred.Data[i] > 0.5, truth.Data[i] > 0.5
		switch {
		case p && g:
			tp++
		case p && !g:
			fp++
		case !p && g:
			fn++
		}
	}
	if tp+fp > 0 {
		precision = float64(tp) / float64(tp+fp)
	}
	if tp+fn > 0 {
		recall = float64(tp) / float64(tp+fn)
	}
	return precision, recall
}
