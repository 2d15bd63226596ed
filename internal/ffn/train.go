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
//
// Ownership: a Trainer holds no borrowed memory between calls. Each
// TrainOnVolume call borrows its center index, scratch and gradient row
// from the tensor free list and returns them before it returns, on every
// path — so there is nothing for the caller to release.
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
	defer centers.release()
	ts := t.Net.newTrainScratch()
	defer ts.release()
	grad := tensor.GetFloats(len(t.Net.params))
	defer tensor.PutFloats(grad)

	losses := make([]float64, 0, steps)
	for s := 0; s < steps; s++ {
		if err := ctx.Err(); err != nil {
			return losses, err
		}
		ts.extract(image, labels, fov, centers.draw(t.rng, t.PositiveBias))
		losses = append(losses, t.Net.trainStep(t.Opt, ts, ts.img, ts.lab, grad))
		if progress != nil {
			progress(s + 1)
		}
	}
	return losses, nil
}

// fovCenters indexes the in-bounds FOV centers of a label volume, split by
// label polarity: each entry is a center's linear voxel index
// (z*H + y)*W + x, in scan order. pos and neg are the two ends of one array
// borrowed from the tensor free list (the API caps a volume at 2^26 voxels,
// so an index fits an int32 with room to spare); release returns it. The
// array's length is the center count — geometry alone, whatever the labels
// hold — so a later run over any volume of the same dimensions reuses it.
type fovCenters struct {
	pos, neg []int32
	buf      []int32
	h, w     int
}

// collectCenters scans the label volume twice — count the positives, then
// fill — so both lists land in scan order in one exact-length array rather
// than in lists grown by doubling.
func collectCenters(labels *Volume, fov [3]int) (fovCenters, error) {
	c := fovCenters{h: labels.H, w: labels.W}
	// An odd FOV of f voxels has size-f+1 in-bounds centers along an axis,
	// starting at f/2.
	nz, ny, nx := labels.D-fov[0]+1, labels.H-fov[1]+1, labels.W-fov[2]+1
	if nz <= 0 || ny <= 0 || nx <= 0 {
		return c, ErrNoExamples
	}
	// rows visits the centers' labels one (z, y) row at a time, in scan
	// order, with the linear index of each row's first center.
	rows := func(visit func(first int, row []float32)) {
		for z := fov[0] / 2; z < fov[0]/2+nz; z++ {
			for y := fov[1] / 2; y < fov[1]/2+ny; y++ {
				first := (z*labels.H+y)*labels.W + fov[2]/2
				visit(first, labels.Data[first:first+nx])
			}
		}
	}
	npos := 0
	rows(func(_ int, row []float32) {
		for _, v := range row {
			if v > 0.5 {
				npos++
			}
		}
	})
	c.buf = tensor.GetInt32s(nz * ny * nx)
	c.pos, c.neg = c.buf[:npos:npos], c.buf[npos:]
	ip, in := 0, 0
	rows(func(first int, row []float32) {
		for x, v := range row {
			if v > 0.5 {
				c.pos[ip] = int32(first + x)
				ip++
			} else {
				c.neg[in] = int32(first + x)
				in++
			}
		}
	})
	return c, nil
}

// release returns the index to the free list and detaches it. Idempotent.
func (c *fovCenters) release() {
	tensor.PutInt32s(c.buf)
	c.buf, c.pos, c.neg = nil, nil, nil
}

// draw samples one center: positive with probability positiveBias while
// both polarities exist.
func (c *fovCenters) draw(rng *sim.RNG, positiveBias float64) [3]int {
	var i int
	if len(c.pos) > 0 && (len(c.neg) == 0 || rng.Float64() < positiveBias) {
		i = int(c.pos[rng.Intn(len(c.pos))])
	} else {
		i = int(c.neg[rng.Intn(len(c.neg))])
	}
	return [3]int{i / (c.h * c.w), i / c.w % c.h, i % c.w}
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
