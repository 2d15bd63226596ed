package ffn

import (
	"errors"

	"chaseci/internal/sim"
	"chaseci/internal/tensor"
)

// ErrNoExamples indicates the label volume has no usable training centers.
var ErrNoExamples = errors.New("ffn: no valid training centers in volume")

// positiveBias is the fraction of sampled centers inside an object:
// balanced sampling keeps flood-fill precision high when the seed
// assertion is wrong.
const positiveBias = 0.5

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
func (c *fovCenters) draw(rng *sim.RNG) [3]int {
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
