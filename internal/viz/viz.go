// Package viz is the workflow's step 4: result inspection. In the paper this
// is a JupyterLab notebook reading results straight from the Ceph Object
// Store; here it renders segmentation masks over IVT fields as PPM images,
// ASCII previews, and object statistics reports, all pure stdlib.
package viz

import (
	"bytes"
	"fmt"
	"sort"
	"strings"

	"chaseci/internal/api"
	"chaseci/internal/ffn"
)

// RenderOverlayPPM encodes an image slice with a mask overlay as a binary
// PPM (P6): grayscale background, masked voxels in red.
func RenderOverlayPPM(image, mask []float32, h, w int) []byte {
	if len(image) != h*w || len(mask) != h*w {
		panic("viz: RenderOverlayPPM size mismatch")
	}
	lo, hi := minMax(image)
	span := hi - lo
	if span <= 0 {
		span = 1
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "P6\n%d %d\n255\n", w, h)
	for i, v := range image {
		g := byte((v - lo) / span * 255)
		if mask[i] > 0.5 {
			buf.Write([]byte{255, g / 2, g / 2})
		} else {
			buf.Write([]byte{g, g, g})
		}
	}
	return buf.Bytes()
}

func minMax(data []float32) (lo, hi float32) {
	if len(data) == 0 {
		return 0, 0
	}
	lo, hi = data[0], data[0]
	for _, v := range data {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// ASCIISlice renders an (H x W) slice as characters by intensity, downscaled
// to at most maxCols columns — the terminal "notebook preview".
func ASCIISlice(data []float32, h, w, maxCols int) string {
	if maxCols <= 0 {
		maxCols = 72
	}
	scale := 1
	for (w+scale-1)/scale > maxCols { // columns printed: ceil(w/scale)
		scale++
	}
	ramp := []byte(" .:-=+*#%@")
	lo, hi := minMax(data)
	span := hi - lo
	if span <= 0 {
		span = 1
	}
	var b strings.Builder
	for y := 0; y < h; y += scale * 2 { // characters are ~2x taller than wide
		for x := 0; x < w; x += scale {
			// Mean over the cell.
			var sum float32
			n := 0
			for yy := y; yy < y+scale*2 && yy < h; yy++ {
				for xx := x; xx < x+scale && xx < w; xx++ {
					sum += data[yy*w+xx]
					n++
				}
			}
			v := (sum/float32(n) - lo) / span
			idx := int(v * float32(len(ramp)-1))
			if idx < 0 {
				idx = 0
			}
			if idx >= len(ramp) {
				idx = len(ramp) - 1
			}
			b.WriteByte(ramp[idx])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ObjectReport renders a label job's CONNECT object statistics as the
// post-processing table a notebook cell would show: per-object life cycle
// (the objects the result lists, largest first) plus aggregates.
func ObjectReport(r *api.LabelResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %8s %8s %8s %10s\n", "id", "voxels", "genesis", "term", "peak-area")
	objs := append([]api.ObjectSummary(nil), r.Top...)
	sort.SliceStable(objs, func(i, j int) bool { return objs[i].Voxels > objs[j].Voxels })
	for _, o := range objs {
		fmt.Fprintf(&b, "%-6d %8d %8d %8d %10d\n", o.ID, o.Voxels, o.Genesis, o.Termination, o.PeakArea)
	}
	fmt.Fprintf(&b, "\n%d objects, %d voxels total, mean duration %.1f steps, max %d steps\n",
		r.Objects, r.TotalVoxels, r.MeanDuration, r.MaxDuration)
	return b.String()
}

// SegmentationReport compares an FFN mask against reference labels — the
// validation cell of the step 4 notebook.
func SegmentationReport(pred, truth *ffn.Volume) string {
	prec, rec := ffn.PrecisionRecall(pred, truth)
	iou := ffn.IoU(pred, truth)
	f1 := 0.0
	if prec+rec > 0 {
		f1 = 2 * prec * rec / (prec + rec)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "segmentation vs reference labels\n")
	fmt.Fprintf(&b, "  precision: %.3f\n  recall:    %.3f\n  F1:        %.3f\n  IoU:       %.3f\n",
		prec, rec, f1, iou)
	return b.String()
}

// VolumeSlice extracts time-step z of an ffn.Volume as a flat H*W slice.
func VolumeSlice(v *ffn.Volume, z int) []float32 {
	if z < 0 || z >= v.D {
		panic(fmt.Sprintf("viz: slice %d out of range [0,%d)", z, v.D))
	}
	return v.Data[z*v.H*v.W : (z+1)*v.H*v.W]
}
