package viz

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"chaseci/internal/api"
	"chaseci/internal/ffn"
)

func TestRenderOverlayPPMMarksMask(t *testing.T) {
	image := []float32{0, 0, 0, 0}
	mask := []float32{0, 1, 0, 0}
	img := RenderOverlayPPM(image, mask, 2, 2)
	header := "P6\n2 2\n255\n"
	if !bytes.HasPrefix(img, []byte(header)) {
		t.Fatalf("header = %q", img[:len(header)])
	}
	px := img[len(header):]
	// Pixel 1 must be red-dominated.
	if px[3] != 255 {
		t.Fatalf("masked pixel R = %d, want 255", px[3])
	}
	// Pixel 0 must be gray (R==G==B).
	if px[0] != px[1] || px[1] != px[2] {
		t.Fatalf("unmasked pixel not gray: %v", px[:3])
	}
}

func TestASCIISliceShape(t *testing.T) {
	data := make([]float32, 16*64)
	for i := range data {
		data[i] = float32(i % 64)
	}
	out := ASCIISlice(data, 16, 64, 32)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	for _, l := range lines {
		if len(l) > 32 {
			t.Fatalf("line width %d exceeds 32", len(l))
		}
	}
	if !strings.ContainsAny(out, ".:-=+*#%@") {
		t.Fatal("ascii render has no intensity variation")
	}
}

func TestObjectReportListsObjects(t *testing.T) {
	out := ObjectReport(&api.LabelResult{
		Objects: 2, TotalVoxels: 3, MeanDuration: 1.5, MaxDuration: 2,
		Top: []api.ObjectSummary{{ID: 1, Voxels: 1, PeakArea: 1}, {ID: 2, Voxels: 2, Termination: 1, PeakArea: 1}},
	})
	if !strings.Contains(out, "2 objects") {
		t.Fatalf("report:\n%s", out)
	}
	if !strings.Contains(out, "genesis") {
		t.Fatal("missing header")
	}
	if strings.Index(out, "\n2 ") > strings.Index(out, "\n1 ") {
		t.Fatalf("objects not listed largest first:\n%s", out)
	}
}

func TestSegmentationReportValues(t *testing.T) {
	pred, truth := ffn.NewVolume(1, 1, 4), ffn.NewVolume(1, 1, 4)
	pred.Data = []float32{1, 1, 0, 0}
	truth.Data = []float32{1, 0, 1, 0}
	out := SegmentationReport(pred, truth)
	if !strings.Contains(out, "precision: 0.500") || !strings.Contains(out, "IoU:       0.333") {
		t.Fatalf("report:\n%s", out)
	}
}

func TestVolumeSlice(t *testing.T) {
	v := ffn.NewVolume(2, 2, 2)
	for i := range v.Data {
		v.Data[i] = float32(i)
	}
	s := VolumeSlice(v, 1)
	if len(s) != 4 || s[0] != 4 {
		t.Fatalf("slice = %v", s)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range slice did not panic")
		}
	}()
	VolumeSlice(v, 5)
}

func TestRenderOverlayPPMRefusesMisshapenInput(t *testing.T) {
	for _, c := range []struct {
		name        string
		image, mask int
		h, w        int
	}{
		{"short image", 3, 4, 2, 2},
		{"short mask", 4, 3, 2, 2},
		{"wrong shape", 4, 4, 2, 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("misshapen input did not panic")
				}
			}()
			RenderOverlayPPM(make([]float32, c.image), make([]float32, c.mask), c.h, c.w)
		})
	}
}

func TestRenderOverlayPPMSpansFullGrayRange(t *testing.T) {
	image := []float32{-2, 0, 2, 6}
	mask := []float32{0, 0, 0, 1}
	img := RenderOverlayPPM(image, mask, 1, 4)
	header := "P6\n4 1\n255\n"
	if string(img[:len(header)]) != header || len(img) != len(header)+4*3 {
		t.Fatalf("image = %q", img)
	}
	px := img[len(header):]
	want := []byte{0, 0, 0, 63, 63, 63, 127, 127, 127, 255, 127, 127}
	if !bytes.Equal(px, want) {
		t.Fatalf("pixels = %v, want %v", px, want)
	}
}

func TestASCIISliceWidth(t *testing.T) {
	for _, c := range []struct {
		name           string
		h, w, maxCols  int
		wantW, wantRow int
	}{
		{"fits", 4, 10, 72, 10, 2},
		{"halved", 8, 64, 32, 32, 2},
		{"default 72 columns", 8, 100, 0, 50, 2},
		{"ragged last cell", 12, 64, 30, 22, 2},
		{"odd width over the cap", 4, 65, 32, 22, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			data := make([]float32, c.h*c.w)
			for i := range data {
				data[i] = float32(i % c.w)
			}
			lines := strings.Split(strings.TrimRight(ASCIISlice(data, c.h, c.w, c.maxCols), "\n"), "\n")
			if len(lines) != c.wantRow {
				t.Fatalf("%d rows, want %d", len(lines), c.wantRow)
			}
			for _, l := range lines {
				if len(l) != c.wantW {
					t.Fatalf("row %q is %d wide, want %d", l, len(l), c.wantW)
				}
			}
		})
	}
}

func TestASCIISliceRampEnds(t *testing.T) {
	out := ASCIISlice([]float32{0, 5, 10}, 1, 3, 72)
	if out != " =@\n" {
		t.Fatalf("ramp = %q, want %q", out, " =@\n")
	}
}

func TestVolumeSliceOutOfRangePanics(t *testing.T) {
	v := ffn.NewVolume(3, 2, 2)
	for _, z := range []int{-1, 3} {
		t.Run(fmt.Sprint(z), func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("VolumeSlice(v, %d) did not panic", z)
				}
			}()
			VolumeSlice(v, z)
		})
	}
}

func TestObjectReportNoObjects(t *testing.T) {
	out := ObjectReport(&api.LabelResult{})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[0], "id") {
		t.Fatalf("report:\n%s", out)
	}
	if lines[2] != "0 objects, 0 voxels total, mean duration 0.0 steps, max 0 steps" {
		t.Fatalf("summary = %q", lines[2])
	}
}

func TestSegmentationReportDisjointMasks(t *testing.T) {
	pred, truth := ffn.NewVolume(1, 1, 4), ffn.NewVolume(1, 1, 4)
	pred.Data = []float32{1, 1, 0, 0}
	truth.Data = []float32{0, 0, 1, 1}
	out := SegmentationReport(pred, truth)
	if !strings.Contains(out, "F1:        0.000") || !strings.Contains(out, "IoU:       0.000") {
		t.Fatalf("report:\n%s", out)
	}
}
