package viz

import (
	"bytes"
	"strings"
	"testing"

	"chaseci/internal/api"
	"chaseci/internal/ffn"
)

func TestRenderPGMHeaderAndSize(t *testing.T) {
	data := make([]float32, 6)
	for i := range data {
		data[i] = float32(i)
	}
	img := RenderPGM(data, 2, 3)
	if !bytes.HasPrefix(img, []byte("P5\n3 2\n255\n")) {
		t.Fatalf("header = %q", img[:12])
	}
	payload := img[len("P5\n3 2\n255\n"):]
	if len(payload) != 6 {
		t.Fatalf("payload = %d bytes, want 6", len(payload))
	}
	if payload[0] != 0 || payload[5] != 255 {
		t.Fatalf("scaling wrong: first=%d last=%d", payload[0], payload[5])
	}
}

func TestRenderPGMConstantField(t *testing.T) {
	img := RenderPGM(make([]float32, 4), 2, 2)
	if len(img) == 0 {
		t.Fatal("constant field render failed")
	}
}

func TestRenderPGMSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("size mismatch did not panic")
		}
	}()
	RenderPGM(make([]float32, 5), 2, 3)
}

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
