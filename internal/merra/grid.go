// Package merra is the data substrate of the CONNECT case study: a
// deterministic synthetic stand-in for NASA's MERRA-2 reanalysis
// (M2I3NPASM). It provides (1) the archive catalog model with the paper's
// exact file counts and sizes (112,249 3-hourly NetCDF files, 455 GB full /
// 246 GB IVT-variable subset), (2) a generator producing physically
// plausible specific-humidity and wind fields with moving "atmospheric
// river" filaments, (3) the Integrated Water Vapor Transport (IVT)
// computation the case study segments, and (4) an "NC4-lite" binary
// container with variable-level subsetting, standing in for NetCDF4 +
// THREDDS subsetting.
package merra

import (
	"fmt"

	"chaseci/internal/tensor"
)

// Grid describes the discretization: NLon x NLat horizontal points and NLev
// pressure levels. MERRA-2's full grid is 576 x 361 x 42.
type Grid struct {
	NLon, NLat, NLev int
}

// HorizontalSize returns NLon*NLat.
func (g Grid) HorizontalSize() int { return g.NLon * g.NLat }

// Size returns NLon*NLat*NLev.
func (g Grid) Size() int { return g.NLon * g.NLat * g.NLev }

func (g Grid) String() string { return fmt.Sprintf("%dx%dx%d", g.NLon, g.NLat, g.NLev) }

// Field2D is a horizontal scalar field, row-major by latitude.
type Field2D struct {
	NLon, NLat int
	Data       []float32
}

// NewField2D allocates a zero field.
func NewField2D(nlon, nlat int) *Field2D {
	return &Field2D{NLon: nlon, NLat: nlat, Data: make([]float32, nlon*nlat)}
}

// Quantile returns the q-th (0..1) quantile by sampling sort.
func (f *Field2D) Quantile(q float64) float32 {
	if len(f.Data) == 0 {
		return 0
	}
	cp := make([]float32, len(f.Data))
	copy(cp, f.Data)
	quickselectSort(cp)
	idx := int(q * float64(len(cp)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(cp) {
		idx = len(cp) - 1
	}
	return cp[idx]
}

func quickselectSort(a []float32) {
	// Simple insertion-based sort is fine for the modest test grids; large
	// grids use a shell sort for reasonable performance without pulling in
	// sort.Float64s conversions.
	for gap := len(a) / 2; gap > 0; gap /= 2 {
		for i := gap; i < len(a); i++ {
			v := a[i]
			j := i
			for j >= gap && a[j-gap] > v {
				a[j] = a[j-gap]
				j -= gap
			}
			a[j] = v
		}
	}
}

// Field3D is a volumetric scalar field indexed (level k, lat j, lon i).
type Field3D struct {
	Grid Grid
	Data []float32
}

// NewField3D allocates a zero field on g.
func NewField3D(g Grid) *Field3D {
	return &Field3D{Grid: g, Data: make([]float32, g.Size())}
}

// borrowField3D is NewField3D over a buffer from the tensor free list with
// unspecified contents, for a producer that overwrites every element.
func borrowField3D(g Grid) *Field3D {
	return &Field3D{Grid: g, Data: tensor.GetFloats(g.Size())}
}

// Release gives the field's backing array to the tensor free list and
// detaches it, so a use after release fails loudly. It is optional — a field
// that is never released is ordinary garbage — and only for a caller that
// owns the field outright and holds no other reference to Data.
func (f *Field3D) Release() {
	tensor.PutFloats(f.Data)
	f.Data = nil
}
