package viz

import (
	"bytes"
	"fmt"
)

// Tiled-wall rendering for the SunCAVE path (Section III-E4: "displaying the
// results on a large scale visualization system that runs on Nautilus, such
// as the SunCAVE"; Section VII: driving displays from 11 remote GPU nodes).
// A field is split into a grid of tiles, each rendered independently (in the
// cluster, by its own labeled GPU pod) and reassembled into the wall image.

// Tile is one rendered wall segment.
type Tile struct {
	Row, Col int
	H, W     int
	Pixels   []byte // grayscale, H*W
}

// TileGrid describes the wall: Rows x Cols tiles over an H x W field.
type TileGrid struct {
	Rows, Cols int
	H, W       int
}

// Bounds returns the pixel rectangle [y0,y1) x [x0,x1) of tile (r, c); edge
// tiles absorb the remainder.
func (g TileGrid) Bounds(r, c int) (y0, y1, x0, x1 int) {
	if r < 0 || r >= g.Rows || c < 0 || c >= g.Cols {
		panic(fmt.Sprintf("viz: tile (%d,%d) outside %dx%d grid", r, c, g.Rows, g.Cols))
	}
	th, tw := g.H/g.Rows, g.W/g.Cols
	y0, x0 = r*th, c*tw
	y1, x1 = y0+th, x0+tw
	if r == g.Rows-1 {
		y1 = g.H
	}
	if c == g.Cols-1 {
		x1 = g.W
	}
	return y0, y1, x0, x1
}

// RenderTile rasterizes one tile of a float32 field with the given global
// value range (all tiles must share the range or seams appear).
func RenderTile(data []float32, g TileGrid, r, c int, lo, hi float32) Tile {
	if len(data) != g.H*g.W {
		panic(fmt.Sprintf("viz: RenderTile got %d values for %dx%d", len(data), g.H, g.W))
	}
	y0, y1, x0, x1 := g.Bounds(r, c)
	span := hi - lo
	if span <= 0 {
		span = 1
	}
	t := Tile{Row: r, Col: c, H: y1 - y0, W: x1 - x0}
	t.Pixels = make([]byte, t.H*t.W)
	for y := y0; y < y1; y++ {
		for x := x0; x < x1; x++ {
			t.Pixels[(y-y0)*t.W+(x-x0)] = byte((data[y*g.W+x] - lo) / span * 255)
		}
	}
	return t
}

// AssembleWall stitches tiles back into a full-wall PGM image. It errors if
// any tile is missing, outside the grid or misshapen — a lost render pod
// must be visible, not silently black, and a tile read back from storage
// must not be trusted to fit.
func AssembleWall(g TileGrid, tiles []Tile) ([]byte, error) {
	seen := make(map[[2]int]bool)
	canvas := make([]byte, g.H*g.W)
	for _, t := range tiles {
		if t.Row < 0 || t.Row >= g.Rows || t.Col < 0 || t.Col >= g.Cols {
			return nil, fmt.Errorf("viz: tile (%d,%d) outside %dx%d grid", t.Row, t.Col, g.Rows, g.Cols)
		}
		y0, y1, x0, x1 := g.Bounds(t.Row, t.Col)
		if t.H != y1-y0 || t.W != x1-x0 || len(t.Pixels) != t.H*t.W {
			return nil, fmt.Errorf("viz: tile (%d,%d) is %dx%d with %d pixels, want %dx%d",
				t.Row, t.Col, t.H, t.W, len(t.Pixels), y1-y0, x1-x0)
		}
		if seen[[2]int{t.Row, t.Col}] {
			return nil, fmt.Errorf("viz: duplicate tile (%d,%d)", t.Row, t.Col)
		}
		seen[[2]int{t.Row, t.Col}] = true
		for y := 0; y < t.H; y++ {
			copy(canvas[(y0+y)*g.W+x0:(y0+y)*g.W+x1], t.Pixels[y*t.W:(y+1)*t.W])
		}
	}
	if len(seen) != g.Rows*g.Cols {
		return nil, fmt.Errorf("viz: assembled %d/%d tiles", len(seen), g.Rows*g.Cols)
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "P5\n%d %d\n255\n", g.W, g.H)
	buf.Write(canvas)
	return buf.Bytes(), nil
}
