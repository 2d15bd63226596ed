package viz

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestTileGridBoundsCoverField(t *testing.T) {
	g := TileGrid{Rows: 3, Cols: 4, H: 25, W: 37} // uneven splits
	covered := make([]int, g.H*g.W)
	for r := 0; r < g.Rows; r++ {
		for c := 0; c < g.Cols; c++ {
			y0, y1, x0, x1 := g.Bounds(r, c)
			for y := y0; y < y1; y++ {
				for x := x0; x < x1; x++ {
					covered[y*g.W+x]++
				}
			}
		}
	}
	for i, n := range covered {
		if n != 1 {
			t.Fatalf("pixel %d covered %d times", i, n)
		}
	}
}

func TestTileGridBoundsPanicsOutOfRange(t *testing.T) {
	g := TileGrid{Rows: 2, Cols: 2, H: 10, W: 10}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range tile did not panic")
		}
	}()
	g.Bounds(2, 0)
}

func fieldFor(g TileGrid) []float32 {
	data := make([]float32, g.H*g.W)
	for i := range data {
		data[i] = float32(i % 251)
	}
	return data
}

func TestAssembleMatchesDirectRender(t *testing.T) {
	g := TileGrid{Rows: 2, Cols: 3, H: 20, W: 33}
	data := fieldFor(g)
	var tiles []Tile
	for r := 0; r < g.Rows; r++ {
		for c := 0; c < g.Cols; c++ {
			tiles = append(tiles, RenderTile(data, g, r, c, 0, 250))
		}
	}
	wall, err := AssembleWall(g, tiles)
	if err != nil {
		t.Fatal(err)
	}
	// Direct render of the same field with the same range.
	direct := make([]byte, g.H*g.W)
	for i, v := range data {
		direct[i] = byte(v / 250 * 255)
	}
	header := []byte("P5\n33 20\n255\n")
	if !bytes.HasPrefix(wall, header) {
		t.Fatalf("wall header = %q", wall[:len(header)])
	}
	if !bytes.Equal(wall[len(header):], direct) {
		t.Fatal("tiled assembly differs from direct render — seams present")
	}
}

func TestAssembleMissingTile(t *testing.T) {
	g := TileGrid{Rows: 2, Cols: 2, H: 10, W: 10}
	data := fieldFor(g)
	tiles := []Tile{
		RenderTile(data, g, 0, 0, 0, 250),
		RenderTile(data, g, 0, 1, 0, 250),
		RenderTile(data, g, 1, 0, 0, 250),
		// (1,1) missing: a lost render pod
	}
	if _, err := AssembleWall(g, tiles); err == nil {
		t.Fatal("missing tile not detected")
	}
}

func TestAssembleDuplicateTile(t *testing.T) {
	g := TileGrid{Rows: 1, Cols: 2, H: 4, W: 8}
	data := fieldFor(g)
	a := RenderTile(data, g, 0, 0, 0, 250)
	if _, err := AssembleWall(g, []Tile{a, a}); err == nil {
		t.Fatal("duplicate tile not detected")
	}
}

func TestAssembleMisshapenTile(t *testing.T) {
	g := TileGrid{Rows: 1, Cols: 2, H: 4, W: 8}
	data := fieldFor(g)
	a := RenderTile(data, g, 0, 0, 0, 250)
	b := RenderTile(data, g, 0, 1, 0, 250)
	b.W++ // corrupt
	if _, err := AssembleWall(g, []Tile{a, b}); err == nil {
		t.Fatal("misshapen tile not detected")
	}
}

func TestPropertyTilingLossless(t *testing.T) {
	// For any grid shape, render-tiles + assemble == direct scaling.
	f := func(rowsRaw, colsRaw, hRaw, wRaw uint8) bool {
		rows := int(rowsRaw%4) + 1
		cols := int(colsRaw%4) + 1
		h := int(hRaw%20) + rows
		w := int(wRaw%20) + cols
		g := TileGrid{Rows: rows, Cols: cols, H: h, W: w}
		data := fieldFor(g)
		var tiles []Tile
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				tiles = append(tiles, RenderTile(data, g, r, c, 0, 250))
			}
		}
		wall, err := AssembleWall(g, tiles)
		if err != nil {
			return false
		}
		// Wall payload must reproduce every pixel.
		idx := bytes.IndexByte(wall, '\n')
		idx += bytes.IndexByte(wall[idx+1:], '\n') + 1
		idx += bytes.IndexByte(wall[idx+1:], '\n') + 2
		payload := wall[idx:]
		if len(payload) != h*w {
			return false
		}
		for i, v := range data {
			if payload[i] != byte(v/250*255) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestAssembleBadStoredTile: a tile read back from storage that lies outside
// the grid, or whose pixels do not fill its H x W, is an error, not a panic.
func TestAssembleBadStoredTile(t *testing.T) {
	g := TileGrid{Rows: 1, Cols: 2, H: 4, W: 8}
	data := fieldFor(g)
	a := RenderTile(data, g, 0, 0, 0, 250)
	b := RenderTile(data, g, 0, 1, 0, 250)
	outside := b
	outside.Col = 2
	short := b
	short.Pixels = short.Pixels[:len(short.Pixels)-1]
	for name, bad := range map[string]Tile{"outside": outside, "short": short} {
		t.Run(name, func(t *testing.T) {
			if _, err := AssembleWall(g, []Tile{a, bad}); err == nil {
				t.Error("bad tile not detected")
			}
		})
	}
}
