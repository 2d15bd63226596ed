package core

import (
	"bytes"
	"fmt"
	"testing"

	"chaseci/internal/merra"
)

func TestCAVERenderAssemblesWall(t *testing.T) {
	eco := Nautilus()
	cfg := DefaultCAVE()
	res, err := eco.RunCAVERender(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tiles != cfg.Rows*cfg.Cols {
		t.Fatalf("tiles = %d, want %d", res.Tiles, cfg.Rows*cfg.Cols)
	}
	if !bytes.HasPrefix(res.WallPGM, []byte("P5\n")) {
		t.Fatal("wall is not a PGM image")
	}
	if res.NodesUsed < 2 {
		t.Fatalf("render used %d nodes; expected distribution across the cluster", res.NodesUsed)
	}
	if res.BytesMoved <= 0 || res.VirtualTime <= 0 {
		t.Fatalf("traffic=%v time=%v", res.BytesMoved, res.VirtualTime)
	}
	// The assembled wall is stored for the display host.
	if _, err := eco.Storage.Get("suncave", "wall.pgm"); err != nil {
		t.Fatal("wall not stored:", err)
	}
}

func TestCAVERenderHonorsNodeSelector(t *testing.T) {
	eco := Nautilus()
	cfg := DefaultCAVE()
	cfg.NodeSelector = map[string]string{"site": "ucsd"}
	res, err := eco.RunCAVERender(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// All render pods must have landed on ucsd nodes; 12 tiles over 8 ucsd
	// FIONA8s runs fine.
	if res.Tiles != 12 {
		t.Fatalf("tiles = %d", res.Tiles)
	}
	for _, e := range eco.Cluster.Events() {
		if e.Kind == "PodScheduled" && len(e.Object) > 8 && e.Object[:8] == "suncave/" {
			if !bytes.Contains([]byte(e.Message), []byte("ucsd")) {
				t.Fatalf("render pod scheduled off-site: %s", e.Message)
			}
		}
	}
}

func TestCAVERenderValidation(t *testing.T) {
	eco := Nautilus()
	cfg := DefaultCAVE()
	cfg.Rows = 0
	if _, err := eco.RunCAVERender(cfg); err == nil {
		t.Fatal("zero-row wall accepted")
	}
}

// TestCAVERenderRetiles renders 3x4, then 2x2, then 3x4 again on one
// ecosystem: each wall is assembled from its own render's tiles alone, and
// every tiling shows the field pixel for pixel.
func TestCAVERenderRetiles(t *testing.T) {
	eco := Nautilus()
	cfg := DefaultCAVE()
	gen := merra.NewGenerator(cfg.Scene.Grid, cfg.Scene.Seed)
	field := merra.IVT(gen.State(20), merra.PressureLevels(cfg.Scene.Grid.NLev))
	want := []byte(fmt.Sprintf("P5\n%d %d\n255\n", field.NLon, field.NLat))
	for _, v := range field.Data {
		want = append(want, byte(v/field.Max()*255))
	}
	for _, tiling := range [][2]int{{3, 4}, {2, 2}, {3, 4}} {
		cfg.Rows, cfg.Cols = tiling[0], tiling[1]
		t.Run(fmt.Sprintf("%dx%d", cfg.Rows, cfg.Cols), func(t *testing.T) {
			res, err := eco.RunCAVERender(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Tiles != cfg.Rows*cfg.Cols {
				t.Fatalf("tiles = %d", res.Tiles)
			}
			if !bytes.Equal(res.WallPGM, want) {
				t.Fatal("wall differs from the field")
			}
		})
	}
}
