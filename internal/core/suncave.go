package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"chaseci/internal/cluster"
	"chaseci/internal/merra"
	"chaseci/internal/viz"
)

// CAVEConfig drives the Section III-E4 extension: render a result field on
// the SunCAVE tiled display wall by fanning tile-render pods out across
// labeled GPU nodes ("Kubernetes object labeling conventions enabled
// straightforward targeting of specific nodes") and streaming the tiles over
// the PRP to the display site.
type CAVEConfig struct {
	Namespace string
	// Rows x Cols is the display-wall tiling (the related-work demo drove 11
	// remote GPU nodes; defaults give a 3x4 = 12-tile wall).
	Rows, Cols int
	// DisplaySite is where the wall lives (tiles stream here).
	DisplaySite string
	// NodeSelector restricts render pods to specific nodes.
	NodeSelector map[string]string
	// Scene selects the field to render (IVT at its first time step).
	Scene *RealComputeConfig
}

// DefaultCAVE returns a 12-tile wall driven from UCSD-labeled GPU nodes.
func DefaultCAVE() CAVEConfig {
	return CAVEConfig{
		Namespace:    "suncave",
		Rows:         3,
		Cols:         4,
		DisplaySite:  "ucsd",
		NodeSelector: map[string]string{"gpu": "1080ti"},
		Scene:        DefaultRealCompute(),
	}
}

// CAVEResult reports a wall render.
type CAVEResult struct {
	WallPGM     []byte        // assembled P5 image
	Tiles       int           // tiles rendered
	NodesUsed   int           // distinct nodes that hosted render pods
	VirtualTime time.Duration // submit -> wall assembled
	BytesMoved  float64       // tile traffic into the display site
}

// RunCAVERender renders the scene's IVT field (t=0) on the wall: one pod per
// tile does the real rasterization, writes its tile to Ceph, and streams it
// to the display site over the WAN; the display assembles the wall.
func (e *Ecosystem) RunCAVERender(cfg CAVEConfig) (*CAVEResult, error) {
	if cfg.Rows <= 0 || cfg.Cols <= 0 {
		return nil, errors.New("core: CAVE tiling must be positive")
	}
	if cfg.Scene == nil {
		cfg.Scene = DefaultRealCompute()
	}
	if _, err := e.Cluster.CreateNamespace(cfg.Namespace, nil); err != nil && err != cluster.ErrDuplicate {
		return nil, err
	}

	// The field to display: IVT at the scene's first step.
	gen := merra.NewGenerator(cfg.Scene.Grid, cfg.Scene.Seed)
	levels := merra.PressureLevels(cfg.Scene.Grid.NLev)
	field := merra.IVT(gen.State(20), levels)
	grid := viz.TileGrid{Rows: cfg.Rows, Cols: cfg.Cols, H: field.NLat, W: field.NLon}
	lo, hi := float32(0), field.Max()

	mount := e.Storage.MountBucket("suncave")
	start := e.Clock.Now()
	bytesMoved := 0.0
	nodes := make(map[string]bool)

	job, err := e.Cluster.CreateJob(cluster.JobSpec{
		Name: "tile-render", Namespace: cfg.Namespace,
		Parallelism: cfg.Rows * cfg.Cols,
		Template: cluster.PodTemplate{
			Requests:     cluster.Resources{CPU: 1, Memory: 4e9, GPUs: 1},
			NodeSelector: cfg.NodeSelector,
			Labels:       map[string]string{"app": "suncave"},
			Run: func(pc *cluster.PodCtx) {
				idx := pc.Index()
				r, c := idx/cfg.Cols, idx%cfg.Cols
				// Real rasterization of this pod's tile.
				tile := viz.RenderTile(field.Data, grid, r, c, lo, hi)
				meta, err := json.Marshal(tile)
				if err != nil {
					pc.Fail(err.Error())
					return
				}
				if err := mount.WriteFile(tileKey(r, c), meta); err != nil {
					pc.Fail(err.Error())
					return
				}
				// Stream the tile to the display site over the PRP.
				node := e.Cluster.Node(pc.NodeName())
				nodes[node.Name] = true
				sz := float64(len(tile.Pixels))
				bytesMoved += sz
				e.Net.Transfer(node.Site, cfg.DisplaySite, sz, func() {
					if pc.Alive() {
						pc.Succeed()
					}
				})
			},
		},
	})
	if err != nil {
		return nil, err
	}
	done := false
	job.OnComplete(func(ok bool) { done = true })
	e.Clock.RunWhile(func() bool { return !done })
	if job.Failed() {
		return nil, errors.New("core: tile render job failed")
	}

	// The display host assembles the wall from the tiles this render's pods
	// stored (an earlier render on another tiling left its own keys).
	tiles := make([]viz.Tile, 0, cfg.Rows*cfg.Cols)
	for r := 0; r < cfg.Rows; r++ {
		for c := 0; c < cfg.Cols; c++ {
			data, err := mount.ReadFile(tileKey(r, c))
			if err != nil {
				return nil, err
			}
			var t viz.Tile
			if err := json.Unmarshal(data, &t); err != nil {
				return nil, err
			}
			tiles = append(tiles, t)
		}
	}
	wall, err := viz.AssembleWall(grid, tiles)
	if err != nil {
		return nil, err
	}
	if err := mount.WriteFile("wall.pgm", wall); err != nil {
		return nil, err
	}
	return &CAVEResult{
		WallPGM:     wall,
		Tiles:       len(tiles),
		NodesUsed:   len(nodes),
		VirtualTime: e.Clock.Now() - start,
		BytesMoved:  bytesMoved,
	}, nil
}

// tileKey is where the render pod of tile (r, c) stores it.
func tileKey(r, c int) string { return fmt.Sprintf("tiles/%d-%d.json", r, c) }
