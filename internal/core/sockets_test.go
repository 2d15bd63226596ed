package core

import (
	"context"
	"testing"

	"chaseci/internal/dataset"
	"chaseci/internal/merra"
	"chaseci/internal/thredds"
)

// TestRealSocketsEndToEnd drives the whole data path over actual HTTP on
// localhost, no virtual time: the aria2-style client subsets the granules
// from the THREDDS server straight into the ecosystem's dataset store, steps
// 2-4 run over those bytes by ref (RunSegmentation), and the checkpoint the
// training job stored sits in the Ceph-like store with full redundancy.
func TestRealSocketsEndToEnd(t *testing.T) {
	grid := merra.Grid{NLon: 36, NLat: 24, NLev: 6}
	const granules = 6

	// THREDDS over HTTP.
	spec := merra.MERRA2().Slice(granules)
	catalog := thredds.NewCatalog(spec, merra.NewGenerator(grid, 11))
	tsrv, err := thredds.Serve(catalog, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tsrv.Close()

	// Download the subsets in parallel into the ecosystem's dataset store.
	eco := Nautilus()
	urls := make([]string, granules)
	for i := range urls {
		urls[i] = tsrv.SubsetURL(spec.FileName(i), "IVT")
	}
	ingest, err := dataset.FromTHREDDS(context.Background(), eco.Datasets, &thredds.Downloader{Parallel: 3}, urls, "IVT", "")
	if err != nil {
		t.Fatal(err)
	}
	if info, _ := eco.Datasets.Stat(ingest.ID); ingest.Granules != granules || info.D != granules || info.H != grid.NLat || info.W != grid.NLon {
		t.Fatalf("ingested %d granules as %+v", ingest.Granules, info)
	}

	// Train briefly on, segment and label the volume that crossed the socket.
	rr, err := RunSegmentation(eco.Datasets, ingest.ID, &RealComputeConfig{Seed: 1, TrainSteps: 80, Quantile: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if rr.TrainLossTail >= rr.TrainLossHead {
		t.Fatalf("training on socket-delivered data did not reduce loss: %v -> %v", rr.TrainLossHead, rr.TrainLossTail)
	}

	// The replicated store holds the checkpoint with full redundancy.
	if locs := eco.Storage.Locations("datasets", rr.CheckpointRef); len(locs) != 3 {
		t.Fatalf("datasets/%s replicas = %d, want 3", rr.CheckpointRef, len(locs))
	}
}
