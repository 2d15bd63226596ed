// Segmentation: the real-compute pipeline of the case study, end to end and
// over real sockets — a THREDDS HTTP server serves synthetic MERRA-2
// granules, an aria2-style parallel client downloads their IVT subsets, in
// time order, into the content-addressed dataset store, and steps 2-4 run
// over those bytes as chased/v1 jobs chained by ref (core.RunSegmentation):
// train_dist trains the Flood-Filling Network, segment floods the volume
// with the stored checkpoint, label tracks objects and runs the CONNECT
// baseline. Everything here is actual computation and actual network I/O
// on localhost; no virtual time.
package main

import (
	"context"
	"fmt"
	"log"

	"chaseci/internal/core"
	"chaseci/internal/dataset"
	"chaseci/internal/merra"
	"chaseci/internal/thredds"
	"chaseci/internal/viz"
)

func main() {
	grid := merra.Grid{NLon: 36, NLat: 24, NLev: 6}
	const granules = 12

	// --- Step 1: THREDDS download, one subset URL per granule ------------
	spec := merra.MERRA2().Slice(granules)
	catalog := thredds.NewCatalog(spec, merra.NewGenerator(grid, 11))
	srv, err := thredds.Serve(catalog, "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	urls := make([]string, granules)
	for i := range urls {
		urls[i] = srv.SubsetURL(spec.FileName(i), "IVT")
	}
	ds := dataset.NewLocal()
	ingest, err := dataset.FromTHREDDS(context.Background(), ds, &thredds.Downloader{Parallel: 4}, urls, "IVT", "")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("step 1: downloaded %d IVT subsets (%d bytes) over HTTP into dataset %.12s\n",
		ingest.Granules, ingest.BytesMoved, ingest.ID)

	// --- Steps 2-4: train, flood-fill, validate against CONNECT -----------
	rc := &core.RealComputeConfig{Seed: 3, TrainSteps: 400, Quantile: 0.90}
	rr, err := core.RunSegmentation(ds, ingest.ID, rc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("step 2: trained FFN over %d train_dist rounds, loss %.3f -> %.3f, checkpoint %.12s\n",
		rc.TrainSteps, rr.TrainLossHead, rr.TrainLossTail, rr.CheckpointRef)
	fmt.Printf("step 3: segmented the volume with that checkpoint by net_ref, mask %.12s\n", rr.MaskRef)
	fmt.Println("step 4: validation")
	fmt.Print(rr.ReportText)
	fmt.Printf("FFN mask yields %d objects; reference labels yield %d\n", rr.FFNObjects, rr.CONNObjects)

	vol, err := ds.Resolve(ingest.ID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nIVT field at t=0 (ASCII preview):")
	fmt.Print(viz.ASCIISlice(vol.Data[:vol.H*vol.W], vol.H, vol.W, 72))
}
