package core

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"testing"

	"chaseci/internal/dataset"
	"chaseci/internal/merra"
	"chaseci/internal/objstore"
	"chaseci/internal/queue"
	"chaseci/internal/thredds"
)

// TestRealSocketsEndToEnd drives the whole data path over actual TCP/HTTP on
// localhost, no virtual time: granule URLs flow through the Redis-protocol
// queue, the aria2-style client subsets them from the THREDDS server straight
// into the ecosystem's dataset store, steps 2-4 run over those bytes by ref
// (RunSegmentation), and the checkpoint the training job stored round-trips
// through the S3 gateway of the Ceph-like store.
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

	// Redis over TCP.
	qsrv, err := queue.Serve(queue.NewStore(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer qsrv.Close()
	qc, err := queue.Dial(qsrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer qc.Close()

	// S3 gateway over the replicated store.
	eco := BuildNautilus(DefaultNautilus())
	s3, err := objstore.ServeGateway(eco.Storage, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()

	// Queue the subset URLs, drain them, download in parallel.
	for i := 0; i < granules; i++ {
		if _, err := qc.LPush("urls", tsrv.SubsetURL(spec.FileName(i), "IVT")); err != nil {
			t.Fatal(err)
		}
	}
	var urls []string
	for {
		u, err := qc.RPop("urls")
		if err == queue.ErrNil {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		urls = append(urls, u)
	}
	if len(urls) != granules {
		t.Fatalf("queue delivered %d urls, want %d", len(urls), granules)
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

	// Round-trip the stored checkpoint through the S3 gateway.
	model, err := eco.Datasets.GetBytes(rr.CheckpointRef)
	if err != nil {
		t.Fatal(err)
	}
	url := s3.BaseURL() + "/connect-models/e2e/ffn.ckpt"
	req, _ := http.NewRequest(http.MethodPut, url, bytes.NewReader(model))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("S3 PUT status %s", resp.Status)
	}
	resp, err = http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	back, _ := io.ReadAll(resp.Body)
	if dataset.ID(back) != rr.CheckpointRef {
		t.Fatal("checkpoint corrupted through the S3 gateway: the bytes no longer hash to its ref")
	}
	// The replicated store holds both copies with full redundancy.
	for _, obj := range [][2]string{{"connect-models", "e2e/ffn.ckpt"}, {"datasets", rr.CheckpointRef}} {
		if locs := eco.Storage.Locations(obj[0], obj[1]); len(locs) != 3 {
			t.Fatalf("%s/%s replicas = %d, want 3", obj[0], obj[1], len(locs))
		}
	}
}
