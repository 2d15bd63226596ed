package service

import (
	"context"
	"testing"

	"chaseci/internal/api"
	"chaseci/internal/ffn"
	"chaseci/internal/queue"
)

// normalizedVolume conditions raw into a buffer borrowed from the free
// list: the tests' by-hand reference for the field a segment job's flood
// reads through its moments.
func normalizedVolume(raw *ffn.Volume) *ffn.Volume {
	return raw.NormalizeInto(ffn.BorrowVolume(raw.D, raw.H, raw.W))
}

// BenchmarkSegmentRefOneStep times the handler of a one-step segment job
// over a cached 64^3 volume ref — one seed, one network application, the
// mask re-put to the store — in process, with no gateway or queue: the job
// seg_ref64_burst's bursts are made of. The first job on the blob computes
// its moments; every timed one finds them.
func BenchmarkSegmentRefOneStep(b *testing.B) {
	r := NewRunnerConfigured(DefaultRegistry(), queue.NewStore(), RunnerConfig{Workers: 1})
	defer r.Close()
	d, h, w, data := bench64Volume()
	info, err := r.Datasets().PutVolume(d, h, w, data, "")
	if err != nil {
		b.Fatal(err)
	}
	req := &api.JobRequest{Kind: api.KindSegment, ResultMode: api.ResultModeRef,
		Segment: benchSegmentSpec(api.VolumeSource{Ref: info.ID})}
	if err := req.Validate(); err != nil {
		b.Fatal(err)
	}
	jc := &JobContext{ctx: context.Background(), job: &job{req: req}, runner: r, datasets: r.Datasets()}
	run := func() api.SegmentResult {
		res, err := SegmentHandler(jc)
		if err != nil {
			b.Fatal(err)
		}
		return res.(api.SegmentResult)
	}
	first := run()
	if first.Steps != 1 || first.MaskRef == "" {
		b.Fatalf("warm-up job: %+v, want one step and a mask ref", first)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if res := run(); res.MaskRef != first.MaskRef {
			b.Fatalf("mask ref %s, want %s", res.MaskRef, first.MaskRef)
		}
	}
}
