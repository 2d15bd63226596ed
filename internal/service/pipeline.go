package service

import (
	"fmt"

	"chaseci/internal/api"
	"chaseci/internal/connect"
	"chaseci/internal/dataset"
	"chaseci/internal/ffn"
	"chaseci/internal/merra"
)

// The pipeline job: a multi-timestep synthetic volume is cut into time
// slabs, and every slab flows through the three analysis stages the case
// study otherwise runs as separate jobs — IVT derivation, FFN flood-fill
// segmentation, CONNECT labelling — one slab at a time on the job's
// goroutine, so the job holds one slab's intermediates however long the
// volume is. Each slab is an independent analysis unit (its own
// normalization, seeding, flood, and labelling).
//
// Stage handoff is zero-copy in memory (the hot path PR 3 optimized):
// each slab's field is dropped as soon as the next stage consumes it. In
// ref result mode the segment stage additionally writes every mask into
// the content-addressed store (pinned, then promoted with Keep by the
// results loop), so each slab's mask is one GET /v1/datasets/{id} away in
// the result — the data plane's move-the-ref-not-the-data discipline at
// the job boundary, without re-encoding slabs the job itself consumes.

// pipeSlab is the item flowing through the pipeline stages.
type pipeSlab struct {
	start, steps int         // generator step range
	raw          *ffn.Volume // IVT output; released after segment
	mask         []byte      // segment output: the mask's encoding, labelled from its payload
	maskRef      string      // ref mode: the stored mask's dataset id
	res          api.PipelineSlabResult
}

// pipeRefs tracks the mask datasets a ref-mode pipeline run stores. Each
// track corresponds to one pin taken atomically inside PutPinned
// (identical slabs content-collide into one id with a tracker count).
// Completed slabs' masks are promoted with Keep and stay; whatever a
// cancellation orphans is deleted by the final sweep — but only ids this
// run actually created (created=true), and Manager-level Keep/pin
// deferral ensures a content collision with a user upload, a kept result,
// or a concurrent identical job never destroys data someone else wants.
type refEntry struct {
	count   int
	created bool
}

type pipeRefs struct {
	ds    *dataset.Manager
	masks map[string]*refEntry
}

// track records a handoff id whose pin the producing stage already took
// atomically inside PutPinned (a separate Pin here would leave a window
// for a concurrent job's release to delete a content-colliding id first).
// Each track is matched by one Unpin in releaseOne / the final sweep.
func (p *pipeRefs) track(set map[string]*refEntry, id string, created bool) {
	e := set[id]
	if e == nil {
		e = &refEntry{}
		set[id] = e
	}
	e.count++
	// created sticks: a later idempotent re-put must not demote it.
	e.created = e.created || created
}

// release runs after the results loop has Keep-promoted every completed
// slab's mask: remaining claims are unpinned and created-but-orphaned
// masks (from cancelled slabs) are deleted — Delete no-ops on kept ids,
// so promoted results survive.
func (p *pipeRefs) release() {
	for id, e := range p.masks {
		if e.created {
			p.ds.Delete(id)
		}
		for ; e.count > 0; e.count-- {
			p.ds.Unpin(id)
		}
		delete(p.masks, id)
	}
}

// PipelineHandler executes a pipeline job. A failed or cancelled run stops
// before the next stage starts and reports the slabs that completed all
// three stages alongside the error.
func PipelineHandler(jc *JobContext) (any, error) {
	ctx := jc.Ctx()
	spec := jc.Request().Pipeline
	sy := spec.Synth
	slabSteps := spec.SlabSteps
	if slabSteps <= 0 || slabSteps > sy.Steps {
		slabSteps = sy.Steps
	}
	slabs := (sy.Steps + slabSteps - 1) / slabSteps

	cfg := netConfig(spec.Net)
	net, err := jc.runner.nets.seeded(cfg, spec.NetSeed)
	if err != nil {
		return nil, err
	}
	stride := spec.SeedStride
	if stride == [3]int{} {
		stride = cfg.FOV
	}
	conn := connect.Conn26
	if spec.Connectivity == 6 {
		conn = connect.Conn6
	}
	g := merra.Grid{NLon: sy.NLon, NLat: sy.NLat, NLev: sy.NLev}
	gen := merra.NewGenerator(g, sy.Seed)
	levels := merra.PressureLevels(g.NLev)
	hw := g.NLon * g.NLat

	ds := jc.Datasets()
	owner := jc.Owner()
	keepMasks := jc.RefMode()
	refs := &pipeRefs{ds: ds, masks: make(map[string]*refEntry)}
	// Progress is stage-completions across all stages; the stage string
	// carries the per-stage breakdown the NDJSON stream shows live.
	var done [3]int64
	advance := func(stage int) {
		done[stage]++
		i, s, l := done[0], done[1], done[2]
		jc.Progress(i+s+l, int64(3*slabs),
			fmt.Sprintf("ivt %d/%d · segment %d/%d · label %d/%d", i, slabs, s, slabs, l, slabs))
	}
	jc.Progress(0, int64(3*slabs), "pipeline")

	// Each stage takes the slab the one before it returned (nil for the
	// first).
	stages := []struct {
		name string
		run  func(i int, sl *pipeSlab) (*pipeSlab, error)
	}{
		{"ivt", func(i int, _ *pipeSlab) (*pipeSlab, error) {
			start := sy.Start + i*slabSteps
			steps := slabSteps
			if rem := sy.Steps - i*slabSteps; steps > rem {
				steps = rem
			}
			sl := &pipeSlab{start: start, steps: steps}
			sl.res = api.PipelineSlabResult{Slab: i, StartStep: start, Steps: steps}
			vol, err := merra.IVTVolumeCtx(ctx, gen, levels, start, steps, nil)
			if err != nil {
				return nil, err
			}
			var sum float64
			for _, v := range vol.Data {
				sum += float64(v)
				if float64(v) > sl.res.IVTMax {
					sl.res.IVTMax = float64(v)
				}
			}
			sl.res.IVTMean = sum / float64(steps*hw)
			sl.raw = &ffn.Volume{D: steps, H: g.NLat, W: g.NLon, Data: vol.Data}
			return sl, nil
		}},
		{"segment", func(_ int, sl *pipeSlab) (*pipeSlab, error) {
			// Seeds come from the raw field, which the flood conditions as
			// it reads each FOV — the same order of operations as
			// SegmentHandler.
			seeds := ffn.GridSeeds(sl.raw, cfg.FOV, stride, spec.Threshold)
			mask, stats, err := net.Flood(ctx, sl.raw, ffn.MomentsOf(sl.raw.Data), seeds, 0, nil)
			defer mask.Release()
			if err != nil {
				return nil, err
			}
			ffn.ReleaseVolume(sl.raw) // the slab's image is dead past this stage
			sl.raw = nil
			// The encoding is what the label stage scans and, in ref mode,
			// what the store keeps.
			if sl.mask, err = dataset.EncodeMaskWords(mask.D, mask.H, mask.W, mask.Words); err != nil {
				return nil, err
			}
			if keepMasks {
				// Ref mode publishes every slab's mask content-addressed;
				// the pin lands atomically inside the put, and the results
				// loop promotes completed slabs with Keep.
				info, created, err := ds.PutPinned(sl.mask, owner)
				if err != nil {
					return nil, err
				}
				sl.maskRef = info.ID
				refs.track(refs.masks, info.ID, created)
			}
			sl.res.SegSteps = stats.Steps
			sl.res.SegMoves = stats.Moves
			sl.res.SeedsUsed = stats.SeedsUsed
			sl.res.MaskVoxels = stats.MaskVoxels
			return sl, nil
		}},
		{"label", func(_ int, sl *pipeSlab) (*pipeSlab, error) {
			bits := connect.FromBits(sl.steps, g.NLat, g.NLon, sl.mask[dataset.HeaderSize:])
			result, err := connect.LabelCtx(ctx, bits, conn, spec.MinVoxels, nil)
			if err != nil {
				return nil, err
			}
			result.Release() // only the objects are reported
			stats := connect.Summarize(result)
			sl.mask = nil // stored by the segment stage, labelled here: done
			sl.res.Objects = stats.Objects
			sl.res.ObjectVoxels = stats.TotalVoxels
			sl.res.MaxDuration = stats.MaxDuration
			return sl, nil
		}},
	}

	res := api.PipelineResult{Slabs: slabs}
	var runErr error
	for i := 0; i < slabs && runErr == nil; i++ {
		var sl *pipeSlab
		for s, st := range stages {
			if runErr = ctx.Err(); runErr != nil {
				break
			}
			if sl, runErr = st.run(i, sl); runErr != nil {
				runErr = fmt.Errorf("service: pipeline stage %q slab %d: %w", st.name, i, runErr)
				break
			}
			advance(s)
		}
		if runErr != nil {
			break
		}
		if keepMasks {
			// Promote while still pinned, so no concurrent deleter can
			// race the mask away between label and here.
			ds.Keep(sl.maskRef)
			sl.res.MaskRef = sl.maskRef
		}
		res.SlabsDone++
		res.Steps += sl.res.Steps
		res.IVTMean += sl.res.IVTMean * float64(sl.res.Steps)
		if sl.res.IVTMax > res.IVTMax {
			res.IVTMax = sl.res.IVTMax
		}
		res.SegSteps += sl.res.SegSteps
		res.SegMoves += sl.res.SegMoves
		res.SeedsUsed += sl.res.SeedsUsed
		res.MaskVoxels += sl.res.MaskVoxels
		res.VoxelsTotal += sl.res.Steps * hw
		res.Objects += sl.res.Objects
		res.ObjectVoxels += sl.res.ObjectVoxels
		if sl.res.MaxDuration > res.MaxDuration {
			res.MaxDuration = sl.res.MaxDuration
		}
		res.PerSlab = append(res.PerSlab, sl.res)
	}
	if res.Steps > 0 {
		res.IVTMean /= float64(res.Steps)
	}
	refs.release()
	if runErr == nil {
		runErr = ctx.Err()
	}
	return res, runErr
}
