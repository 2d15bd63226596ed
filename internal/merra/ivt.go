package merra

import (
	"context"
	"math"
	"sync"

	"chaseci/internal/parallel"
)

// Integrated Water Vapor Transport: the vertically integrated horizontal
// moisture flux,
//
//	IVT = (1/g) * sqrt( (integral q*u dp)^2 + (integral q*v dp)^2 )
//
// computed with pressure-level weights. This is the variable the case study
// selects from M2I3NPASM via THREDDS subsetting and the quantity whose
// intense filaments ("atmospheric rivers") the CONNECT algorithm and the FFN
// segment.

const gravity = 9.80665 // m/s^2

// PressureLevels returns a plausible MERRA-2-like level set in Pa, surface
// first, for n levels spanning 1000 hPa down to 100 hPa.
func PressureLevels(n int) []float64 {
	levels := make([]float64, n)
	for k := 0; k < n; k++ {
		frac := float64(k) / float64(n-1)
		levels[k] = (1000 - 900*frac) * 100 // Pa
	}
	if n == 1 {
		levels[0] = 100000
	}
	return levels
}

// IVT computes the transport magnitude field from a state, using trapezoidal
// integration over the given pressure levels (surface first, decreasing).
// It panics if the level count disagrees with the state's grid, since that
// is always a wiring bug in experiment setup.
//
// The integration is sharded over latitude rows (each output element is
// computed entirely by one worker, so results are bit-exact at every worker
// count) and walks levels row-wise so each q*u / q*v product is computed
// once instead of twice as both trapezoid endpoints.
func IVT(st *State, levels []float64) *Field2D {
	out, _ := IVTCtx(context.Background(), st, levels)
	return out
}

// ivtRows is one shard's reusable row buffers: the running integrals and
// the previous level's products (the trapezoid's lower endpoints). Rows
// recycle through ivtRowsPool so steady-state IVT derivation allocates
// nothing per shard.
type ivtRows struct {
	fx, fy, quPrev, qvPrev []float64
}

var ivtRowsPool sync.Pool

func getIVTRows(nlon int) *ivtRows {
	if r, _ := ivtRowsPool.Get().(*ivtRows); r != nil && len(r.fx) >= nlon {
		return r
	}
	return &ivtRows{
		fx: make([]float64, nlon), fy: make([]float64, nlon),
		quPrev: make([]float64, nlon), qvPrev: make([]float64, nlon),
	}
}

// ivtTask is the pooled integration Task: one Run processes a chunk of
// latitude rows with its own pooled row buffers, so dispatch allocates
// nothing once warm.
type ivtTask struct {
	ctx      context.Context
	out      []float32
	q, u, v  []float32
	levels   []float64
	nlon, hw int
}

var ivtTaskPool = sync.Pool{New: func() any { return new(ivtTask) }}

func (t *ivtTask) Run(j0, j1 int) {
	nlon := t.nlon
	r := getIVTRows(nlon)
	for j := j0; j < j1; j++ {
		if t.ctx.Err() != nil {
			break
		}
		base := j * nlon
		r.integrate(t.out[base:base+nlon], t.q[base:], t.u[base:], t.v[base:], t.hw, t.levels)
	}
	ivtRowsPool.Put(r)
}

// integrate computes one latitude row of IVT into out from q, u and v, whose
// level k row starts at k*stride.
func (r *ivtRows) integrate(out, q, u, v []float32, stride int, levels []float64) {
	nlon := len(out)
	fx, fy := r.fx[:nlon], r.fy[:nlon]
	quPrev, qvPrev := r.quPrev[:nlon], r.qvPrev[:nlon]
	for i := 0; i < nlon; i++ {
		fx[i], fy[i] = 0, 0
		qf := float64(q[i])
		quPrev[i] = qf * float64(u[i])
		qvPrev[i] = qf * float64(v[i])
	}
	for k := 1; k < len(levels); k++ {
		dp := levels[k-1] - levels[k] // positive, Pa
		o := k * stride
		lq, lu, lv := q[o:o+nlon], u[o:o+nlon], v[o:o+nlon]
		for i := 0; i < nlon; i++ {
			qf := float64(lq[i])
			qu := qf * float64(lu[i])
			qv := qf * float64(lv[i])
			fx[i] += 0.5 * (quPrev[i] + qu) * dp
			fy[i] += 0.5 * (qvPrev[i] + qv) * dp
			quPrev[i], qvPrev[i] = qu, qv
		}
	}
	for i := 0; i < nlon; i++ {
		x := fx[i] / gravity
		y := fy[i] / gravity
		out[i] = float32(math.Sqrt(x*x + y*y))
	}
}

// IVTCtx is the context-aware IVT: cancellation is checked once per
// latitude row inside the sharded integration, and a cancelled context
// returns (nil, ctx.Err()). With a background context the field is
// bit-exactly IVT's. It panics on a level-count mismatch, like IVT.
// Beyond the output field itself (one Field2D: two allocations), the
// integration allocates nothing in steady state — the dispatch task and
// per-shard row buffers recycle through pools.
func IVTCtx(ctx context.Context, st *State, levels []float64) (*Field2D, error) {
	g := st.Q.Grid
	out := NewField2D(g.NLon, g.NLat)
	if err := ivtIntoCtx(ctx, out.Data, st, levels); err != nil {
		return nil, err
	}
	return out, nil
}

// ivtIntoCtx is the shared integration core: it shards the trapezoidal
// integration over latitude rows into out (length NLon*NLat, fully
// overwritten) and reports ctx's error if the run was cancelled.
func ivtIntoCtx(ctx context.Context, out []float32, st *State, levels []float64) error {
	g := st.Q.Grid
	if len(levels) != g.NLev {
		panic("merra: IVT level count mismatch")
	}
	t := ivtTaskPool.Get().(*ivtTask)
	t.ctx = ctx
	t.out = out
	t.q, t.u, t.v = st.Q.Data, st.U.Data, st.V.Data
	t.levels = levels
	t.nlon, t.hw = g.NLon, g.NLon*g.NLat
	parallel.InvokeGrain(g.NLat, 8, t)
	t.ctx, t.out, t.q, t.u, t.v, t.levels = nil, nil, nil, nil, nil, nil
	ivtTaskPool.Put(t)
	return ctx.Err()
}

// IVTVolume stacks per-step IVT fields into a (time, lat, lon) volume — the
// 576x361x240 training volume of the paper's step 2 at whatever scale the
// grid dictates. The returned Field3D uses NLev as the time axis.
func IVTVolume(gen *Generator, levels []float64, startStep, steps int) *Field3D {
	vol, _ := IVTVolumeCtx(context.Background(), gen, levels, startStep, steps, nil)
	return vol
}

// IVTVolumeCtx is the context-aware IVTVolume: each time step is
// synthesized and integrated under ctx, and a cancelled context returns
// (nil, ctx.Err()). progress (may be nil) is called with
// (stepsDone, steps) after each completed time step. No whole-field State
// exists: each step is one parallel fan-out over latitude rows, in which a
// lane synthesizes a row of every level into borrowed scratch — with the
// row synthesizer StateInto shards — and integrates it, while it is still
// in cache, straight into the volume's slab. Cancellation is checked per
// row. The result is bit-identical to integrating State(step) with IVT, at
// every worker count. The volume lives in a buffer borrowed dirty from the
// tensor free list (the integration overwrites every element); the caller
// may hand it back with Release once it is consumed.
func IVTVolumeCtx(ctx context.Context, gen *Generator, levels []float64, startStep, steps int, progress func(done, total int)) (*Field3D, error) {
	g := gen.Grid
	if len(levels) != g.NLev {
		panic("merra: IVT level count mismatch")
	}
	vol := borrowField3D(Grid{NLon: g.NLon, NLat: g.NLat, NLev: steps})
	hw := g.NLon * g.NLat
	t := synthTaskPool.Get().(*synthTask)
	defer t.release()
	t.ctx, t.levels = ctx, levels
	for s := 0; s < steps; s++ {
		t.plan.build(gen, startStep+s)
		t.out = vol.Data[s*hw : (s+1)*hw]
		parallel.InvokeGrain(g.NLat, synthRowGrain, t)
		if err := ctx.Err(); err != nil {
			vol.Release()
			return nil, err
		}
		if progress != nil {
			progress(s+1, steps)
		}
	}
	return vol, nil
}
