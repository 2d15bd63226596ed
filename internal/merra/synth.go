package merra

import (
	"context"
	"math"
	"slices"
	"sync"

	"chaseci/internal/parallel"
	"chaseci/internal/sim"
	"chaseci/internal/tensor"
)

// Generator produces a deterministic synthetic atmosphere: a moist
// background whose humidity decays with altitude, plus a set of intense
// moisture filaments ("atmospheric rivers") that translate across the grid
// between time steps, embedded in a zonal jet. The construction targets the
// property the CONNECT case study needs: thresholding the derived IVT field
// yields spatially coherent objects that persist and move through time, so
// both the CONNECT baseline and the FFN have meaningful structures to track.
//
// A Generator is only its grid and seed: the filament tracks they determine
// are built into the pooled per-step plan that synthesizes from it, and kept
// there for the next step of the same generator, so building one allocates
// nothing beyond the Generator itself and any number of goroutines may
// synthesize from one generator at once.
type Generator struct {
	Grid Grid
	Seed uint64
}

type arTrack struct {
	x0, y0   float64 // position at step 0, grid units
	vx, vy   float64 // drift per step
	length   float64 // filament half-length
	width    float64 // filament half-width
	angle    float64 // orientation
	strength float64 // humidity boost
	birth    int     // first step alive
	life     int     // steps alive
}

// filaments is the number of concurrent AR-like structures.
const filaments = 4

// NewGenerator builds a generator for the grid with the given seed.
func NewGenerator(g Grid, seed uint64) *Generator {
	return &Generator{Grid: g, Seed: seed}
}

// buildTracks writes the filament tracks of grid g and seed into tracks'
// array (grown as needed): enough overlapping tracks for ~200 steps of
// evolution, recycled cyclically so any step index is covered.
func buildTracks(tracks []arTrack, g Grid, seed uint64) []arTrack {
	rng := sim.NewRNG(seed)
	const poolPerFilament = 8
	tracks = slices.Grow(tracks[:0], filaments*poolPerFilament)[:filaments*poolPerFilament]
	for i := range tracks {
		life := 20 + rng.Intn(30)
		tracks[i] = arTrack{
			x0:       rng.Float64() * float64(g.NLon),
			y0:       (0.2 + 0.6*rng.Float64()) * float64(g.NLat),
			vx:       0.5 + rng.Float64()*1.5, // eastward drift dominates
			vy:       (rng.Float64() - 0.5) * 0.8,
			length:   float64(g.NLon) * (0.10 + 0.15*rng.Float64()),
			width:    float64(g.NLat) * (0.02 + 0.04*rng.Float64()),
			angle:    (rng.Float64() - 0.5) * math.Pi / 3,
			strength: 0.012 + 0.01*rng.Float64(),
			birth:    (i / filaments) * 25,
			life:     life,
		}
	}
	return tracks
}

// trackCycle is the step period after which the track pool repeats.
const trackCycle = 200

// State holds one time step's prognostic variables on the generator grid.
type State struct {
	Step int
	Q    *Field3D // specific humidity, kg/kg
	U    *Field3D // eastward wind, m/s
	V    *Field3D // northward wind, m/s
}

// State synthesizes the atmosphere at a time step. The same (grid, seed,
// step) always yields identical bytes.
func (g *Generator) State(step int) *State {
	st := &State{}
	g.StateInto(st, step)
	return st
}

// StateInto synthesizes the atmosphere at a time step into st, reusing its
// fields when they are on the generator's grid (allocating them otherwise).
// Latitude rows are synthesized in parallel, each straight into the fields
// by the same row synthesizer IVTVolumeCtx uses. Every element of Q, U and V
// is overwritten, so the result is byte-identical to a fresh State whatever
// st held before, and — each row having one writer and the noise coming from
// a counter — identical at every worker count.
func (g *Generator) StateInto(st *State, step int) {
	gr := g.Grid
	if st.Q == nil || st.Q.Grid != gr || st.U == nil || st.U.Grid != gr || st.V == nil || st.V.Grid != gr {
		st.Q, st.U, st.V = NewField3D(gr), NewField3D(gr), NewField3D(gr)
	}
	st.Step = step
	t := synthTaskPool.Get().(*synthTask)
	t.plan.build(g, step)
	t.st = st
	parallel.InvokeGrain(gr.NLat, synthRowGrain, t)
	t.release()
}

// synthRowGrain is the fewest latitude rows a synthesis chunk takes: a row
// of the chain's 72×48×8 grid costs ~6 µs, so four amortize a dispatch.
const synthRowGrain = 4

// stepPlan is what one step's synthesis needs beyond the generator: the
// grid's tables, the generator's tracks, the live tracks' geometry and, per
// live track, every column's wrapped longitude offset from the filament
// centre. Plans live in pooled synthTasks, so a steady-state step allocates
// nothing.
type stepPlan struct {
	gridTables
	// tracks are those of the generator (trackGrid, trackSeed) the plan was
	// last built for; a plan rebuilds them, in place, only for another one.
	tracks    []arTrack
	trackGrid Grid
	trackSeed uint64
	noiseSeed uint64
	live      []liveTrack
	dx        []float64 // len(live) rows of NLon offsets
}

// gridTables are the synthesis inputs that depend only on the grid: the
// vertical profiles per level, the meridional profiles per latitude row,
// and a filament's moisture decay exp(-4·k/NLev) per low level. A plan
// rebuilds them only when it is handed a generator on another grid.
type gridTables struct {
	grid          Grid
	qProfile, jet []float32
	qLat, uLat    []float32
	lowDecay      []float64
}

func (t *gridTables) build(gr Grid) {
	if t.grid == gr {
		return
	}
	t.grid = gr
	// Per-level vertical profiles: humidity concentrated near the surface
	// (level 0), jet peaking mid-troposphere.
	t.qProfile, t.jet = t.qProfile[:0], t.jet[:0]
	for k := 0; k < gr.NLev; k++ {
		frac := float64(k) / float64(gr.NLev)
		t.qProfile = append(t.qProfile, float32(0.01*math.Exp(-3*frac)))
		t.jet = append(t.jet, float32(10+25*math.Exp(-math.Pow((frac-0.35)/0.25, 2))))
	}
	// Meridional humidity gradient: moist tropics, dry poles; the jet
	// weakens poleward.
	t.qLat, t.uLat = t.qLat[:0], t.uLat[:0]
	for j := 0; j < gr.NLat; j++ {
		latFrac := float64(j)/float64(gr.NLat-1)*2 - 1 // -1..1
		t.qLat = append(t.qLat, float32(math.Exp(-math.Pow(latFrac/0.6, 2))))
		t.uLat = append(t.uLat, float32(1-0.5*math.Abs(latFrac)))
	}
	t.lowDecay = t.lowDecay[:0]
	for k := 0; k < gr.NLev/2; k++ { // moisture lives low
		t.lowDecay = append(t.lowDecay, math.Exp(-4*(float64(k)/float64(gr.NLev))))
	}
}

// liveTrack is one filament alive at the plan's step.
type liveTrack struct {
	cy, amp    float64 // centre row and intensity at this step
	sin, cos   float64 // of the filament's orientation
	reach      float64 // the Gaussian's cut-off distance
	denA, denB float64 // 2·length² and 2·width², the Gaussian's denominators
	// bCut bounds the cross-filament offset b: beyond it (b*b)/denB > 7
	// even as rounded, so the exponent is below -7 whatever a is.
	bCut float64
}

func (p *stepPlan) build(g *Generator, step int) {
	p.gridTables.build(g.Grid)
	if len(p.tracks) == 0 || p.trackGrid != g.Grid || p.trackSeed != g.Seed {
		p.tracks = buildTracks(p.tracks, g.Grid, g.Seed)
		p.trackGrid, p.trackSeed = g.Grid, g.Seed
	}
	nlon := float64(g.Grid.NLon)
	p.noiseSeed = g.Seed ^ (uint64(step) * 0x9e3779b97f4a7c15)
	p.live, p.dx = p.live[:0], p.dx[:0]
	cyc := step % trackCycle
	for _, tr := range p.tracks {
		age := cyc - tr.birth
		if age < 0 || age >= tr.life {
			continue
		}
		cx := math.Mod(tr.x0+tr.vx*float64(cyc), nlon)
		// Intensity ramps up then down over the track's life.
		lifeFrac := float64(age) / float64(tr.life)
		denB := 2 * tr.width * tr.width
		p.live = append(p.live, liveTrack{
			cy:    tr.y0 + tr.vy*float64(cyc),
			amp:   tr.strength * math.Sin(lifeFrac*math.Pi),
			sin:   math.Sin(tr.angle),
			cos:   math.Cos(tr.angle),
			reach: tr.length * 2.5,
			denA:  2 * tr.length * tr.length,
			denB:  denB,
			bCut:  math.Sqrt(7*denB) * (1 + 1e-9),
		})
		for i := 0; i < g.Grid.NLon; i++ {
			p.dx = append(p.dx, wrapDelta(float64(i)-cx, nlon))
		}
	}
}

// synthRow writes latitude row j of every level of the step into q, u and
// v, where level k's row starts at k*stride: the background, then the live
// filaments in track order, then the noise — per voxel the operations, and
// their order, of a serial sweep over the whole field.
func (p *stepPlan) synthRow(j int, q, u, v []float32, stride int) {
	nlon, nlat, nlev := p.grid.NLon, p.grid.NLat, p.grid.NLev
	qLat, uLat := p.qLat[j], p.uLat[j]
	for k := 0; k < nlev; k++ {
		qb, ub := p.qProfile[k]*qLat, p.jet[k]*uLat
		o := k * stride
		qr, ur, vr := q[o:o+nlon], u[o:o+nlon], v[o:o+nlon]
		for i := range qr {
			qr[i], ur[i], vr[i] = qb, ub, 0
		}
	}

	// Superpose the moving filaments: rotated anisotropic Gaussians,
	// wrapping in longitude.
	for ti := range p.live {
		tr := &p.live[ti]
		dy := float64(j) - tr.cy
		if math.Abs(dy) > tr.reach {
			continue
		}
		for i, dx := range p.dx[ti*nlon : (ti+1)*nlon] {
			if math.Abs(dx) > tr.reach {
				continue
			}
			// Rotate into filament frame. A voxel whose exponent is below -7
			// is skipped unevaluated: exp(-7) < 1e-3, so the amp*1e-3 test
			// below would drop it (amp is never negative, and at amp = 0 the
			// voxel would gain only ±0). Most voxels lie too far across the
			// filament, which b alone shows.
			b := -dx*tr.sin + dy*tr.cos
			if math.Abs(b) > tr.bCut {
				continue
			}
			a := dx*tr.cos + dy*tr.sin
			e := -(a*a)/tr.denA - (b*b)/tr.denB
			if e < -7 {
				continue
			}
			w := tr.amp * math.Exp(e)
			if w < tr.amp*1e-3 {
				continue
			}
			// Winds strengthen along the filament axis.
			du, dv := float32(w*2500*tr.cos), float32(w*2500*tr.sin)
			for k, decay := range p.lowDecay {
				o := k*stride + i
				q[o] += float32(w * decay)
				u[o] += du
				v[o] += dv
			}
		}
	}

	// Small-scale noise so fields are not perfectly smooth: the draw for
	// voxel idx is draw idx of the step's stream, wherever the row lands.
	for k := 0; k < nlev; k++ {
		rng := sim.NewRNG(p.noiseSeed)
		rng.Skip(uint64((k*nlat + j) * nlon))
		qr := q[k*stride : k*stride+nlon]
		for i, x := range qr {
			qr[i] = x * float32(1+0.05*(rng.Float64()-0.5))
		}
	}
}

// wrapDelta returns dx wrapped into [-period/2, period/2).
func wrapDelta(dx, period float64) float64 {
	dx = math.Mod(dx, period)
	if dx >= period/2 {
		dx -= period
	}
	if dx < -period/2 {
		dx += period
	}
	return dx
}

// synthTask is the pooled row-parallel Task behind StateInto and
// IVTVolumeCtx: Run synthesizes latitude rows of the plan's step, either
// straight into st's fields or, when out is set, into scratch holding one
// row of every level, which it integrates into out while the row is still
// in cache.
type synthTask struct {
	plan stepPlan

	st *State

	ctx    context.Context
	out    []float32 // NLon*NLat
	levels []float64
}

var synthTaskPool = sync.Pool{New: func() any { return new(synthTask) }}

func (t *synthTask) release() {
	t.st, t.ctx, t.out, t.levels = nil, nil, nil, nil
	synthTaskPool.Put(t)
}

func (t *synthTask) Run(j0, j1 int) {
	gr := t.plan.grid
	nlon := gr.NLon
	if t.out == nil {
		q, u, v := t.st.Q.Data, t.st.U.Data, t.st.V.Data
		for j := j0; j < j1; j++ {
			o := j * nlon
			t.plan.synthRow(j, q[o:], u[o:], v[o:], gr.HorizontalSize())
		}
		return
	}
	// The scratch comes from the tensor free list, which keeps it from job
	// to job; a sync.Pool would drop it at every other GC.
	n := gr.NLev * nlon
	buf := tensor.GetFloats(3 * n)
	q, u, v := buf[:n], buf[n:2*n], buf[2*n:]
	r := getIVTRows(nlon)
	for j := j0; j < j1; j++ {
		if t.ctx.Err() != nil {
			break
		}
		t.plan.synthRow(j, q, u, v, nlon)
		r.integrate(t.out[j*nlon:(j+1)*nlon], q, u, v, nlon, t.levels)
	}
	ivtRowsPool.Put(r)
	tensor.PutFloats(buf)
}
