package merra

import (
	"math"

	"chaseci/internal/sim"
)

// Generator produces a deterministic synthetic atmosphere: a moist
// background whose humidity decays with altitude, plus a set of intense
// moisture filaments ("atmospheric rivers") that translate across the grid
// between time steps, embedded in a zonal jet. The construction targets the
// property the CONNECT case study needs: thresholding the derived IVT field
// yields spatially coherent objects that persist and move through time, so
// both the CONNECT baseline and the FFN have meaningful structures to track.
type Generator struct {
	Grid Grid
	Seed uint64
	// Filaments is the number of concurrent AR-like structures (default 4).
	Filaments int

	tracks []arTrack
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

// NewGenerator builds a generator for the grid with the given seed.
func NewGenerator(g Grid, seed uint64) *Generator {
	gen := &Generator{Grid: g, Seed: seed, Filaments: 4}
	gen.initTracks()
	return gen
}

func (g *Generator) initTracks() {
	rng := sim.NewRNG(g.Seed)
	// Enough overlapping tracks for ~200 steps of evolution; tracks recycle
	// cyclically so any step index is covered.
	const poolPerFilament = 8
	n := g.Filaments * poolPerFilament
	g.tracks = make([]arTrack, n)
	for i := range g.tracks {
		life := 20 + rng.Intn(30)
		g.tracks[i] = arTrack{
			x0:       rng.Float64() * float64(g.Grid.NLon),
			y0:       (0.2 + 0.6*rng.Float64()) * float64(g.Grid.NLat),
			vx:       0.5 + rng.Float64()*1.5, // eastward drift dominates
			vy:       (rng.Float64() - 0.5) * 0.8,
			length:   float64(g.Grid.NLon) * (0.10 + 0.15*rng.Float64()),
			width:    float64(g.Grid.NLat) * (0.02 + 0.04*rng.Float64()),
			angle:    (rng.Float64() - 0.5) * math.Pi / 3,
			strength: 0.012 + 0.01*rng.Float64(),
			birth:    (i / g.Filaments) * 25,
			life:     life,
		}
	}
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
// Every element of Q, U and V is overwritten, so the result is byte-identical
// to a fresh State whatever st held before.
func (g *Generator) StateInto(st *State, step int) {
	gr := g.Grid
	if st.Q == nil || st.Q.Grid != gr || st.U == nil || st.U.Grid != gr || st.V == nil || st.V.Grid != gr {
		st.Q, st.U, st.V = NewField3D(gr), NewField3D(gr), NewField3D(gr)
	}
	st.Step = step
	rng := sim.NewRNG(g.Seed ^ (uint64(step) * 0x9e3779b97f4a7c15))

	cyc := step % trackCycle

	// Per-level vertical profiles: humidity concentrated near the surface
	// (level 0), jet peaking mid-troposphere.
	for k := 0; k < gr.NLev; k++ {
		frac := float64(k) / float64(gr.NLev)
		qProfile := float32(0.01 * math.Exp(-3*frac))
		jet := float32(10 + 25*math.Exp(-math.Pow((frac-0.35)/0.25, 2)))
		for j := 0; j < gr.NLat; j++ {
			// Meridional humidity gradient: moist tropics, dry poles.
			latFrac := float64(j)/float64(gr.NLat-1)*2 - 1 // -1..1
			qLat := float32(math.Exp(-math.Pow(latFrac/0.6, 2)))
			for i := 0; i < gr.NLon; i++ {
				idx := st.Q.Index(i, j, k)
				st.Q.Data[idx] = qProfile * qLat
				st.U.Data[idx] = jet * float32(1-0.5*math.Abs(latFrac))
				st.V.Data[idx] = 0
			}
		}
	}

	// Superpose moving filaments.
	for _, tr := range g.tracks {
		age := cyc - tr.birth
		if age < 0 || age >= tr.life {
			continue
		}
		cx := math.Mod(tr.x0+tr.vx*float64(cyc), float64(gr.NLon))
		cy := tr.y0 + tr.vy*float64(cyc)
		// Intensity ramps up then down over the track's life.
		lifeFrac := float64(age) / float64(tr.life)
		amp := tr.strength * math.Sin(lifeFrac*math.Pi)
		sinA, cosA := math.Sin(tr.angle), math.Cos(tr.angle)
		// Paint a rotated anisotropic Gaussian, wrapping in longitude.
		reach := tr.length * 2.5
		for j := 0; j < gr.NLat; j++ {
			dy := float64(j) - cy
			if math.Abs(dy) > reach {
				continue
			}
			for i := 0; i < gr.NLon; i++ {
				dx := wrapDelta(float64(i)-cx, float64(gr.NLon))
				if math.Abs(dx) > reach {
					continue
				}
				// Rotate into filament frame.
				a := dx*cosA + dy*sinA
				b := -dx*sinA + dy*cosA
				w := amp * math.Exp(-(a*a)/(2*tr.length*tr.length)-(b*b)/(2*tr.width*tr.width))
				if w < amp*1e-3 {
					continue
				}
				for k := 0; k < gr.NLev/2; k++ { // moisture lives low
					frac := float64(k) / float64(gr.NLev)
					idx := st.Q.Index(i, j, k)
					st.Q.Data[idx] += float32(w * math.Exp(-4*frac))
					// Winds strengthen along the filament axis.
					st.U.Data[idx] += float32(w * 2500 * cosA)
					st.V.Data[idx] += float32(w * 2500 * sinA)
				}
			}
		}
	}

	// Small-scale noise so fields are not perfectly smooth.
	for idx := range st.Q.Data {
		st.Q.Data[idx] *= float32(1 + 0.05*(rng.Float64()-0.5))
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
