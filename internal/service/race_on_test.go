//go:build race

package service

// raceEnabled reports that this test binary runs under the race detector,
// where sync.Pool intentionally drops items to expose races — the conv
// kernels' pooled task structs are then reallocated on most of a training
// job's ~960 backward calls. TestJobAllocBounds gives its training rows a
// looser bound there; the normal CI test job enforces the tight one.
const raceEnabled = true
