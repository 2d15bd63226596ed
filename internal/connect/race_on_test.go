//go:build race

package connect

// raceEnabled reports that this test binary runs under the race detector,
// where sync.Pool intentionally drops items to expose races — making
// steady-state allocation pins meaningless. Alloc-guard tests skip there;
// the normal CI test job still enforces them.
const raceEnabled = true
