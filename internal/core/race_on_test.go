//go:build race

package core

// raceEnabled reports that this test binary runs under the race detector,
// where a 300-round training takes ~20 s: TestRealComputeWorkflow then keeps
// the one run the workflow itself makes and leaves the other four seeds of
// its quality floor to the normal CI test job.
const raceEnabled = true
