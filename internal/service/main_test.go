package service

import (
	"os"
	"testing"

	"chaseci/internal/tensor"
)

// TestMain runs every test in the package with released free-list buffers
// poisoned to NaN. The handlers release their normalised images, label
// fields and masks; the bit-exactness suites here (ref vs inline, slab
// chains vs the whole scene, drain-and-requeue vs undisturbed) then fail on
// any read of a buffer after its release, because the NaN reaches a mask or
// a digest.
func TestMain(m *testing.M) {
	tensor.PoisonReleased(true)
	os.Exit(m.Run())
}
