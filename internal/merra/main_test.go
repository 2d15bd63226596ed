package merra

import (
	"os"
	"testing"

	"chaseci/internal/tensor"
)

// TestMain runs every test in the package with released free-list buffers
// poisoned to NaN: IVTVolumeCtx borrows its row scratch and its output
// dirty, so an element the synthesis or the integration failed to overwrite
// becomes a NaN in a field instead of passing as a fresh allocation's zero.
func TestMain(m *testing.M) {
	tensor.PoisonReleased(true)
	os.Exit(m.Run())
}
