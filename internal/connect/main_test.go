package connect

import (
	"os"
	"testing"

	"chaseci/internal/tensor"
)

// TestMain runs every test in the package with released free-list buffers
// poisoned to NaN (0x7fc00000 read as a label): the label array and the
// union-find tables are borrowed dirty, so a voxel the scan failed to write,
// or a label read after Release, changes a result instead of passing as the
// zero a fresh allocation would have held.
func TestMain(m *testing.M) {
	tensor.PoisonReleased(true)
	os.Exit(m.Run())
}
