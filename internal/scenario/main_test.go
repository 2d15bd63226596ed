package scenario

import (
	"os"
	"testing"

	"chaseci/internal/tensor"
)

// TestMain runs the chaos matrix with released free-list buffers poisoned
// to NaN: a handler that read a volume after releasing it — on a retry, a
// requeue or a panic path — would break the matrix's bit-identical-to-
// baseline invariant.
func TestMain(m *testing.M) {
	tensor.PoisonReleased(true)
	os.Exit(m.Run())
}
