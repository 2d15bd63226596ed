package ffn

import (
	"os"
	"testing"

	"chaseci/internal/tensor"
)

// TestMain runs every test in the package — the bit-exactness sweeps above
// all — with released free-list buffers poisoned to NaN: a flood that read
// a scratch tensor, a mask's words or a volume after handing it back would
// change a mask or a statistic instead of passing unnoticed.
func TestMain(m *testing.M) {
	tensor.PoisonReleased(true)
	os.Exit(m.Run())
}
