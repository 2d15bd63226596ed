package sim

import "testing"

// TestSkipMatchesSerialDraws: a generator that skips n draws yields draw n
// of the serial stream, for any n.
func TestSkipMatchesSerialDraws(t *testing.T) {
	const seed = 0xdecafbad
	serial := NewRNG(seed)
	for n := uint64(0); n < 1000; n++ {
		want := serial.Uint64()
		r := NewRNG(seed)
		r.Skip(n)
		if got := r.Uint64(); got != want {
			t.Fatalf("draw %d after Skip = %#x, serial %#x", n, got, want)
		}
	}
}
