package sim

import "math"

// RNG is a small, fast, deterministic pseudo-random generator (SplitMix64).
// Every stochastic component in the simulator draws from a seeded RNG so that
// experiments reproduce bit-for-bit. The zero value is a valid generator
// seeded with 0.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Fork derives an independent child generator; the child's stream does not
// overlap the parent's for any practical sequence length.
func (r *RNG) Fork() *RNG { return NewRNG(r.Uint64() ^ 0x9e3779b97f4a7c15) }

// golden is SplitMix64's state increment per draw.
const golden = 0x9e3779b97f4a7c15

// Skip advances r past n draws in constant time: SplitMix64's state is a
// counter, so draw n of a stream depends only on the seed and n. Workers that
// each Skip to their own offset draw exactly what one serial pass would.
func (r *RNG) Skip(n uint64) { r.state += n * golden }

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += golden
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn called with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard normal variate (Marsaglia polar method).
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}
