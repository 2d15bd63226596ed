//go:build !amd64

package tensor

// Non-amd64 builds have no SIMD kernels; every dispatch takes the portable
// scalar engine.
var hasAVX2, hasAVX512 = false, false
