//go:build !amd64

package tensor

// Stub so the span dispatch compiles on non-amd64; spanActive is always
// false there, so this is unreachable.
func conv33Flat(dst, pin, w *float32, cin, pch, pplane, pw, nvec int64, bias float32) {
	panic("tensor: conv33Flat called without SIMD support")
}
