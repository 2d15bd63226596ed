//go:build !amd64

package tensor

// Stubs so the span dispatches compile on non-amd64; spanActive is always
// false there, so these are unreachable.
func conv33Flat(dst, pin, w *float32, cin, pch, pplane, pw, nvec int64, bias float32) {
	panic("tensor: conv33Flat called without SIMD support")
}

func convBwdW33(dst, bias, pin, gt *float32, d, h, w, pplane, prow, istride, gstride, growSkip, gplaneSkip int64) {
	panic("tensor: convBwdW33 called without SIMD support")
}

func convBwdW33x2(dst, bias, pin, gt *float32, d, h, w, pplane, prow, istride, gstride, growSkip, gplaneSkip int64) {
	panic("tensor: convBwdW33x2 called without SIMD support")
}

func convRow33(dst, pin, w, bias, res *float32, cin, istride, prow, pplane, ostride, n int64, floor float32) {
	panic("tensor: convRow33 called without SIMD support")
}

func convRow33x2(dst, pin, w, bias, res *float32, cin, istride, prow, pplane, ostride, n int64, floor float32) {
	panic("tensor: convRow33x2 called without SIMD support")
}

func maskReLUGrad8(grad, act *float32, n int64) {
	panic("tensor: maskReLUGrad8 called without SIMD support")
}
