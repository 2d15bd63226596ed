//go:build amd64

package tensor

// Runtime CPU feature detection for the SIMD conv kernels, which need AVX2
// (256-bit float lanes plus VPMASKMOV stores) and the OS to have enabled the
// YMM register state (XCR0), which is what distinguishes "CPU has it" from
// "safe to execute".

//go:noescape
func cpuidEx(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbv0() (eax, edx uint32)

var hasAVX2 = detectCPU()

func detectCPU() bool {
	maxLeaf, _, _, _ := cpuidEx(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuidEx(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	xcr0, _ := xgetbv0()
	// XMM (bit 1) and YMM (bit 2) state must be OS-managed for AVX.
	if xcr0&0x6 != 0x6 {
		return false
	}
	_, ebx7, _, _ := cpuidEx(7, 0)
	const avx2Bit = 1 << 5
	return ebx7&avx2Bit != 0
}
