//go:build amd64

package tensor

// Runtime CPU feature detection for the SIMD conv kernels. The 8-lane
// kernels need AVX2 (256-bit float lanes plus VPMASKMOV stores) and the
// paired 16-lane kernels convRow33x2 and convBwdW33x2 need AVX-512F; each
// needs the OS to have enabled the register state it uses (XCR0), which is
// what distinguishes "CPU has it" from "safe to execute".

//go:noescape
func cpuidEx(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbv0() (eax, edx uint32)

var hasAVX2, hasAVX512 = detectCPU()

func detectCPU() (avx2, avx512 bool) {
	maxLeaf, _, _, _ := cpuidEx(0, 0)
	if maxLeaf < 7 {
		return false, false
	}
	_, _, ecx1, _ := cpuidEx(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false, false
	}
	xcr0, _ := xgetbv0()
	// XMM (bit 1) and YMM (bit 2) state must be OS-managed for AVX.
	if xcr0&0x6 != 0x6 {
		return false, false
	}
	_, ebx7, _, _ := cpuidEx(7, 0)
	const avx2Bit, avx512fBit = 1 << 5, 1 << 16
	// AVX-512 also needs the opmask (bit 5) and ZMM (bits 6 and 7) state.
	return ebx7&avx2Bit != 0, ebx7&avx512fBit != 0 && xcr0&0xE6 == 0xE6
}
