//go:build !purego

package plan

// cpuid and xgetbv are in cpu_amd64.s.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// hasAVX512 reports whether the CPU and the operating system run the
// kernels of kernels_amd64.s and the cost sums built on them: AVX512F,
// DQ (KMOVB), CD (VPLZCNTQ), BW (VPSHUFB on 512 bits) and VL, plus
// VPOPCNTDQ, with the opmask and all 512-bit register state enabled by
// the OS in XCR0.
func hasAVX512() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave = 1 << 27
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 {
		return false
	}
	// XCR0: SSE (bit 1), AVX (2), opmask (5), ZMM0-15 upper halves (6),
	// ZMM16-31 (7).
	const xcr0 = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	if eax, _ := xgetbv(); eax&xcr0 != xcr0 {
		return false
	}
	const (
		avx512f   = 1 << 16 // CPUID.7.0:EBX
		avx512dq  = 1 << 17
		avx512cd  = 1 << 28
		avx512bw  = 1 << 30
		avx512vl  = 1 << 31
		vpopcntdq = 1 << 14 // CPUID.7.0:ECX
	)
	const need = avx512f | avx512dq | avx512cd | avx512bw | avx512vl
	_, ebx, ecx, _ := cpuid(7, 0)
	return ebx&need == need && ecx&vpopcntdq != 0
}

func init() {
	if hasAVX512() {
		useVector("avx512", &avx512, avxFill)
	}
}
