//go:build !purego

package cost

import "stochsyn/internal/prog/plan"

// The AVX-512 block sums of reduce_amd64.s, 8 cases per instruction.
func hammingAVX512(got, want []uint64) int
func mismatchAVX512(got, want []uint64) int

func init() {
	// The plan kernels' selection checks every feature these need
	// (AVX512F, VPOPCNTDQ, and the OS-enabled register state).
	if plan.KernelSet() == "avx512" {
		hammingSum, mismatchSum = hammingAVX512, mismatchAVX512
	}
}
