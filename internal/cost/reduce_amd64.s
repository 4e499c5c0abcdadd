//go:build !purego

#include "textflag.h"

// Both sums run over n = min(len(got), len(want)) cases: 8 per
// iteration into per-lane counts in Z4, then one masked iteration for
// the last 0-7 (zeroed lanes compare equal and count nothing), then a
// horizontal add of the 8 lanes.

// func hammingAVX512(got, want []uint64) int
TEXT ·hammingAVX512(SB), NOSPLIT, $0-56
	MOVQ got_base+0(FP), SI
	MOVQ got_len+8(FP), CX
	MOVQ want_base+24(FP), DI
	MOVQ want_len+32(FP), DX
	CMPQ DX, CX
	CMOVQLT DX, CX
	VPXORQ Z4, Z4, Z4
	XORQ AX, AX
	MOVQ CX, R9
	SUBQ $8, R9
	JLT  tail

loop:
	VMOVDQU64 (SI)(AX*8), Z0
	VPXORQ (DI)(AX*8), Z0, Z0
	VPOPCNTQ Z0, Z0
	VPADDQ Z0, Z4, Z4
	ADDQ $8, AX
	CMPQ AX, R9
	JLE  loop

tail:
	SUBQ AX, CX
	JLE  sum
	MOVL $1, DX
	SHLL CX, DX
	DECL DX
	KMOVB DX, K1
	VMOVDQU64.Z (SI)(AX*8), K1, Z0
	VMOVDQU64.Z (DI)(AX*8), K1, Z1
	VPXORQ Z1, Z0, Z0
	VPOPCNTQ Z0, Z0
	VPADDQ Z0, Z4, Z4

sum:
	VEXTRACTI64X4 $1, Z4, Y5
	VPADDQ Y5, Y4, Y4
	VEXTRACTI128 $1, Y4, X5
	VPADDQ X5, X4, X4
	VPSHUFD $0x4e, X4, X5
	VPADDQ X5, X4, X4
	VMOVQ X4, AX
	MOVQ AX, ret+48(FP)
	VZEROUPPER
	RET

// func mismatchAVX512(got, want []uint64) int
TEXT ·mismatchAVX512(SB), NOSPLIT, $0-56
	MOVQ got_base+0(FP), SI
	MOVQ got_len+8(FP), CX
	MOVQ want_base+24(FP), DI
	MOVQ want_len+32(FP), DX
	CMPQ DX, CX
	CMOVQLT DX, CX
	MOVQ $1, DX
	VPBROADCASTQ DX, Z3
	VPXORQ Z4, Z4, Z4
	XORQ AX, AX
	MOVQ CX, R9
	SUBQ $8, R9
	JLT  tail

loop:
	VMOVDQU64 (SI)(AX*8), Z0
	VPCMPUQ $4, (DI)(AX*8), Z0, K2
	VPADDQ Z3, Z4, K2, Z4
	ADDQ $8, AX
	CMPQ AX, R9
	JLE  loop

tail:
	SUBQ AX, CX
	JLE  sum
	MOVL $1, DX
	SHLL CX, DX
	DECL DX
	KMOVB DX, K1
	VMOVDQU64.Z (SI)(AX*8), K1, Z0
	VMOVDQU64.Z (DI)(AX*8), K1, Z1
	VPCMPUQ $4, Z1, Z0, K2
	VPADDQ Z3, Z4, K2, Z4

sum:
	VEXTRACTI64X4 $1, Z4, Y5
	VPADDQ Y5, Y4, Y4
	VEXTRACTI128 $1, Y4, X5
	VPADDQ X5, X4, X4
	VPSHUFD $0x4e, X4, X5
	VPADDQ X5, X4, X4
	VMOVQ X4, AX
	MOVQ AX, ret+48(FP)
	VZEROUPPER
	RET
