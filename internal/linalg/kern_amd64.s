// Micro-kernels for the packed blocked GEMM (see blocked.go), and the
// level-1 AVX2 kernels beside them.
//
// One contract: a packed A micro-panel holds 16 doubles per depth step (128
// bytes, two cache lines), a packed B micro-panel 6 per depth step, and a
// kernel computes
//
//	C[i, j] += alpha · Σ_l ap[16·l + i] · bp[6·l + j],   i < 16, j < 6,
//
// straight into the column-major destination at c with ldc elements between
// columns. The sum is one FMA chain per element, from +0, in depth order; the
// write-back is a multiply by alpha and then an add into C — two roundings,
// NOT an FMA — which is what the Go loop it replaces did, so an answer does
// not depend on which kernel produced it.
//
// Two bodies share that layout. The AVX-512 one (suffix Z) holds the whole
// 16×6 tile in 12 ZMM accumulators: two 64-byte packed-A loads and six
// packed-B broadcasts feed 12 FMAs per depth step, which keeps two 512-bit
// FMA pipes busy. The AVX2 one (suffix Y) is the classic BLIS shape for 16
// YMM registers — 12 accumulators over half the panel height — run twice,
// once over each cache line of the depth step. The Z kernel uses AVX512F
// encodings only (VPXORQ: VXORPD on a ZMM register is AVX512DQ).

#include "textflag.h"

// func cpuKernelLevel() int
//
// 0: no vector kernels; 1: AVX2+FMA with OS-enabled YMM state; 2: also
// AVX512F with OS-enabled opmask and ZMM state.
TEXT ·cpuKernelLevel(SB), NOSPLIT, $0-8
	MOVQ $0, ret+0(FP)
	MOVQ $1, AX
	XORQ CX, CX
	CPUID
	// Need FMA (CX bit 12) and OSXSAVE (CX bit 27).
	ANDL $(1<<12 | 1<<27), CX
	CMPL CX, $(1<<12 | 1<<27)
	JNE  done
	// OS must have enabled XMM+YMM state (XCR0 bits 1 and 2).
	XORL CX, CX
	XGETBV
	MOVL AX, R8
	ANDL $6, AX
	CMPL AX, $6
	JNE  done
	// AVX2: leaf 7 subleaf 0, BX bit 5.
	MOVQ $7, AX
	XORQ CX, CX
	CPUID
	BTL  $5, BX
	JCC  done
	MOVQ $1, ret+0(FP)
	// AVX512F: BX bit 16, and XCR0 bits 5-7 (opmask, ZMM0-15 upper halves,
	// ZMM16-31) beside bits 1 and 2.
	BTL  $16, BX
	JCC  done
	ANDL $0xE6, R8
	CMPL R8, $0xE6
	JNE  done
	MOVQ $2, ret+0(FP)
done:
	RET

// WBCOL writes one column of the register tile back: (r0, r1) hold its two
// vectors, DX points at the column and R8 is the column stride in bytes.
#define WBCOL(alpha, r0, r1, off) \
	VMULPD alpha, r0, r0; \
	VMULPD alpha, r1, r1; \
	VADDPD (DX), r0, r0; \
	VADDPD off(DX), r1, r1; \
	VMOVUPD r0, (DX); \
	VMOVUPD r1, off(DX); \
	ADDQ R8, DX

// func dgemmKern16x6Z(k int, ap, bp, c *float64, ldc int, alpha float64)
TEXT ·dgemmKern16x6Z(SB), NOSPLIT, $0-48
	MOVQ k+0(FP), CX
	MOVQ ap+8(FP), SI
	MOVQ bp+16(FP), DI
	MOVQ c+24(FP), DX
	MOVQ ldc+32(FP), R8
	SHLQ $3, R8
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	VPXORQ Z8, Z8, Z8
	VPXORQ Z9, Z9, Z9
	VPXORQ Z10, Z10, Z10
	VPXORQ Z11, Z11, Z11
	TESTQ CX, CX
	JZ   dzwb
dzloop:
	VMOVUPD (SI), Z12
	VMOVUPD 64(SI), Z13
	VBROADCASTSD (DI), Z14
	VFMADD231PD Z12, Z14, Z0
	VFMADD231PD Z13, Z14, Z1
	VBROADCASTSD 8(DI), Z15
	VFMADD231PD Z12, Z15, Z2
	VFMADD231PD Z13, Z15, Z3
	VBROADCASTSD 16(DI), Z14
	VFMADD231PD Z12, Z14, Z4
	VFMADD231PD Z13, Z14, Z5
	VBROADCASTSD 24(DI), Z15
	VFMADD231PD Z12, Z15, Z6
	VFMADD231PD Z13, Z15, Z7
	VBROADCASTSD 32(DI), Z14
	VFMADD231PD Z12, Z14, Z8
	VFMADD231PD Z13, Z14, Z9
	VBROADCASTSD 40(DI), Z15
	VFMADD231PD Z12, Z15, Z10
	VFMADD231PD Z13, Z15, Z11
	ADDQ $128, SI
	ADDQ $48, DI
	DECQ CX
	JNZ  dzloop
dzwb:
	VBROADCASTSD alpha+40(FP), Z14
	WBCOL(Z14, Z0, Z1, 64)
	WBCOL(Z14, Z2, Z3, 64)
	WBCOL(Z14, Z4, Z5, 64)
	WBCOL(Z14, Z6, Z7, 64)
	WBCOL(Z14, Z8, Z9, 64)
	WBCOL(Z14, Z10, Z11, 64)
	VZEROUPPER
	RET

// func dgemmKern16x6Y(k int, ap, bp, c *float64, ldc int, alpha float64)
//
// The 8×6 YMM body over rows 0-7, then rows 8-15, of the 16-row panel.
TEXT ·dgemmKern16x6Y(SB), NOSPLIT, $0-48
	MOVQ ap+8(FP), SI
	MOVQ c+24(FP), DX
	MOVQ ldc+32(FP), R8
	SHLQ $3, R8
	MOVQ $2, R9
dyhalf:
	MOVQ k+0(FP), CX
	MOVQ bp+16(FP), DI
	MOVQ SI, R10
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11
	TESTQ CX, CX
	JZ   dywb
dyloop:
	VMOVUPD (R10), Y12
	VMOVUPD 32(R10), Y13
	VBROADCASTSD (DI), Y14
	VFMADD231PD Y12, Y14, Y0
	VFMADD231PD Y13, Y14, Y1
	VBROADCASTSD 8(DI), Y15
	VFMADD231PD Y12, Y15, Y2
	VFMADD231PD Y13, Y15, Y3
	VBROADCASTSD 16(DI), Y14
	VFMADD231PD Y12, Y14, Y4
	VFMADD231PD Y13, Y14, Y5
	VBROADCASTSD 24(DI), Y15
	VFMADD231PD Y12, Y15, Y6
	VFMADD231PD Y13, Y15, Y7
	VBROADCASTSD 32(DI), Y14
	VFMADD231PD Y12, Y14, Y8
	VFMADD231PD Y13, Y14, Y9
	VBROADCASTSD 40(DI), Y15
	VFMADD231PD Y12, Y15, Y10
	VFMADD231PD Y13, Y15, Y11
	ADDQ $128, R10
	ADDQ $48, DI
	DECQ CX
	JNZ  dyloop
dywb:
	VBROADCASTSD alpha+40(FP), Y14
	WBCOL(Y14, Y0, Y1, 32)
	WBCOL(Y14, Y2, Y3, 32)
	WBCOL(Y14, Y4, Y5, 32)
	WBCOL(Y14, Y6, Y7, 32)
	WBCOL(Y14, Y8, Y9, 32)
	WBCOL(Y14, Y10, Y11, 32)
	// Second half: 8 rows down in the panel and in C, back up six columns.
	ADDQ $64, SI
	MOVQ c+24(FP), DX
	ADDQ $64, DX
	DECQ R9
	JNZ  dyhalf
	VZEROUPPER
	RET

// func ddot(n int, x, y *float64) float64
TEXT ·ddot(SB), NOSPLIT, $0-32
	MOVQ n+0(FP), CX
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	MOVQ CX, DX
	SHRQ $3, DX
	JZ   dottail
dotloop:
	VMOVUPD (SI), Y2
	VMOVUPD 32(SI), Y3
	VFMADD231PD (DI), Y2, Y0
	VFMADD231PD 32(DI), Y3, Y1
	ADDQ $64, SI
	ADDQ $64, DI
	DECQ DX
	JNZ  dotloop
dottail:
	VADDPD Y1, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD X1, X0, X0
	VHADDPD X0, X0, X0
	ANDQ $7, CX
	JZ   dotdone
dotscalar:
	VMOVSD (SI), X2
	VMOVSD (DI), X3
	VFMADD231SD X3, X2, X0
	ADDQ $8, SI
	ADDQ $8, DI
	DECQ CX
	JNZ  dotscalar
dotdone:
	VMOVSD X0, ret+24(FP)
	VZEROUPPER
	RET

// func daxpy(n int, a float64, x, y *float64)
TEXT ·daxpy(SB), NOSPLIT, $0-32
	MOVQ n+0(FP), CX
	VBROADCASTSD a+8(FP), Y0
	MOVQ x+16(FP), SI
	MOVQ y+24(FP), DI
	MOVQ CX, DX
	SHRQ $3, DX
	JZ   axtail
axloop:
	VMOVUPD (SI), Y1
	VMOVUPD 32(SI), Y2
	VMOVUPD (DI), Y3
	VMOVUPD 32(DI), Y4
	VFMADD231PD Y0, Y1, Y3
	VFMADD231PD Y0, Y2, Y4
	VMOVUPD Y3, (DI)
	VMOVUPD Y4, 32(DI)
	ADDQ $64, SI
	ADDQ $64, DI
	DECQ DX
	JNZ  axloop
axtail:
	ANDQ $7, CX
	JZ   axdone
axscalar:
	VMOVSD (SI), X1
	VMOVSD (DI), X2
	VFMADD231SD X0, X1, X2
	VMOVSD X2, (DI)
	ADDQ $8, SI
	ADDQ $8, DI
	DECQ CX
	JNZ  axscalar
axdone:
	VZEROUPPER
	RET

// func drot(n int, x, y *float64, c, s float64)
TEXT ·drot(SB), NOSPLIT, $0-40
	MOVQ n+0(FP), CX
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI
	VBROADCASTSD c+24(FP), Y4
	VBROADCASTSD s+32(FP), Y5
	MOVQ CX, DX
	SHRQ $2, DX
	JZ   rottail
rotloop:
	VMOVUPD (SI), Y0
	VMOVUPD (DI), Y1
	VMULPD Y4, Y0, Y2
	VFNMADD231PD Y5, Y1, Y2
	VMULPD Y4, Y1, Y3
	VFMADD231PD Y5, Y0, Y3
	VMOVUPD Y2, (SI)
	VMOVUPD Y3, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ DX
	JNZ  rotloop
rottail:
	ANDQ $3, CX
	JZ   rotdone
rotscalar:
	VMOVSD (SI), X0
	VMOVSD (DI), X1
	VMULSD X4, X0, X2
	VFNMADD231SD X5, X1, X2
	VMULSD X4, X1, X3
	VFMADD231SD X5, X0, X3
	VMOVSD X2, (SI)
	VMOVSD X3, (DI)
	ADDQ $8, SI
	ADDQ $8, DI
	DECQ CX
	JNZ  rotscalar
rotdone:
	VZEROUPPER
	RET

// func daxpyCols(n, nt int, c *float64, incc int, y *float64, ldy int, acc *float64)
//
// acc[i] += c[t·incc]·y[t·ldy + i] for t = 0…nt−1 in order, i < n, skipping
// every t whose coefficient == 0 (a NaN is not skipped): daxpy's one FMA per
// term and element, but with the accumulators held in registers across all
// the terms — 16 lanes at a time in four YMM registers, then 4 at a time,
// then one. The skip test runs once per term and lane block (UCOMISD: equal
// is ZF=1 with PF=0; unordered sets PF).
TEXT ·daxpyCols(SB), NOSPLIT, $0-56
	MOVQ n+0(FP), CX
	MOVQ nt+8(FP), R8
	MOVQ c+16(FP), SI
	MOVQ incc+24(FP), BX
	SHLQ $3, BX
	MOVQ y+32(FP), DI
	MOVQ ldy+40(FP), R9
	SHLQ $3, R9
	MOVQ acc+48(FP), DX
	VXORPD X13, X13, X13
	TESTQ R8, R8
	JZ   done1
cb16:
	CMPQ CX, $16
	JLT  cb4
	VMOVUPD (DX), Y0
	VMOVUPD 32(DX), Y1
	VMOVUPD 64(DX), Y2
	VMOVUPD 96(DX), Y3
	MOVQ DI, R10
	MOVQ SI, R12
	MOVQ R8, R11
t16:
	VBROADCASTSD (R12), Y4
	VUCOMISD X13, X4
	JNE  f16
	JPS  f16
	JMP  n16
f16:
	VFMADD231PD (R10), Y4, Y0
	VFMADD231PD 32(R10), Y4, Y1
	VFMADD231PD 64(R10), Y4, Y2
	VFMADD231PD 96(R10), Y4, Y3
n16:
	ADDQ R9, R10
	ADDQ BX, R12
	DECQ R11
	JNZ  t16
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VMOVUPD Y3, 96(DX)
	ADDQ $128, DX
	ADDQ $128, DI
	SUBQ $16, CX
	JMP  cb16
cb4:
	CMPQ CX, $4
	JLT  cb1
	VMOVUPD (DX), Y0
	MOVQ DI, R10
	MOVQ SI, R12
	MOVQ R8, R11
t4:
	VBROADCASTSD (R12), Y4
	VUCOMISD X13, X4
	JNE  f4
	JPS  f4
	JMP  n4
f4:
	VFMADD231PD (R10), Y4, Y0
n4:
	ADDQ R9, R10
	ADDQ BX, R12
	DECQ R11
	JNZ  t4
	VMOVUPD Y0, (DX)
	ADDQ $32, DX
	ADDQ $32, DI
	SUBQ $4, CX
	JMP  cb4
cb1:
	TESTQ CX, CX
	JZ   done1
	VMOVSD (DX), X0
	MOVQ DI, R10
	MOVQ SI, R12
	MOVQ R8, R11
t1:
	VMOVSD (R12), X4
	VUCOMISD X13, X4
	JNE  f1
	JPS  f1
	JMP  n1
f1:
	VFMADD231SD (R10), X4, X0
n1:
	ADDQ R9, R10
	ADDQ BX, R12
	DECQ R11
	JNZ  t1
	VMOVSD X0, (DX)
	ADDQ $8, DX
	ADDQ $8, DI
	DECQ CX
	JMP  cb1
done1:
	VZEROUPPER
	RET
