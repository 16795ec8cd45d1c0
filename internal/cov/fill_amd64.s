// AVX2+FMA body of fillHalf (see fill_amd64.go for the Go declaration and
// cov.go for the scalar loop it replays).
//
// Bit contract: every lane is the scalar loop's bits. Each step is the
// operation the scalar code executes, in the same order, four lanes wide:
//
//	h = ‖p − q‖   math.Hypot's amd64 body (math/hypot_amd64.s): |dx|, |dy|,
//	              max, min, min/max, square, +1, sqrt, ×max
//	t = h/a       a real division
//	p(t)          halfCov's Horner, a VMULPD then a VADDPD per coefficient
//	              (the compiled Go loop does not fuse them)
//	e^{−t}        math.Exp's FMA branch (math/exp_amd64.s, avxfma): ×log2e,
//	              k by VCVTPD2DQ (MXCSR rounding, as CVTSD2SL), two FNMADDs
//	              with ln2's halves, ×1/16, the FMA Taylor polynomial, three
//	              x·(x+2), the fused x·(x+2)+1, then ×2^k built from k+1023
//	              shifted into the exponent field
//	v = (σ²·p)·e  then !(v ≥ 0) → 0 and min(v, σ²); σ²+τ² where h = 0
//
// The body replays only lanes on the path above: a 4-lane block holding a
// NaN or infinite coordinate difference, or t > 708 (where archExp turns to
// its denormal branch) on a lane with h ≠ 0, is left unwritten and ends the
// call. The caller gates σ² to (0, MaxFloat64] and a to (0, ∞], where the
// clamps and min agree with Go's on every lane.
//
// fillTab layout (every constant replicated ×4; byte offset = 32·index):
//
//	0 |x| mask  1 sign mask  2 1  3 2  4 1/16  5 log2e  6 ln2U  7 ln2L
//	8..14 1/8! … 1/2!  15 708  16 1023 (int32 lanes)

#include "textflag.h"

#define T_ABS    0(R15)
#define T_SIGN   32(R15)
#define T_ONE    64(R15)
#define T_TWO    96(R15)
#define T_16TH   128(R15)
#define T_LOG2E  160(R15)
#define T_LN2U   192(R15)
#define T_LN2L   224(R15)
#define T_E8     256(R15)
#define T_E7     288(R15)
#define T_E6     320(R15)
#define T_E5     352(R15)
#define T_E4     384(R15)
#define T_E3     416(R15)
#define T_E2     448(R15)
#define T_LIMIT  480(R15)
#define T_BIAS   512(R15)

// func fillHalfAVX2(dst []float64, pts []geo.Point, q geo.Point, c []float64, sigma2, diag, rang float64) int
TEXT ·fillHalfAVX2(SB), NOSPLIT, $0-120
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ pts_base+24(FP), SI
	MOVQ c_base+64(FP), R8
	MOVQ c_len+72(FP), R9
	MOVQ $·fillTab(SB), R15
	VBROADCASTSD q_X+48(FP), Y14
	VBROADCASTSD q_Y+56(FP), Y13
	VBROADCASTSD rang+104(FP), Y12
	VBROADCASTSD sigma2+88(FP), Y11
	VBROADCASTSD diag+96(FP), Y10
	VBROADCASTSD (R8), Y9          // c[0]
	VXORPD       Y8, Y8, Y8
	VMOVUPD      T_ABS, Y15
	XORQ         AX, AX
	SHRQ         $2, CX
	JZ           done

loop:
	// h = Hypot(p.X − q.X, p.Y − q.Y), lanes in point order.
	VMOVUPD      (SI), X0
	VINSERTF128  $1, 32(SI), Y0, Y0 // x0 y0 x2 y2
	VMOVUPD      16(SI), X1
	VINSERTF128  $1, 48(SI), Y1, Y1 // x1 y1 x3 y3
	VUNPCKLPD    Y1, Y0, Y2         // x
	VUNPCKHPD    Y1, Y0, Y3         // y
	VSUBPD       Y14, Y2, Y2        // dx
	VSUBPD       Y13, Y3, Y3        // dy
	VCMPPD       $3, Y3, Y2, Y7     // dx or dy NaN
	VANDPD       Y15, Y2, Y2
	VANDPD       Y15, Y3, Y3
	VMAXPD       Y3, Y2, Y4         // hi
	VMINPD       Y3, Y2, Y5         // lo
	VCMPPD       $0, Y8, Y4, Y6     // hi = 0: h = 0
	VDIVPD       Y4, Y5, Y5
	VMULPD       Y5, Y5, Y5
	VADDPD       T_ONE, Y5, Y5
	VSQRTPD      Y5, Y5
	VMULPD       Y5, Y4, Y5         // h
	VDIVPD       Y12, Y5, Y5        // t = h/a

	// Leave the block to the scalar loop unless every lane is replayable.
	VCMPPD       $6, T_LIMIT, Y5, Y4 // !(t ≤ 708)
	VANDNPD      Y4, Y6, Y4          // … where h ≠ 0
	VORPD        Y7, Y4, Y4
	VMOVMSKPD    Y4, DX
	TESTL        DX, DX
	JNZ          done

	// p(t), Horner with a separate multiply and add.
	VMOVAPD      Y9, Y0
	MOVQ         $1, DX

horner:
	CMPQ         DX, R9
	JGE          exp
	VBROADCASTSD (R8)(DX*8), Y1
	VMULPD       Y5, Y0, Y0
	VADDPD       Y1, Y0, Y0
	INCQ         DX
	JMP          horner

exp:
	// e^{−t}, archExp's FMA branch.
	VXORPD       T_SIGN, Y5, Y1     // x = −t
	VMULPD       T_LOG2E, Y1, Y2
	VCVTPD2DQY   Y2, X3             // k
	VCVTDQ2PD    X3, Y2
	VFNMADD231PD T_LN2U, Y2, Y1     // x − k·ln2U
	VFNMADD231PD T_LN2L, Y2, Y1     // x − k·ln2L
	VMULPD       T_16TH, Y1, Y1
	VMOVUPD      T_E8, Y2
	VFMADD213PD  T_E7, Y1, Y2
	VFMADD213PD  T_E6, Y1, Y2
	VFMADD213PD  T_E5, Y1, Y2
	VFMADD213PD  T_E4, Y1, Y2
	VFMADD213PD  T_E3, Y1, Y2
	VFMADD213PD  T_E2, Y1, Y2
	VFMADD213PD  T_ONE, Y1, Y2
	VMULPD       Y2, Y1, Y1
	VADDPD       T_TWO, Y1, Y2
	VMULPD       Y2, Y1, Y1         // x·(x+2)
	VADDPD       T_TWO, Y1, Y2
	VMULPD       Y2, Y1, Y1
	VADDPD       T_TWO, Y1, Y2
	VMULPD       Y2, Y1, Y1
	VADDPD       T_TWO, Y1, Y2
	VFMADD213PD  T_ONE, Y2, Y1      // x·(x+2) + 1
	VPADDD       T_BIAS, X3, X3     // k + 1023 ∈ [2, 1023]
	VPMOVZXDQ    X3, Y3
	VPSLLQ       $52, Y3, Y3        // 2^k
	VMULPD       Y3, Y1, Y1

	// v = σ²·p·e^{−t}, clamped; σ²+τ² where h = 0.
	VMULPD       Y11, Y0, Y0
	VMULPD       Y1, Y0, Y0
	VCMPPD       $13, Y8, Y0, Y2    // v ≥ 0
	VMINPD       Y11, Y0, Y0
	VANDPD       Y2, Y0, Y0
	VBLENDVPD    Y6, Y10, Y0, Y0
	VMOVUPD      Y0, (DI)

	ADDQ         $4, AX
	ADDQ         $32, DI
	ADDQ         $64, SI
	DECQ         CX
	JNZ          loop

done:
	MOVQ         AX, ret+112(FP)
	VZEROUPPER
	RET
