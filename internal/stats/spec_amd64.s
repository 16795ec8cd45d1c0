// AVX2+FMA batch special-function kernels (see spec_amd64.go for the Go
// declarations and batch.go for the dispatchers).
//
// Bit contract, kernel by kernel. FMA is allowed only where a kernel's
// result is not the scalar code's bits anyway:
//
//	erfcSimd      FMA in every polynomial and in the exp reduction; agrees
//	              with math.Erfc to ErfcVecMaxRel. A lane's bits never
//	              depend on the other lanes of its block (the region skips
//	              and blends only choose among per-lane values).
//	phiInvSimd    central lanes: FMA in A(r), B(r); to PhiInvVecMaxRel. Tail
//	              lanes: NO FMA anywhere — archLog's and poly8's multiplies
//	              and adds are separate VMULPD/VADDPD, sqrt is VSQRTPD —
//	              so a tail lane is PhiInv's bits.
//	genzPreSimd   NO FMA: lim·s, −acc, /d, /√2 (real divisions), exact sign
//	              flips — genzPre's bits.
//	genzPostSimd  NO FMA: u = da + w·dif is VMULPD then VADDPD — genzPost's
//	              bits.
//
// erfcSimd evaluates 4 lanes of erfc per iteration with the FDLIBM region
// scheme (the same rational approximations math.Erfc uses), made branch-free
// across lanes: the three region results are computed for every lane and
// mask-blended. The central regions
//
//	|x| <  0.84375          erf  = x + x·pp(x²)/qq(x²)
//	|x| ∈ [0.84375, 1.25)   erf  = erx + pa(|x|−1)/qa(|x|−1)
//
// combine into erfc = 1 − (erf ⊕ sign(x)), and the tail region
//
//	|x| ∈ [1.25, ∞)         erfc = exp(−x² − 0.5625 + R(1/x²)/S(1/x²))/|x|
//
// blends the ra/sa and rb/sb rationals BEFORE its single division and uses
// one vector exp (FDLIBM splits the exponential in two to stay exact; the
// single-split form costs ~x²·ε relative error, bounded by the documented
// tolerance in batch.go). The exp argument is clamped at −708 so the 2^k
// scale stays normal; erfc results below ~1e-305 may therefore be inflated
// by up to ~1.3e-309 absolute (they underflow toward DBL_MIN/|x| instead of
// true subnormal/zero). NaN lanes fall out of all region masks and inherit
// the NaN the central polynomials propagate; ±Inf lanes ride the tail
// region's exp(−Inf)/Inf → 0 and 2−0.
//
// The whole tail region is skipped (VMOVMSKPD) when no lane needs it — the
// common case for central conditioning values — saving the two rationals,
// the divisions and the exp; regions 1–2 are skipped when every lane is in
// the tail — the common case on an excursion box's half-open rows. Regions
// 1 and 2 blend their numerators and denominators before one division.
//
// specTab layout (Go side fills it; every constant replicated ×4 so FMA/cmp
// memory operands broadcast for free):
//
//	idx  0 absMask   1 one      2 two      3 erx     4 0.84375  5 1.25
//	     6 1/0.35    7..11 pp0..pp4       12..16 qq1..qq5
//	    17..23 pa0..pa6                   24..29 qa1..qa6
//	    30..37 ra0..ra7                   38..45 sa1..sa8
//	    46..52 rb0..rb6                   53..59 sb1..sb7
//	    60 log2e    61 ln2hi   62 ln2lo   63..67 expP1..expP5
//	    68 2^52+1023  69 −708  70 0.5625  71 0.5    72 0.180625
//	    73..80 ppnd16A[0..7]              81..87 ppnd16B[1..7]
//	    88 mantissa mask  89 2^52  90 2^52+1022  91 √2/2  92..98 archLog L1..L7
//	    99 1.6   100 5    101 0.425  102 2^-1022  103 +Inf  104 √2
//	   105 sign mask     106..113 ppnd16C[0..7]  114..120 ppnd16D[1..7]
//	   121..128 ppnd16E[0..7]        129..135 ppnd16F[1..7]   136 NaN

#include "textflag.h"

#define C_ABS   0(R15)
#define C_ONE   32(R15)
#define C_TWO   64(R15)
#define C_ERX   96(R15)
#define C_T1    128(R15)
#define C_T2    160(R15)
#define C_TAB   192(R15)
#define C_PP0   224(R15)
#define C_PP1   256(R15)
#define C_PP2   288(R15)
#define C_PP3   320(R15)
#define C_PP4   352(R15)
#define C_QQ1   384(R15)
#define C_QQ2   416(R15)
#define C_QQ3   448(R15)
#define C_QQ4   480(R15)
#define C_QQ5   512(R15)
#define C_PA0   544(R15)
#define C_PA1   576(R15)
#define C_PA2   608(R15)
#define C_PA3   640(R15)
#define C_PA4   672(R15)
#define C_PA5   704(R15)
#define C_PA6   736(R15)
#define C_QA1   768(R15)
#define C_QA2   800(R15)
#define C_QA3   832(R15)
#define C_QA4   864(R15)
#define C_QA5   896(R15)
#define C_QA6   928(R15)
#define C_RA0   960(R15)
#define C_RA1   992(R15)
#define C_RA2   1024(R15)
#define C_RA3   1056(R15)
#define C_RA4   1088(R15)
#define C_RA5   1120(R15)
#define C_RA6   1152(R15)
#define C_RA7   1184(R15)
#define C_SA1   1216(R15)
#define C_SA2   1248(R15)
#define C_SA3   1280(R15)
#define C_SA4   1312(R15)
#define C_SA5   1344(R15)
#define C_SA6   1376(R15)
#define C_SA7   1408(R15)
#define C_SA8   1440(R15)
#define C_RB0   1472(R15)
#define C_RB1   1504(R15)
#define C_RB2   1536(R15)
#define C_RB3   1568(R15)
#define C_RB4   1600(R15)
#define C_RB5   1632(R15)
#define C_RB6   1664(R15)
#define C_SB1   1696(R15)
#define C_SB2   1728(R15)
#define C_SB3   1760(R15)
#define C_SB4   1792(R15)
#define C_SB5   1824(R15)
#define C_SB6   1856(R15)
#define C_SB7   1888(R15)
#define C_LOG2E 1920(R15)
#define C_LN2HI 1952(R15)
#define C_LN2LO 1984(R15)
#define C_EP1   2016(R15)
#define C_EP2   2048(R15)
#define C_EP3   2080(R15)
#define C_EP4   2112(R15)
#define C_EP5   2144(R15)
#define C_KBIAS 2176(R15)
#define C_UFLOW 2208(R15)
#define C_C5625 2240(R15)
#define C_HALF  2272(R15)
#define C_R018  2304(R15)
#define C_A0    2336(R15)
#define C_A1    2368(R15)
#define C_A2    2400(R15)
#define C_A3    2432(R15)
#define C_A4    2464(R15)
#define C_A5    2496(R15)
#define C_A6    2528(R15)
#define C_A7    2560(R15)
#define C_B1    2592(R15)
#define C_B2    2624(R15)
#define C_B3    2656(R15)
#define C_B4    2688(R15)
#define C_B5    2720(R15)
#define C_B6    2752(R15)
#define C_B7    2784(R15)
#define C_MANT  2816(R15)
#define C_TWO52 2848(R15)
#define C_K1022 2880(R15)
#define C_HSQRT2 2912(R15)
#define C_L1    2944(R15)
#define C_L2    2976(R15)
#define C_L3    3008(R15)
#define C_L4    3040(R15)
#define C_L5    3072(R15)
#define C_L6    3104(R15)
#define C_L7    3136(R15)
#define C_1P6   3168(R15)
#define C_FIVE  3200(R15)
#define C_P425  3232(R15)
#define C_TINY  3264(R15)
#define C_INF   3296(R15)
#define C_SQRT2 3328(R15)
#define C_SIGN  3360(R15)
#define C_C0    3392(R15)
#define C_C1    3424(R15)
#define C_C2    3456(R15)
#define C_C3    3488(R15)
#define C_C4    3520(R15)
#define C_C5    3552(R15)
#define C_C6    3584(R15)
#define C_C7    3616(R15)
#define C_D1    3648(R15)
#define C_D2    3680(R15)
#define C_D3    3712(R15)
#define C_D4    3744(R15)
#define C_D5    3776(R15)
#define C_D6    3808(R15)
#define C_D7    3840(R15)
#define C_E0    3872(R15)
#define C_E1    3904(R15)
#define C_E2    3936(R15)
#define C_E3    3968(R15)
#define C_E4    4000(R15)
#define C_E5    4032(R15)
#define C_E6    4064(R15)
#define C_E7    4096(R15)
#define C_F1    4128(R15)
#define C_F2    4160(R15)
#define C_F3    4192(R15)
#define C_F4    4224(R15)
#define C_F5    4256(R15)
#define C_F6    4288(R15)
#define C_F7    4320(R15)
#define C_NAN   4352(R15)

// func CPUHasAVX2FMA() bool
TEXT ·CPUHasAVX2FMA(SB), NOSPLIT, $0-1
	MOVQ $1, AX
	XORQ CX, CX
	CPUID
	// Need FMA (CX bit 12), POPCNT (CX bit 23, phiInvSimd) and OSXSAVE
	// (CX bit 27).
	MOVL CX, R8
	ANDL $(1<<12 | 1<<23 | 1<<27), R8
	CMPL R8, $(1<<12 | 1<<23 | 1<<27)
	JNE  no
	// OS must have enabled XMM+YMM state (XCR0 bits 1 and 2).
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	// AVX2: leaf 7 subleaf 0, BX bit 5.
	MOVQ $7, AX
	XORQ CX, CX
	CPUID
	ANDL $(1<<5), BX
	JZ   no
	MOVB $1, ret+0(FP)
	RET
no:
	MOVB $0, ret+0(FP)
	RET

// func erfcSimd(n int, x, dst *float64, mulIn, mulOut float64)
//
// dst[i] = mulOut·erfc(mulIn·x[i]) for i < n; n must be a positive multiple
// of 4. x and dst may alias exactly (each block is fully loaded before its
// store).
TEXT ·erfcSimd(SB), NOSPLIT, $0-40
	MOVQ n+0(FP), CX
	MOVQ x+8(FP), SI
	MOVQ dst+16(FP), DI
	MOVQ $·specTab(SB), R15
	VBROADCASTSD mulIn+24(FP), Y14
	VBROADCASTSD mulOut+32(FP), Y13

eloop:
	VMOVUPD (SI), Y0
	VMULPD  Y14, Y0, Y0            // x ← mulIn·x
	VANDPD  C_ABS, Y0, Y1          // t = |x|

	// Region masks. A block whose every lane is in the tail skips regions
	// 1–2: the final blend takes region 3 in every lane.
	VMOVUPD C_T2, Y3
	VCMPPD  $13, Y3, Y1, Y3        // maskR3: t ≥ 1.25
	VMOVMSKPD Y3, AX
	CMPL    AX, $0xF
	JEQ     eregion3
	VMOVUPD C_T1, Y2
	VCMPPD  $1, Y2, Y1, Y2         // maskR1: t < 0.84375

	// Regions 1+2: E = erf(t), then erfc = 1 − (E ⊕ sign(x)). The two
	// rationals are blended before their one division (pp/qq on region-1
	// lanes, pa/qa elsewhere): each lane divides its own pair.
	VMULPD  Y1, Y1, Y5             // z = t²
	VMOVUPD C_PP4, Y6
	VFMADD213PD C_PP3, Y5, Y6
	VFMADD213PD C_PP2, Y5, Y6
	VFMADD213PD C_PP1, Y5, Y6
	VFMADD213PD C_PP0, Y5, Y6      // pp(z)
	VMOVUPD C_QQ5, Y7
	VFMADD213PD C_QQ4, Y5, Y7
	VFMADD213PD C_QQ3, Y5, Y7
	VFMADD213PD C_QQ2, Y5, Y7
	VFMADD213PD C_QQ1, Y5, Y7
	VFMADD213PD C_ONE, Y5, Y7      // qq(z) = 1 + z·(…)

	VMOVUPD C_ONE, Y8
	VSUBPD  Y8, Y1, Y5             // s = t − 1
	VMOVUPD C_PA6, Y8
	VFMADD213PD C_PA5, Y5, Y8
	VFMADD213PD C_PA4, Y5, Y8
	VFMADD213PD C_PA3, Y5, Y8
	VFMADD213PD C_PA2, Y5, Y8
	VFMADD213PD C_PA1, Y5, Y8
	VFMADD213PD C_PA0, Y5, Y8      // pa(s)
	VMOVUPD C_QA6, Y9
	VFMADD213PD C_QA5, Y5, Y9
	VFMADD213PD C_QA4, Y5, Y9
	VFMADD213PD C_QA3, Y5, Y9
	VFMADD213PD C_QA2, Y5, Y9
	VFMADD213PD C_QA1, Y5, Y9
	VFMADD213PD C_ONE, Y5, Y9      // qa(s) = 1 + s·(…)

	VBLENDVPD Y2, Y6, Y8, Y6       // maskR1 ? pp : pa
	VBLENDVPD Y2, Y7, Y9, Y7       // maskR1 ? qq : qa
	VDIVPD  Y7, Y6, Y6             // r = pp/qq resp. pa/qa
	VADDPD  C_ERX, Y6, Y8          // E2 = erx + pa/qa
	VFMADD213PD Y1, Y1, Y6         // E1 = t·r + t

	VBLENDVPD Y2, Y6, Y8, Y4       // E = maskR1 ? E1 : E2
	VMOVUPD C_ABS, Y5
	VANDNPD Y0, Y5, Y5             // sign bit of x
	VXORPD  Y4, Y5, Y5             // ±E
	VMOVUPD C_ONE, Y4
	VSUBPD  Y5, Y4, Y4             // res12 = 1 − ±E

	// Region 3, only when some lane has t ≥ 1.25.
	TESTL   AX, AX
	JE      eblend

eregion3:
	VMULPD  Y1, Y1, Y5             // z = t²
	VMOVUPD C_ONE, Y6
	VDIVPD  Y5, Y6, Y6             // s = 1/t²
	VMOVUPD C_RA7, Y7
	VFMADD213PD C_RA6, Y6, Y7
	VFMADD213PD C_RA5, Y6, Y7
	VFMADD213PD C_RA4, Y6, Y7
	VFMADD213PD C_RA3, Y6, Y7
	VFMADD213PD C_RA2, Y6, Y7
	VFMADD213PD C_RA1, Y6, Y7
	VFMADD213PD C_RA0, Y6, Y7      // Ra(s)
	VMOVUPD C_SA8, Y8
	VFMADD213PD C_SA7, Y6, Y8
	VFMADD213PD C_SA6, Y6, Y8
	VFMADD213PD C_SA5, Y6, Y8
	VFMADD213PD C_SA4, Y6, Y8
	VFMADD213PD C_SA3, Y6, Y8
	VFMADD213PD C_SA2, Y6, Y8
	VFMADD213PD C_SA1, Y6, Y8
	VFMADD213PD C_ONE, Y6, Y8      // Sa(s) = 1 + s·(…)
	VMOVUPD C_RB6, Y9
	VFMADD213PD C_RB5, Y6, Y9
	VFMADD213PD C_RB4, Y6, Y9
	VFMADD213PD C_RB3, Y6, Y9
	VFMADD213PD C_RB2, Y6, Y9
	VFMADD213PD C_RB1, Y6, Y9
	VFMADD213PD C_RB0, Y6, Y9      // Rb(s)
	VMOVUPD C_SB7, Y10
	VFMADD213PD C_SB6, Y6, Y10
	VFMADD213PD C_SB5, Y6, Y10
	VFMADD213PD C_SB4, Y6, Y10
	VFMADD213PD C_SB3, Y6, Y10
	VFMADD213PD C_SB2, Y6, Y10
	VFMADD213PD C_SB1, Y6, Y10
	VFMADD213PD C_ONE, Y6, Y10     // Sb(s) = 1 + s·(…)
	VMOVUPD C_TAB, Y11
	VCMPPD  $1, Y11, Y1, Y11       // t < 1/0.35 → ra/sa, else rb/sb
	VBLENDVPD Y11, Y7, Y9, Y7      // R
	VBLENDVPD Y11, Y8, Y10, Y8     // S
	VDIVPD  Y8, Y7, Y7             // R/S
	VSUBPD  C_C5625, Y7, Y7
	VSUBPD  Y5, Y7, Y7             // arg = R/S − 0.5625 − t²

	// exp(arg) → Y7 (FDLIBM kernel, one split; arg clamped ≥ −708 so the
	// 2^k scale stays a normal float).
	VMAXPD  C_UFLOW, Y7, Y7
	VMULPD  C_LOG2E, Y7, Y8
	VROUNDPD $0, Y8, Y8            // k
	VMOVAPD Y7, Y9
	VFNMADD231PD C_LN2HI, Y8, Y9   // hi = arg − k·ln2hi
	VMULPD  C_LN2LO, Y8, Y10       // lo = k·ln2lo
	VSUBPD  Y10, Y9, Y11           // rr = hi − lo
	VMULPD  Y11, Y11, Y12          // rr²
	VMOVUPD C_EP5, Y7
	VFMADD213PD C_EP4, Y12, Y7
	VFMADD213PD C_EP3, Y12, Y7
	VFMADD213PD C_EP2, Y12, Y7
	VFMADD213PD C_EP1, Y12, Y7    // pe(rr²)
	VMOVAPD Y11, Y5
	VFNMADD231PD Y7, Y12, Y5      // c = rr − rr²·pe
	VMOVUPD C_TWO, Y6
	VSUBPD  Y5, Y6, Y6            // 2 − c
	VMULPD  Y5, Y11, Y5           // rr·c
	VDIVPD  Y6, Y5, Y5            // q = rr·c/(2−c)
	VSUBPD  Y5, Y10, Y10          // lo − q
	VSUBPD  Y9, Y10, Y10          // (lo−q) − hi
	VMOVUPD C_ONE, Y9
	VSUBPD  Y10, Y9, Y9           // y = 1 − ((lo−q) − hi)
	VADDPD  C_KBIAS, Y8, Y8       // k + (2^52 + 1023)
	VPSLLQ  $52, Y8, Y8           // 2^k bit pattern
	VMULPD  Y8, Y9, Y7            // e = y·2^k

	VDIVPD  Y1, Y7, Y7            // r3 = e/t
	VXORPD  Y8, Y8, Y8
	VCMPPD  $1, Y8, Y0, Y8        // x < 0
	VMOVUPD C_TWO, Y9
	VSUBPD  Y7, Y9, Y9            // 2 − r3
	VBLENDVPD Y8, Y9, Y7, Y7      // res3
	VBLENDVPD Y3, Y7, Y4, Y4      // res = maskR3 ? res3 : res12

eblend:
	VMULPD  Y13, Y4, Y4            // mulOut·erfc
	VMOVUPD Y4, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	JG      eloop
	VZEROUPPER
	RET

// POLY8(c, r, acc) evaluates poly8(c, r) = ((c7·r + c6)·r + …)·r + c0 into
// acc, a multiply then an add per coefficient — no FMA, exactly the
// operations the Go poly8 compiles to.
#define POLY8(c7, c6, c5, c4, c3, c2, c1, c0, r, acc) \
	VMOVUPD c7, acc; \
	VMULPD  r, acc, acc; \
	VADDPD  c6, acc, acc; \
	VMULPD  r, acc, acc; \
	VADDPD  c5, acc, acc; \
	VMULPD  r, acc, acc; \
	VADDPD  c4, acc, acc; \
	VMULPD  r, acc, acc; \
	VADDPD  c3, acc, acc; \
	VMULPD  r, acc, acc; \
	VADDPD  c2, acc, acc; \
	VMULPD  r, acc, acc; \
	VADDPD  c1, acc, acc; \
	VMULPD  r, acc, acc; \
	VADDPD  c0, acc, acc

// func phiInvSimd(n int, p, dst, tmp *float64)
//
// dst[i] = Φ⁻¹(p[i]) for i < n (a positive multiple of 4); p and dst may
// alias exactly; tmp holds 2n floats of scratch. Three passes:
//
//  1. Every lane gets the AS241 central rational q·A(r)/B(r), r =
//     0.180625−q², with FMA in its two polynomials — the value a central
//     lane (|p−½| ≤ 0.425) keeps. The other lanes of each block (NaN
//     included) are packed, in order, to the front of tmp with their
//     indices behind them (VPERMD by tailPerm[mask]), branch-free.
//  2. The packed lanes, four at a time, get PhiInv's tail operation for
//     operation and with no FMA, so each value is PhiInv(p)'s bits:
//     r = p or 1−p, Go's amd64 archLog (math/log_amd64.s) on r, VSQRTPD of
//     its negation, then r ≤ 5 ? C(r−1.6)/D(r−1.6) : E(r−5)/F(r−5), negated
//     for p < ½; the far pair runs only when some lane of the block needs
//     it. A lane whose p is not a normal number in (0,1) — 0, 1, out of
//     range, NaN or subnormal — or whose value is not finite gets NaN: the
//     flag that leaves it to the scalar PhiInv.
//  3. The packed results are scattered back into dst.
//
// Packing keeps the tail pass dense: a sweep's uniforms put 15 % of lanes
// in the tails, but about half of all 4-lane blocks hold one.
TEXT ·phiInvSimd(SB), NOSPLIT, $0-32
	MOVQ n+0(FP), CX
	MOVQ p+8(FP), SI
	MOVQ dst+16(FP), DI
	MOVQ tmp+24(FP), R8           // packed tail p
	LEAQ (R8)(CX*8), R9           // their indices
	MOVQ $·specTab(SB), R15
	MOVQ $·tailPerm(SB), R12
	MOVQ $·laneIdx(SB), R11
	VMOVDQU 0(R11), Y13           // lane indices of the block (int64)
	VMOVDQU 32(R11), Y12          // 4 (int64)
	XORQ    BX, BX                // packed count
	XORQ    R10, R10              // byte offset of the block

ploop:
	VMOVUPD (SI)(R10*1), Y0       // p
	VSUBPD  C_HALF, Y0, Y1        // q = p − 0.5
	VMULPD  Y1, Y1, Y2            // q²  (unfused, matching the scalar)
	VMOVUPD C_R018, Y3
	VSUBPD  Y2, Y3, Y2            // r = 0.180625 − q²
	VMOVUPD C_A7, Y3
	VFMADD213PD C_A6, Y2, Y3
	VFMADD213PD C_A5, Y2, Y3
	VFMADD213PD C_A4, Y2, Y3
	VFMADD213PD C_A3, Y2, Y3
	VFMADD213PD C_A2, Y2, Y3
	VFMADD213PD C_A1, Y2, Y3
	VFMADD213PD C_A0, Y2, Y3      // A(r)
	VMOVUPD C_B7, Y4
	VFMADD213PD C_B6, Y2, Y4
	VFMADD213PD C_B5, Y2, Y4
	VFMADD213PD C_B4, Y2, Y4
	VFMADD213PD C_B3, Y2, Y4
	VFMADD213PD C_B2, Y2, Y4
	VFMADD213PD C_B1, Y2, Y4
	VFMADD213PD C_ONE, Y2, Y4     // B(r), B[0] = 1
	VMULPD  Y3, Y1, Y3            // q·A
	VDIVPD  Y4, Y3, Y3
	VMOVUPD Y3, (DI)(R10*1)
	VANDPD  C_ABS, Y1, Y2         // |q|
	VCMPPD  $2, C_P425, Y2, Y2    // central: |q| ≤ 0.425 (NaN: false)
	VMOVMSKPD Y2, AX
	XORL    $0xF, AX              // tail lanes
	MOVL    AX, DX
	SHLL    $5, DX
	VMOVDQU (R12)(DX*1), Y1
	VPERMD  Y0, Y1, Y2
	VMOVUPD Y2, (R8)(BX*8)
	VPERMD  Y13, Y1, Y2
	VMOVDQU Y2, (R9)(BX*8)
	POPCNTL AX, AX
	ADDQ    AX, BX
	VPADDQ  Y12, Y13, Y13
	ADDQ    $32, R10
	SUBQ    $4, CX
	JG      ploop

	TESTQ   BX, BX
	JEQ     pdone
	MOVQ    R8, SI
	MOVQ    BX, CX

tloop:
	VMOVUPD (SI), Y0              // p
	VSUBPD  C_HALF, Y0, Y1        // q = p − 0.5

	// r = q > 0 ? 1 − p : p; valid = p normal and < 1.
	VMOVUPD C_ONE, Y2
	VSUBPD  Y0, Y2, Y2            // 1 − p
	VXORPD  Y3, Y3, Y3
	VCMPPD  $14, Y3, Y1, Y4       // q > 0
	VBLENDVPD Y4, Y2, Y0, Y2      // r
	VCMPPD  $13, C_TINY, Y0, Y5   // p ≥ 2^-1022
	VCMPPD  $1, C_ONE, Y0, Y6     // p < 1
	VANDPD  Y6, Y5, Y5            // valid

	// log(r), archLog's steps: f1, k = frexp(r); f1 ≤ √2/2 → k−1, 2·f1.
	VANDPD  C_MANT, Y2, Y6
	VORPD   C_HALF, Y6, Y6        // f1
	VPSRLQ  $52, Y2, Y7
	VPOR    C_TWO52, Y7, Y7       // 2^52 + biased exponent (r > 0)
	VSUBPD  C_K1022, Y7, Y7       // k, exactly
	VCMPPD  $2, C_HSQRT2, Y6, Y8  // f1 ≤ √2/2 (archLog's CMPSD NLT)
	VANDPD  C_ONE, Y8, Y8         // 0 or 1
	VSUBPD  Y8, Y7, Y7            // k −= …
	VADDPD  C_ONE, Y8, Y8         // 1 or 2
	VMULPD  Y8, Y6, Y6            // f1 ·= …
	VSUBPD  C_ONE, Y6, Y6         // f = f1 − 1
	VADDPD  C_TWO, Y6, Y8         // 2 + f
	VDIVPD  Y8, Y6, Y8            // s = f/(2+f)
	VMULPD  Y8, Y8, Y9            // s2
	VMULPD  Y9, Y9, Y10           // s4
	VMULPD  C_L7, Y10, Y11
	VADDPD  C_L5, Y11, Y11
	VMULPD  Y10, Y11, Y11
	VADDPD  C_L3, Y11, Y11
	VMULPD  Y10, Y11, Y11
	VADDPD  C_L1, Y11, Y11
	VMULPD  Y11, Y9, Y9           // t1 = s2·(L1 + s4·(L3 + s4·(L5 + s4·L7)))
	VMULPD  C_L6, Y10, Y11
	VADDPD  C_L4, Y11, Y11
	VMULPD  Y10, Y11, Y11
	VADDPD  C_L2, Y11, Y11
	VMULPD  Y11, Y10, Y10         // t2 = s4·(L2 + s4·(L4 + s4·L6))
	VADDPD  Y10, Y9, Y9           // R = t1 + t2
	VMULPD  C_HALF, Y6, Y10
	VMULPD  Y6, Y10, Y10          // hfsq = 0.5·f·f
	VADDPD  Y10, Y9, Y9           // hfsq + R
	VMULPD  Y9, Y8, Y8            // s·(hfsq + R)
	VMULPD  C_LN2LO, Y7, Y9
	VADDPD  Y9, Y8, Y8            // … + k·Ln2Lo
	VSUBPD  Y8, Y10, Y10          // hfsq − (…)
	VSUBPD  Y6, Y10, Y10          // (…) − f
	VMULPD  C_LN2HI, Y7, Y7
	VSUBPD  Y10, Y7, Y7           // log r = k·Ln2Hi − (…)
	VXORPD  C_SIGN, Y7, Y7
	VSQRTPD Y7, Y7                // r = √(−log r)

	VSUBPD  C_1P6, Y7, Y8         // r − 1.6
	POLY8(C_C7, C_C6, C_C5, C_C4, C_C3, C_C2, C_C1, C_C0, Y8, Y9)
	POLY8(C_D7, C_D6, C_D5, C_D4, C_D3, C_D2, C_D1, C_ONE, Y8, Y10)
	VDIVPD  Y10, Y9, Y9           // x = C/D
	VCMPPD  $14, C_FIVE, Y7, Y10  // r > 5
	VMOVMSKPD Y10, AX
	TESTL   AX, AX
	JE      psign
	VSUBPD  C_FIVE, Y7, Y8        // r − 5
	POLY8(C_E7, C_E6, C_E5, C_E4, C_E3, C_E2, C_E1, C_E0, Y8, Y11)
	POLY8(C_F7, C_F6, C_F5, C_F4, C_F3, C_F2, C_F1, C_ONE, Y8, Y12)
	VDIVPD  Y12, Y11, Y11
	VBLENDVPD Y10, Y11, Y9, Y9    // x = r > 5 ? E/F : C/D

psign:
	VXORPD  Y10, Y10, Y10
	VCMPPD  $1, Y10, Y1, Y10      // q < 0
	VANDPD  C_SIGN, Y10, Y10
	VXORPD  Y10, Y9, Y9           // −x for q < 0
	VANDPD  C_ABS, Y9, Y10
	VCMPPD  $1, C_INF, Y10, Y10   // finite
	VANDPD  Y10, Y5, Y5
	VMOVUPD C_NAN, Y10
	VBLENDVPD Y5, Y9, Y10, Y9     // flagged lanes: NaN
	VMOVUPD Y9, (SI)
	ADDQ    $32, SI
	SUBQ    $4, CX
	JG      tloop

	XORQ    CX, CX

sloop:
	MOVQ    (R9)(CX*8), DX
	MOVQ    (R8)(CX*8), AX
	MOVQ    AX, (DI)(DX*8)
	INCQ    CX
	CMPQ    CX, BX
	JL      sloop

pdone:
	VZEROUPPER
	RET

// func genzPreSimd(n int, lim, d float64, acc, s, sel, lp, x *float64)
//
// genzPre's lanes i < n (a positive multiple of 4): v = lim (·s[i] when s is
// not nil), lp[i] = (v − acc[i])/d, x[i] = ±lp[i]/√2 — real divisions, no
// FMA, genzPre's operations in its order — negated where !(sel[i] ≥ 0)
// (NaN included), or everywhere when sel is nil. sel is read after lp is
// written, so sel may be lp.
TEXT ·genzPreSimd(SB), NOSPLIT, $0-64
	MOVQ n+0(FP), CX
	VBROADCASTSD lim+8(FP), Y10
	VBROADCASTSD d+16(FP), Y11
	MOVQ acc+24(FP), SI
	MOVQ s+32(FP), R8
	MOVQ sel+40(FP), R9
	MOVQ lp+48(FP), DI
	MOVQ x+56(FP), DX
	MOVQ $·specTab(SB), R15
	VMOVUPD C_SQRT2, Y12
	VMOVUPD C_SIGN, Y13
	VXORPD  Y14, Y14, Y14

preloop:
	VMOVAPD Y10, Y0
	TESTQ   R8, R8
	JZ      prenos
	VMULPD  (R8), Y0, Y0          // lim·s
	ADDQ    $32, R8

prenos:
	VSUBPD  (SI), Y0, Y0          // v − acc
	VDIVPD  Y11, Y0, Y0           // /d
	VMOVUPD Y0, (DI)              // lp
	VDIVPD  Y12, Y0, Y0           // /√2
	VMOVAPD Y13, Y1               // sel nil: negate every lane
	TESTQ   R9, R9
	JZ      preflip
	VMOVUPD (R9), Y1
	VCMPPD  $9, Y14, Y1, Y1       // !(sel ≥ 0)
	VANDPD  Y13, Y1, Y1
	ADDQ    $32, R9

preflip:
	VXORPD  Y1, Y0, Y0
	VMOVUPD Y0, (DX)
	ADDQ    $32, SI
	ADDQ    $32, DI
	ADDQ    $32, DX
	SUBQ    $4, CX
	JG      preloop
	VZEROUPPER
	RET

// func genzPostSimd(n, kind int, a, b, w, dif, u *float64)
//
// genzPost's lanes i < n (a positive multiple of 4), in place: e1 = dif[i],
// e2 = u[i] combine to dif and da by the row's kind — 0 two-sided
// (b ≤ a: 0, 0; a ≥ 0: e1−e2, 1−e1; else e2−e1, e1), 1 lower-only (a ≥ 0:
// e1, 1−e1; else 1−e1, e1; b unused), 2 upper-only (e1, 0; a, b unused) —
// then u = da + w·dif, a multiply then an add as genzPost compiles to.
TEXT ·genzPostSimd(SB), NOSPLIT, $0-56
	MOVQ n+0(FP), CX
	MOVQ kind+8(FP), DX
	MOVQ a+16(FP), R8
	MOVQ b+24(FP), R9
	MOVQ w+32(FP), SI
	MOVQ dif+40(FP), DI
	MOVQ u+48(FP), R10
	MOVQ $·specTab(SB), R15
	VXORPD  Y14, Y14, Y14
	VMOVUPD C_ONE, Y13

postloop:
	VMOVUPD (DI), Y0              // e1
	VMOVAPD Y0, Y8                // dif (upper-only)
	VMOVAPD Y14, Y9               // da  (upper-only)
	CMPQ    DX, $2
	JEQ     postu
	VMOVUPD (R8), Y1              // a′
	VCMPPD  $13, Y14, Y1, Y6      // a′ ≥ 0
	VSUBPD  Y0, Y13, Y7           // 1 − e1
	ADDQ    $32, R8
	CMPQ    DX, $1
	JEQ     postl
	VMOVUPD (R9), Y2              // b′
	VMOVUPD (R10), Y3             // e2
	VCMPPD  $2, Y1, Y2, Y4        // b′ ≤ a′
	VSUBPD  Y3, Y0, Y8            // e1 − e2
	VSUBPD  Y0, Y3, Y5            // e2 − e1
	VBLENDVPD Y6, Y8, Y5, Y8
	VBLENDVPD Y6, Y7, Y0, Y9
	VANDNPD Y8, Y4, Y8            // empty: 0
	VANDNPD Y9, Y4, Y9
	ADDQ    $32, R9
	JMP     postu

postl:
	VBLENDVPD Y6, Y0, Y7, Y8      // a′ ≥ 0 ? e1 : 1 − e1
	VBLENDVPD Y6, Y7, Y0, Y9      // a′ ≥ 0 ? 1 − e1 : e1

postu:
	VMULPD  (SI), Y8, Y10         // w·dif
	VADDPD  Y10, Y9, Y10          // da + w·dif
	VMOVUPD Y8, (DI)
	VMOVUPD Y10, (R10)
	ADDQ    $32, SI
	ADDQ    $32, DI
	ADDQ    $32, R10
	SUBQ    $4, CX
	JG      postloop
	VZEROUPPER
	RET
