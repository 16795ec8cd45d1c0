// FillBlock's lattice loop four lanes wide (see fill_amd64.go).
//
// The scalar loop per lane: v = k·a; v −= floor(v); when shifted, v += sh and
// v −= floor(v) again; then clamp01. Here the same IEEE operations run on
// four consecutive k at once — VMULPD, VROUNDPD toward −∞ (exact, as
// math.Floor is), VSUBPD, VADDPD — and the clamp is a max then a min against
// clamp01's bounds, which picks the same value as its two comparisons for
// every non-NaN v (and v is never NaN here). k stays an exact integer: the
// lanes start at k, k+1, k+2, k+3 and step by 4.

#include "textflag.h"

// func latticeFill(dst []float64, k, a, sh float64, shifted bool)
TEXT ·latticeFill(SB), NOSPLIT, $0-49
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	VBROADCASTSD k+24(FP), Y0
	VADDPD ·latticeTab+0(SB), Y0, Y0
	VBROADCASTSD a+32(FP), Y1
	VBROADCASTSD sh+40(FP), Y2
	MOVBLZX shifted+48(FP), AX
	VBROADCASTSD ·latticeTab+32(SB), Y3
	VBROADCASTSD ·latticeTab+40(SB), Y4
	VBROADCASTSD ·latticeTab+48(SB), Y5
	SHRQ $2, CX
	JZ   done
loop:
	VMULPD   Y1, Y0, Y6
	VROUNDPD $1, Y6, Y7
	VSUBPD   Y7, Y6, Y6
	TESTQ    AX, AX
	JZ       clamp
	VADDPD   Y2, Y6, Y6
	VROUNDPD $1, Y6, Y7
	VSUBPD   Y7, Y6, Y6
clamp:
	VMAXPD  Y4, Y6, Y6
	VMINPD  Y5, Y6, Y6
	VMOVUPD Y6, (DI)
	VADDPD  Y3, Y0, Y0
	ADDQ    $32, DI
	DECQ    CX
	JNZ     loop
done:
	VZEROUPPER
	RET
