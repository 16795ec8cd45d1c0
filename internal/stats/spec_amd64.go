//go:build amd64

package stats

import (
	"math"
	"os"
)

// CPUHasAVX2FMA reports whether the CPU and OS support the AVX2+FMA
// special-function kernels in spec_amd64.s (the same probe internal/linalg
// runs for its micro-kernels, plus POPCNT; duplicated so stats stays
// dependency-free). internal/cov gates its vector Fill body on it too.
func CPUHasAVX2FMA() bool

// erfcSimd fills dst[0:n] with mulOut·erfc(mulIn·x[i]) using the 4-lane AVX2
// kernel. n must be a positive multiple of 4; x and dst may alias exactly.
//
//go:noescape
func erfcSimd(n int, x, dst *float64, mulIn, mulOut float64)

// phiInvSimd fills dst[0:n] with Φ⁻¹(p[i]): the AS241 central rational
// (FMA in its polynomials) on central lanes, PhiInv's tail bit for bit on
// the others, and NaN — the flag for the scalar PhiInv — on a lane whose p is
// not a normal number in (0,1). n must be a positive multiple of 4; p and dst
// may alias exactly; tmp is scratch for 2n floats (the tail lanes, packed,
// and their indices).
//
//go:noescape
func phiInvSimd(n int, p, dst, tmp *float64)

// genzPreSimd is genzPre's vector form over lanes [0, n), n a positive
// multiple of 4, bit for bit (no FMA). s and sel may be nil; sel may be lp.
//
//go:noescape
func genzPreSimd(n int, lim, d float64, acc, s, sel, lp, x *float64)

// genzPostSimd is genzPost's vector form over lanes [0, n), n a positive
// multiple of 4, bit for bit (no FMA); kind is postTwoSided, postLower or
// postUpper.
//
//go:noescape
func genzPostSimd(n, kind int, a, b, w, dif, u *float64)

// hasVecSpecials gates the batch dispatchers in batch.go onto the AVX2
// kernels. Setting REPRO_NOASM to any non-empty value forces the portable
// scalar path, so the fallback stays continuously testable on
// vector-capable hosts (mirrors the switch in internal/linalg).
var hasVecSpecials = CPUHasAVX2FMA() && os.Getenv("REPRO_NOASM") == ""

// specTab holds every constant the vector kernels use, each replicated ×4 so
// the assembly's FMA/compare memory operands read a broadcast lane block
// directly. The index layout is documented at the top of spec_amd64.s; the
// FDLIBM coefficients are the ones math.Erfc and math.Exp use.
var specTab [137 * 4]float64

// tailPerm[m] is the VPERMD index vector that moves the lanes of a 4-lane
// block set in mask m to its front, in lane order; laneIdx holds the lane
// indices of the first block and the stride between blocks (phiInvSimd's
// packing of the tail lanes).
var (
	tailPerm [16][8]uint32
	laneIdx  = [8]int64{0, 1, 2, 3, 4, 4, 4, 4}
)

func init() {
	for m := range tailPerm {
		k := 0
		for j := uint32(0); j < 4; j++ {
			if m>>j&1 != 0 {
				tailPerm[m][2*k], tailPerm[m][2*k+1] = 2*j, 2*j+1
				k++
			}
		}
	}
	var vals [137]float64
	copy(vals[:], []float64{
		math.Float64frombits(0x7FFFFFFFFFFFFFFF), // 0: |x| mask
		1,                                        // 1
		2,                                        // 2
		8.45062911510467529297e-01,               // 3: erx = erf(0.84375)
		0.84375,                                  // 4: region-1/2 boundary
		1.25,                                     // 5: region-2/3 boundary
		1 / 0.35,                                 // 6: ra/sa vs rb/sb boundary
		1.28379167095512558561e-01,               // 7: pp0
		-3.25042107247001499370e-01,              // pp1
		-2.84817495755985104766e-02,              // pp2
		-5.77027029648944159157e-03,              // pp3
		-2.37630166566501626084e-05,              // pp4
		3.97917223959155352819e-01,               // 12: qq1
		6.50222499887672944485e-02,               // qq2
		5.08130628187576562776e-03,               // qq3
		1.32494738004321644526e-04,               // qq4
		-3.96022827877536812320e-06,              // qq5
		-2.36211856075265944077e-03,              // 17: pa0
		4.14856118683748331666e-01,               // pa1
		-3.72207876035701323847e-01,              // pa2
		3.18346619901161753674e-01,               // pa3
		-1.10894694282396677476e-01,              // pa4
		3.54783043256182359371e-02,               // pa5
		-2.16637559486879084300e-03,              // pa6
		1.06420880400844228286e-01,               // 24: qa1
		5.40397917702171048937e-01,               // qa2
		7.18286544141962662868e-02,               // qa3
		1.26171219808761642112e-01,               // qa4
		1.36370839120290507362e-02,               // qa5
		1.19844998467991074170e-02,               // qa6
		-9.86494403484714822705e-03,              // 30: ra0
		-6.93858572707181764372e-01,              // ra1
		-1.05586262253232909814e+01,              // ra2
		-6.23753324503260060396e+01,              // ra3
		-1.62396669462573470355e+02,              // ra4
		-1.84605092906711035994e+02,              // ra5
		-8.12874355063065934246e+01,              // ra6
		-9.81432934416914548592e+00,              // ra7
		1.96512716674392571292e+01,               // 38: sa1
		1.37657754143519042600e+02,               // sa2
		4.34565877475229228821e+02,               // sa3
		6.45387271733267880336e+02,               // sa4
		4.29008140027567833386e+02,               // sa5
		1.08635005541779435134e+02,               // sa6
		6.57024977031928170135e+00,               // sa7
		-6.04244152148580987438e-02,              // sa8
		-9.86494292470009928597e-03,              // 46: rb0
		-7.99283237680523006574e-01,              // rb1
		-1.77579549177547519889e+01,              // rb2
		-1.60636384855821916062e+02,              // rb3
		-6.37566443368389627722e+02,              // rb4
		-1.02509513161107724954e+03,              // rb5
		-4.83519191608651397019e+02,              // rb6
		3.03380607434824582924e+01,               // 53: sb1
		3.25792512996573918826e+02,               // sb2
		1.53672958608443695994e+03,               // sb3
		3.19985821950859553908e+03,               // sb4
		2.55305040643316442583e+03,               // sb5
		4.74528541206955367215e+02,               // sb6
		-2.24409524465858183362e+01,              // sb7
		1.44269504088896338700e+00,               // 60: log2(e)
		6.93147180369123816490e-01,               // 61: ln2 hi
		1.90821492927058770002e-10,               // 62: ln2 lo
		1.66666666666666657415e-01,               // 63: exp P1
		-2.77777777770155933842e-03,              // exp P2
		6.61375632143793436117e-05,               // exp P3
		-1.65339022054652515390e-06,              // exp P4
		4.13813679705723846039e-08,               // exp P5
		4503599627370496.0 + 1023,                // 68: 2^52 + exponent bias
		-708.0,                                   // 69: exp underflow clamp
		0.5625,                                   // 70
		0.5,                                      // 71
		0.180625,                                 // 72
	})
	copy(vals[73:81], ppnd16A[:])
	copy(vals[81:88], ppnd16B[1:])
	copy(vals[88:106], []float64{
		math.Float64frombits(0x000FFFFFFFFFFFFF), // 88: mantissa mask
		1 << 52,                                  // 89: 2^52, OR-ed onto a small integer
		1<<52 + 1022,                             // 90: 2^52 + (exponent bias − 1)
		7.07106781186547524401e-01,               // 91: √2/2 (archLog's HSqrt2)
		6.666666666666735130e-01,                 // 92: archLog L1
		3.999999999940941908e-01,                 // L2
		2.857142874366239149e-01,                 // L3
		2.222219843214978396e-01,                 // L4
		1.818357216161805012e-01,                 // L5
		1.531383769920937332e-01,                 // L6
		1.479819860511658591e-01,                 // 98: L7
		1.6,                                      // 99
		5,                                        // 100
		0.425,                                    // 101
		0x1p-1022,                                // 102: smallest normal
		math.Inf(1),                              // 103
		Sqrt2,                                    // 104
		math.Float64frombits(1 << 63),            // 105: sign mask
	})
	copy(vals[106:114], ppnd16C[:])
	copy(vals[114:121], ppnd16D[1:])
	copy(vals[121:129], ppnd16E[:])
	copy(vals[129:136], ppnd16F[1:])
	vals[136] = math.NaN() // the flag of a lane left to the scalar Φ⁻¹
	for i, v := range vals {
		for l := 0; l < 4; l++ {
			specTab[4*i+l] = v
		}
	}
}
