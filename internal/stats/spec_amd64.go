//go:build amd64

package stats

import (
	"math"
	"os"
)

// statsCPUHasAVX2FMA reports whether the CPU and OS support the AVX2+FMA
// special-function kernels in spec_amd64.s (the same probe internal/linalg
// runs for its micro-kernels; duplicated so stats stays dependency-free).
func statsCPUHasAVX2FMA() bool

// erfcSimd fills dst[0:n] with mulOut·erfc(mulIn·x[i]) using the 4-lane AVX2
// kernel. n must be a positive multiple of 4; x and dst may alias exactly.
//
//go:noescape
func erfcSimd(n int, x, dst *float64, mulIn, mulOut float64)

// phiInvCentralSimd evaluates the AS241 central rational q·A(r)/B(r) for
// every lane of p[0:n], including lanes outside the central region
// |p−½| ≤ 0.425 whose garbage values the dispatcher overwrites. n must be a
// positive multiple of 4; p and dst may alias exactly.
//
//go:noescape
func phiInvCentralSimd(n int, p, dst *float64)

// hasVecSpecials gates the batch dispatchers in batch.go onto the AVX2
// kernels. Setting REPRO_NOASM to any non-empty value forces the portable
// scalar path, so the fallback stays continuously testable on
// vector-capable hosts (mirrors the switch in internal/linalg).
var hasVecSpecials = statsCPUHasAVX2FMA() && os.Getenv("REPRO_NOASM") == ""

// specTab holds every constant the vector kernels use, each replicated ×4 so
// the assembly's FMA/compare memory operands read a broadcast lane block
// directly. The index layout is documented at the top of spec_amd64.s; the
// FDLIBM coefficients are the ones math.Erfc and math.Exp use.
var specTab [88 * 4]float64

func init() {
	var vals [88]float64
	copy(vals[:], []float64{
		math.Float64frombits(0x7FFFFFFFFFFFFFFF), // 0: |x| mask
		1,                           // 1
		2,                           // 2
		8.45062911510467529297e-01,  // 3: erx = erf(0.84375)
		0.84375,                     // 4: region-1/2 boundary
		1.25,                        // 5: region-2/3 boundary
		1 / 0.35,                    // 6: ra/sa vs rb/sb boundary
		1.28379167095512558561e-01,  // 7: pp0
		-3.25042107247001499370e-01, // pp1
		-2.84817495755985104766e-02, // pp2
		-5.77027029648944159157e-03, // pp3
		-2.37630166566501626084e-05, // pp4
		3.97917223959155352819e-01,  // 12: qq1
		6.50222499887672944485e-02,  // qq2
		5.08130628187576562776e-03,  // qq3
		1.32494738004321644526e-04,  // qq4
		-3.96022827877536812320e-06, // qq5
		-2.36211856075265944077e-03, // 17: pa0
		4.14856118683748331666e-01,  // pa1
		-3.72207876035701323847e-01, // pa2
		3.18346619901161753674e-01,  // pa3
		-1.10894694282396677476e-01, // pa4
		3.54783043256182359371e-02,  // pa5
		-2.16637559486879084300e-03, // pa6
		1.06420880400844228286e-01,  // 24: qa1
		5.40397917702171048937e-01,  // qa2
		7.18286544141962662868e-02,  // qa3
		1.26171219808761642112e-01,  // qa4
		1.36370839120290507362e-02,  // qa5
		1.19844998467991074170e-02,  // qa6
		-9.86494403484714822705e-03, // 30: ra0
		-6.93858572707181764372e-01, // ra1
		-1.05586262253232909814e+01, // ra2
		-6.23753324503260060396e+01, // ra3
		-1.62396669462573470355e+02, // ra4
		-1.84605092906711035994e+02, // ra5
		-8.12874355063065934246e+01, // ra6
		-9.81432934416914548592e+00, // ra7
		1.96512716674392571292e+01,  // 38: sa1
		1.37657754143519042600e+02,  // sa2
		4.34565877475229228821e+02,  // sa3
		6.45387271733267880336e+02,  // sa4
		4.29008140027567833386e+02,  // sa5
		1.08635005541779435134e+02,  // sa6
		6.57024977031928170135e+00,  // sa7
		-6.04244152148580987438e-02, // sa8
		-9.86494292470009928597e-03, // 46: rb0
		-7.99283237680523006574e-01, // rb1
		-1.77579549177547519889e+01, // rb2
		-1.60636384855821916062e+02, // rb3
		-6.37566443368389627722e+02, // rb4
		-1.02509513161107724954e+03, // rb5
		-4.83519191608651397019e+02, // rb6
		3.03380607434824582924e+01,  // 53: sb1
		3.25792512996573918826e+02,  // sb2
		1.53672958608443695994e+03,  // sb3
		3.19985821950859553908e+03,  // sb4
		2.55305040643316442583e+03,  // sb5
		4.74528541206955367215e+02,  // sb6
		-2.24409524465858183362e+01, // sb7
		1.44269504088896338700e+00,  // 60: log2(e)
		6.93147180369123816490e-01,  // 61: ln2 hi
		1.90821492927058770002e-10,  // 62: ln2 lo
		1.66666666666666657415e-01,  // 63: exp P1
		-2.77777777770155933842e-03, // exp P2
		6.61375632143793436117e-05,  // exp P3
		-1.65339022054652515390e-06, // exp P4
		4.13813679705723846039e-08,  // exp P5
		4503599627370496.0 + 1023,   // 68: 2^52 + exponent bias
		-708.0,                      // 69: exp underflow clamp
		0.5625,                      // 70
		0.5,                         // 71
		0.180625,                    // 72
	})
	copy(vals[73:81], ppnd16A[:])
	copy(vals[81:88], ppnd16B[1:])
	for i, v := range vals {
		for l := 0; l < 4; l++ {
			specTab[4*i+l] = v
		}
	}
}
