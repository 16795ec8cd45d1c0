// Package stats provides the scalar special functions underlying the
// multivariate normal (MVN) probability computation: the univariate normal
// distribution function Φ and its inverse Φ⁻¹ (Wichura's AS241), numerically
// stable interval probabilities, and the modified Bessel function of the
// second kind K_ν required by the Matérn covariance family.
//
// Everything in this package is pure scalar float64 code with no allocation,
// so the tiled QMC kernels can call it in tight inner loops.
package stats

import "math"

// Sqrt2 is √2, used to map Φ onto erfc.
const Sqrt2 = 1.4142135623730950488016887242096980786

// EulerGamma is the Euler–Mascheroni constant γ.
const EulerGamma = 0.57721566490153286060651209008240243104

// Phi returns the standard normal cumulative distribution function
// P(Z ≤ x). It is accurate in both tails because it is evaluated through
// erfc rather than erf.
func Phi(x float64) float64 {
	return 0.5 * math.Erfc(-x/Sqrt2)
}

// PhiInterval returns P(a < Z ≤ b) for a standard normal Z, computed in a
// tail-stable way: when both endpoints sit in the same tail the difference is
// evaluated with the complementary error function on that tail so that no
// catastrophic cancellation of values near 1 occurs.
func PhiInterval(a, b float64) float64 {
	if b <= a {
		return 0
	}
	switch {
	case a >= 0: // right tail: Φ(b)-Φ(a) = (erfc(a/√2)-erfc(b/√2))/2
		return 0.5 * (math.Erfc(a/Sqrt2) - math.Erfc(b/Sqrt2))
	case b <= 0: // left tail: symmetric form
		return 0.5 * (math.Erfc(-b/Sqrt2) - math.Erfc(-a/Sqrt2))
	default: // straddles zero; both Φ values are moderate
		return Phi(b) - Phi(a)
	}
}
