package stats

import "math"

// GammaP returns the regularized lower incomplete gamma function
// P(a,x) = γ(a,x)/Γ(a) for a > 0, x ≥ 0, using the series expansion for
// x < a+1 and the Lentz continued fraction for the complement otherwise.
// It is the backbone of the χ² distribution used by the Student-t (MVT)
// extension of the SOV algorithm.
func GammaP(a, x float64) float64 {
	switch {
	case a <= 0 || math.IsNaN(a) || math.IsNaN(x):
		return math.NaN()
	case x < 0:
		return math.NaN()
	case x == 0:
		return 0
	case math.IsInf(x, 1):
		return 1
	}
	if x < a+1 {
		return gammaSeries(a, x)
	}
	return 1 - gammaCF(a, x)
}

// gammaSeries evaluates P(a,x) by its power series (x < a+1).
func gammaSeries(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1 / a
	del := sum
	for i := 0; i < 500; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*1e-16 {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-lg)
}

// gammaCF evaluates Q(a,x) by the modified Lentz continued fraction
// (x ≥ a+1).
func gammaCF(a, x float64) float64 {
	const tiny = 1e-300
	lg, _ := math.Lgamma(a)
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i < 500; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-16 {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-lg) * h
}

// GammaPInv returns x such that P(a,x) = p, by a Wilson–Hilferty initial
// guess refined with Halley iterations (cf. Numerical Recipes invgammp).
func GammaPInv(a, p float64) float64 {
	switch {
	case a <= 0 || math.IsNaN(a) || math.IsNaN(p) || p < 0 || p > 1:
		return math.NaN()
	case p == 0:
		return 0
	case p == 1:
		return math.Inf(1)
	}
	lg, _ := math.Lgamma(a)
	a1 := a - 1
	var lna1, afac float64
	if a > 1 {
		lna1 = math.Log(a1)
		afac = math.Exp(a1*(lna1-1) - lg)
	}
	var x float64
	if a > 1 {
		// Wilson–Hilferty.
		gau := PhiInv(p)
		t := math.Sqrt(a)
		x = 1 - 1/(9*a) + gau/(3*t)
		x = a * x * x * x
		if x <= 0 {
			x = 1e-8
		}
	} else {
		t := 1 - a*(0.253+a*0.12)
		if p < t {
			x = math.Pow(p/t, 1/a)
		} else {
			x = 1 - math.Log(1-(p-t)/(1-t))
		}
	}
	const eps = 1e-12
	for it := 0; it < 20; it++ {
		if x <= 0 {
			return 0
		}
		err := GammaP(a, x) - p
		var t float64
		if a > 1 {
			t = afac * math.Exp(-(x-a1)+a1*(math.Log(x)-lna1))
		} else {
			t = math.Exp(-x + a1*math.Log(x) - lg)
		}
		if t == 0 {
			break
		}
		u := err / t
		// Halley step.
		step := u / (1 - 0.5*math.Min(1, u*(a1/x-1)))
		x -= step
		if x <= 0 {
			x = 0.5 * (x + step) // bisect back into the domain
		}
		if math.Abs(step) < eps*x {
			break
		}
	}
	return x
}

// Chi2Inv returns the p-quantile of the χ² distribution with k degrees of
// freedom.
func Chi2Inv(p, k float64) float64 {
	return 2 * GammaPInv(k/2, p)
}
