package stats

import "math"

// BesselK returns the modified Bessel function of the second kind K_ν(x) for
// real order ν ≥ 0 and x > 0. It uses Temme's series for x ≤ 2 and the
// Steed/Thompson–Barnett continued fraction CF2 for x > 2, followed by the
// standard upward recurrence in the order. This is the special function that
// powers the Matérn covariance kernel.
//
// Negative orders are handled through the symmetry K_{-ν} = K_ν.
// BesselK returns +Inf for x == 0 and NaN for x < 0.
func BesselK(nu, x float64) float64 {
	nu = math.Abs(nu) // K is even in the order
	switch {
	case math.IsNaN(nu) || math.IsNaN(x) || x < 0:
		return math.NaN()
	case x == 0:
		return math.Inf(1)
	}
	// Half-integer orders have closed forms; they are both the common Matérn
	// cases (ν = 1/2, 3/2, 5/2) and much cheaper than the general path.
	if h := nu - math.Floor(nu); h == 0.5 {
		return besselKHalfInt(nu, x)
	}

	nl := int(nu + 0.5)    // number of upward recurrences
	mu := nu - float64(nl) // |mu| ≤ 1/2
	var kmu, knu1 float64  // K_mu(x), K_{mu+1}(x)
	if x <= 2 {
		kmu, knu1 = besselKTemme(mu, x)
	} else {
		kmu, knu1 = besselKCF2(mu, x)
	}
	// Upward recurrence K_{m+1} = K_{m-1} + 2m/x · K_m.
	for i := 1; i <= nl; i++ {
		kmu, knu1 = knu1, (mu+float64(i))*(2/x)*knu1+kmu
	}
	return kmu
}

// besselKHalfInt evaluates K_{m+1/2}(x) exactly via the finite closed form
// K_{1/2}(x) = sqrt(pi/2x)·e^{-x}, with the upward order recurrence.
func besselKHalfInt(nu, x float64) float64 {
	k0 := math.Sqrt(math.Pi/(2*x)) * math.Exp(-x) // K_{1/2}
	if nu == 0.5 {
		return k0
	}
	k1 := k0 * (1 + 1/x) // K_{3/2}
	m := 1.5
	for m < nu {
		k0, k1 = k1, k0+(2*m/x)*k1
		m++
	}
	return k1
}

// temmeGammas returns the auxiliary gamma combinations used by Temme's
// series:
//
//	gam1 = (1/Γ(1-µ) − 1/Γ(1+µ)) / (2µ)
//	gam2 = (1/Γ(1-µ) + 1/Γ(1+µ)) / 2
//	gampl = 1/Γ(1+µ),  gammi = 1/Γ(1-µ)
//
// with the µ→0 limit gam1 → γ handled by a short Taylor expansion.
func temmeGammas(mu float64) (gam1, gam2, gampl, gammi float64) {
	gampl = 1 / math.Gamma(1+mu)
	gammi = 1 / math.Gamma(1-mu)
	if math.Abs(mu) < 1e-5 {
		// With g(µ) = 1/Γ(1+µ) = 1 + γµ + a2µ² + a3µ³ + …,
		// gam1 = (g(-µ) − g(µ))/(2µ) → −γ − a3µ² where
		// a3 = ζ(3)/3 − γπ²/12 + γ³/6 ≈ −0.0420153.
		const a3 = -0.042015351336218557
		gam1 = -EulerGamma - a3*mu*mu
	} else {
		gam1 = (gammi - gampl) / (2 * mu)
	}
	gam2 = 0.5 * (gammi + gampl)
	return
}

// besselKTemme computes K_mu and K_{mu+1} for |mu| ≤ 1/2 and 0 < x ≤ 2
// using Temme's power series (cf. Numerical Recipes §6.7, routine bessik).
func besselKTemme(mu, x float64) (kmu, kmu1 float64) {
	const eps = 1e-16
	const maxIter = 10000

	pimu := math.Pi * mu
	fact := 1.0
	if pimu != 0 {
		fact = pimu / math.Sin(pimu)
	}
	d := -math.Log(x / 2)
	e := mu * d
	fact2 := 1.0
	if e != 0 {
		fact2 = math.Sinh(e) / e
	}
	gam1, gam2, gampl, gammi := temmeGammas(mu)
	ff := fact * (gam1*math.Cosh(e) + gam2*fact2*d)
	sum := ff
	e = math.Exp(e)
	p := 0.5 * e / gampl
	q := 0.5 / (e * gammi)
	c := 1.0
	d = 0.25 * x * x
	sum1 := p
	for i := 1; i <= maxIter; i++ {
		fi := float64(i)
		ff = (fi*ff + p + q) / (fi*fi - mu*mu)
		c *= d / fi
		p /= fi - mu
		q /= fi + mu
		del := c * ff
		sum += del
		sum1 += c * (p - fi*ff)
		if math.Abs(del) < math.Abs(sum)*eps {
			return sum, sum1 * (2 / x)
		}
	}
	return sum, sum1 * (2 / x) // converged to working precision anyway
}

// besselKCF2 computes K_mu and K_{mu+1} for |mu| ≤ 1/2 and x > 2 using the
// CF2 continued fraction with the Thompson–Barnett sum (cf. Numerical
// Recipes §6.7).
func besselKCF2(mu, x float64) (kmu, kmu1 float64) {
	const eps = 1e-16
	const maxIter = 10000

	b := 2 * (1 + x)
	d := 1 / b
	h := d
	delh := d
	q1, q2 := 0.0, 1.0
	a1 := 0.25 - mu*mu
	q := a1
	c := a1
	a := -a1
	s := 1 + q*delh
	for i := 2; i <= maxIter; i++ {
		a -= 2 * float64(i-1)
		c = -a * c / float64(i)
		qnew := (q1 - b*q2) / a
		q1, q2 = q2, qnew
		q += c * qnew
		b += 2
		d = 1 / (b + a*d)
		delh = (b*d - 1) * delh
		h += delh
		dels := q * delh
		s += dels
		if math.Abs(dels/s) < eps {
			break
		}
	}
	h = a1 * h
	kmu = math.Sqrt(math.Pi/(2*x)) * math.Exp(-x) / s
	kmu1 = kmu * (mu + x + 0.5 - h) / x
	return
}
