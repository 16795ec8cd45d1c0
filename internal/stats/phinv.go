package stats

import "math"

// AS241 PPND16 coefficients (Wichura 1988, Applied Statistics 37).
// Central region |p-1/2| ≤ 0.425.
var ppnd16A = [8]float64{
	3.3871328727963666080e0,
	1.3314166789178437745e2,
	1.9715909503065514427e3,
	1.3731693765509461125e4,
	4.5921953931549871457e4,
	6.7265770927008700853e4,
	3.3430575583588128105e4,
	2.5090809287301226727e3,
}

var ppnd16B = [8]float64{
	1.0,
	4.2313330701600911252e1,
	6.8718700749205790830e2,
	5.3941960214247511077e3,
	2.1213794301586595867e4,
	3.9307895800092710610e4,
	2.8729085735721942674e4,
	5.2264952788528545610e3,
}

// Intermediate region r = sqrt(-log(min(p,1-p))) ≤ 5.
var ppnd16C = [8]float64{
	1.42343711074968357734e0,
	4.63033784615654529590e0,
	5.76949722146069140550e0,
	3.64784832476320460504e0,
	1.27045825245236838258e0,
	2.41780725177450611770e-1,
	2.27238449892691845833e-2,
	7.74545014278341407640e-4,
}

var ppnd16D = [8]float64{
	1.0,
	2.05319162663775882187e0,
	1.67638483018380384940e0,
	6.89767334985100004550e-1,
	1.48103976427480074590e-1,
	1.51986665636164571966e-2,
	5.47593808499534494600e-4,
	1.05075007164441684324e-9,
}

// Far-tail region r > 5.
var ppnd16E = [8]float64{
	6.65790464350110377720e0,
	5.46378491116411436990e0,
	1.78482653991729133580e0,
	2.96560571828504891230e-1,
	2.65321895265761230930e-2,
	1.24266094738807843860e-3,
	2.71155556874348757815e-5,
	2.01033439929228813265e-7,
}

var ppnd16F = [8]float64{
	1.0,
	5.99832206555887937690e-1,
	1.36929880922735805310e-1,
	1.48753612908506148525e-2,
	7.86869131145613259100e-4,
	1.84631831751005468180e-5,
	1.42151175831644588870e-7,
	2.04426310338993978564e-15,
}

func poly8(c *[8]float64, r float64) float64 {
	return ((((((c[7]*r+c[6])*r+c[5])*r+c[4])*r+c[3])*r+c[2])*r+c[1])*r + c[0]
}

// PhiInv returns the inverse of the standard normal distribution function,
// Φ⁻¹(p), using Wichura's algorithm AS241 (PPND16), accurate to roughly
// machine precision for p in (0,1). PhiInv(0) is -Inf, PhiInv(1) is +Inf and
// values outside [0,1] return NaN.
func PhiInv(p float64) float64 {
	switch {
	case math.IsNaN(p) || p < 0 || p > 1:
		return math.NaN()
	case p == 0:
		return math.Inf(-1)
	case p == 1:
		return math.Inf(1)
	}
	q := p - 0.5
	if math.Abs(q) <= 0.425 {
		r := 0.180625 - q*q
		return q * poly8(&ppnd16A, r) / poly8(&ppnd16B, r)
	}
	r := p
	if q > 0 {
		r = 1 - p
	}
	if r < 0x1p-1022 {
		// Go's amd64 math.Log reads a subnormal's exponent field as if it
		// were normal (Log(5e-324) = −709.09, not −744.44): scale into the
		// normal range first. Normal r keeps math.Log's bits.
		r = math.Sqrt(-(math.Log(r*0x1p54) - 54*math.Ln2))
	} else {
		r = math.Sqrt(-math.Log(r))
	}
	var x float64
	if r <= 5 {
		r -= 1.6
		x = poly8(&ppnd16C, r) / poly8(&ppnd16D, r)
	} else {
		r -= 5
		x = poly8(&ppnd16E, r) / poly8(&ppnd16F, r)
	}
	if q < 0 {
		return -x
	}
	return x
}
