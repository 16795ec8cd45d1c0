package cov

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/geo"
	"repro/internal/linalg"
	"repro/internal/stats"
)

// besselMatern is equation 6 as Matern.Cov evaluated it for every ν before
// the half-integer closed form: σ²·norm·tᵛ·K_ν(t) with the same clamps. It is
// the reference the closed form is held to.
func besselMatern(sigma2, rang, nu, h float64) float64 {
	if h == 0 {
		return sigma2
	}
	t := h / rang
	norm := 1 / (math.Pow(2, nu-1) * math.Gamma(nu))
	v := sigma2 * norm * math.Pow(t, nu) * stats.BesselK(nu, t)
	if math.IsNaN(v) || v < 0 {
		return 0
	}
	return math.Min(v, sigma2)
}

// squared is a Kernel outside this package's families: Fill's scalar loop.
type squared struct{ s2 float64 }

func (k squared) Cov(h float64) float64 { return k.s2 / (1 + h*h) }
func (k squared) Variance() float64     { return k.s2 }
func (k squared) Params() []float64     { return []float64{k.s2} }

// fillKernels is every family × {plain, nugget} × ν, plus the kernels only
// the scalar loop serves (a foreign type, a nugget under a nugget).
func fillKernels() map[string]Kernel {
	out := map[string]Kernel{}
	add := func(name string, k Kernel) {
		out[name] = k
		out[name+"+nugget"] = &Nugget{Kernel: k, Tau2: 0.07}
	}
	for _, nu := range []float64{0.5, 1.5, 2.5, 3.5, 1.3} {
		add(fmt.Sprintf("matern%g", nu), NewMatern(1.7, 0.21, nu))
		add(fmt.Sprintf("powexp%g", nu), &PoweredExponential{Sigma2: 1.7, Range: 0.21, Power: nu})
	}
	add("exponential", &Exponential{Sigma2: 1.7, Range: 0.21})
	add("foreign", squared{1.7})
	add("nugget2", &Nugget{Kernel: &Exponential{Sigma2: 1.7, Range: 0.21}, Tau2: 0.01})
	return out
}

// scatteredWithDuplicates is a uniform random geometry in which every fifth
// point repeats its predecessor exactly.
func scatteredWithDuplicates(n int, seed int64) *geo.Geom {
	g := uniformRandom(n, rand.New(rand.NewSource(seed)))
	for i := 4; i < n; i += 5 {
		g.Pts[i] = g.Pts[i-1]
	}
	return g
}

// checkFill holds Fill to the scalar loop it replaces, bit for bit.
func checkFill(t *testing.T, name string, k Kernel, pts []geo.Point, q geo.Point) {
	t.Helper()
	dst := make([]float64, len(pts))
	Fill(k, dst, pts, q)
	for r, p := range pts {
		want := k.Cov(p.Dist(q))
		if math.Float64bits(dst[r]) != math.Float64bits(want) {
			t.Fatalf("%s: Fill[%d] = %v (%#x), scalar Cov = %v (%#x)", name, r,
				dst[r], math.Float64bits(dst[r]), want, math.Float64bits(want))
		}
	}
}

func TestFillMatchesScalarCov(t *testing.T) {
	g := scatteredWithDuplicates(300, 11)
	for name, k := range fillKernels() {
		zeros := 0
		for _, run := range []int{0, 1, 3, 255, 256} {
			for _, qi := range []int{0, 3, 4, 299} { // 3 and 4 are duplicates of each other
				for _, row0 := range []int{0, 2, 44} {
					checkFill(t, name, k, g.Pts[row0:row0+run], g.Pts[qi])
				}
			}
		}
		// The nugget lands on every zero distance, whatever the indices.
		dst := make([]float64, g.Len())
		Fill(k, dst, g.Pts, g.Pts[3])
		for r := range dst {
			if dst[r] == k.Cov(0) {
				zeros++
			}
		}
		if zeros != 2 {
			t.Errorf("%s: %d entries at C(0) against the duplicated point, want 2", name, zeros)
		}
	}
}

// TestFillExtremeDistances: h/a from 1e-300 to 1e300 along one axis — no NaN,
// nothing negative, nothing above the variance, and an exponential that
// underflowed clamps the entry to exactly 0.
func TestFillExtremeDistances(t *testing.T) {
	const rang = 0.21
	var pts []geo.Point
	for e := -300.0; e <= 3; e += 0.25 {
		pts = append(pts, geo.Point{X: rang * math.Pow(10, e)})
	}
	far := len(pts)
	pts = append(pts, geo.Point{X: rang * 1e150}, geo.Point{Y: rang * 1e300})
	for name, k := range fillKernels() {
		checkFill(t, name, k, pts, geo.Point{})
		dst := make([]float64, len(pts))
		Fill(k, dst, pts, geo.Point{})
		for r, v := range dst {
			if math.IsNaN(v) || v < 0 || v > k.Variance() {
				t.Errorf("%s: C(%g) = %v outside [0, %v]", name, pts[r].X+pts[r].Y, v, k.Variance())
			}
		}
		if strings.HasPrefix(name, "foreign") {
			continue // a rational kernel never underflows
		}
		zeroFrom := far // t = 1e150, 1e300: every exponential is 0
		if !strings.HasPrefix(name, "powexp") {
			zeroFrom = far - 1 // t = 1e3: e^{−1000} is 0
		}
		for r := zeroFrom; r < len(pts); r++ {
			if dst[r] != 0 {
				t.Errorf("%s: C(%g) = %v, want the underflow clamped to 0", name, pts[r].X+pts[r].Y, dst[r])
			}
		}
	}
}

// TestHalfIntegerMaternMatchesBessel: the closed form against equation 6
// through K_ν, 1e-13 relative, across the distances a covariance matrix
// holds (beyond t ≈ 700 both are denormal or 0).
func TestHalfIntegerMaternMatchesBessel(t *testing.T) {
	for _, nu := range []float64{0.5, 1.5, 2.5, 3.5, 4.5, 8.5} {
		k := NewMatern(1.7, 0.21, nu)
		if k.half == nil {
			t.Fatalf("ν=%g: no closed form", nu)
		}
		worst := 0.0
		for e := -12.0; e <= 2.8; e += 0.01 {
			h := 0.21 * math.Pow(10, e)
			got, want := k.Cov(h), besselMatern(1.7, 0.21, nu, h)
			if rel := math.Abs(got-want) / want; rel > worst {
				worst = rel
			}
		}
		if worst > 1e-13 {
			t.Errorf("ν=%g: closed form differs from σ²·norm·tᵛ·K_ν(t) by %.3g relative", nu, worst)
		}
	}
	for _, nu := range []float64{1.3, 2, 9.5} {
		if NewMatern(1, 1, nu).half != nil {
			t.Errorf("ν=%g must keep the Bessel path", nu)
		}
	}
	// σ² is read live on both paths, as it was before the closed form: an
	// edited Sigma2 moves C(h) and C(0) together.
	for _, nu := range []float64{2.5, 1.3} {
		k := NewMatern(1, 0.21, nu)
		c := k.Cov(0.1)
		k.Sigma2 = 4
		if got := k.Cov(0.1); got != 4*c || k.Cov(0) != 4 {
			t.Errorf("ν=%g: after Sigma2 = 4, C(0.1) = %v (want %v), C(0) = %v", nu, got, 4*c, k.Cov(0))
		}
	}
	// The general path is the parent's expression, bit for bit.
	k := NewMatern(1.7, 0.21, 1.3)
	for e := -12.0; e <= 3; e += 0.1 {
		h := 0.21 * math.Pow(10, e)
		if got, want := k.Cov(h), besselMatern(1.7, 0.21, 1.3, h); got != want {
			t.Fatalf("ν=1.3 at h=%g: %v, Bessel expression %v", h, got, want)
		}
	}
}

// TestAssemblersMatchPerEntryDefinitions writes out what Block and Matrix
// computed entry by entry before they were built on Fill.
func TestAssemblersMatchPerEntryDefinitions(t *testing.T) {
	a := scatteredWithDuplicates(41, 5)
	b := scatteredWithDuplicates(23, 6)
	b.Pts[7] = a.Pts[9]
	for name, k := range fillKernels() {
		full := Matrix(a, k)
		for i := 0; i < a.Len(); i++ {
			for j := 0; j < a.Len(); j++ {
				want := k.Cov(a.Dist(max(i, j), min(i, j)))
				if i == j {
					want = k.Cov(0)
				}
				if full.At(i, j) != want {
					t.Fatalf("%s: Matrix(%d,%d) = %v, want %v", name, i, j, full.At(i, j), want)
				}
			}
		}
		blk := linalg.NewMatrix(9, 13)
		for _, at := range [][2]int{{20, 3}, {5, 5}, {0, 28}} {
			row0, col0 := at[0], at[1]
			Block(blk, a, k, row0, col0)
			for j := 0; j < blk.Cols; j++ {
				for i := 0; i < blk.Rows; i++ {
					want := k.Cov(a.Pts[row0+i].Dist(a.Pts[col0+j]))
					if row0+i == col0+j {
						want = k.Cov(0)
					}
					if blk.At(i, j) != want {
						t.Fatalf("%s: Block(%d,%d)+(%d,%d) = %v, want %v", name, row0, col0, i, j, blk.At(i, j), want)
					}
				}
			}
		}
	}
}

// FuzzFill: for a Matérn kernel (under a nugget when tau2 > 0) of arbitrary
// smoothness and range, and for the exponential kernel of the same range and
// nugget, a run equals the scalar loop bit for bit on both Fill paths, and a
// half-integer ν stays within 1e-13 of the Bessel expression.
func FuzzFill(f *testing.F) {
	f.Add(2.5, 0.2, 0.05, int64(1), uint8(17))
	f.Add(0.5, 1e-3, 0.0, int64(2), uint8(255))
	f.Add(1.3, 3.0, 1.0, int64(3), uint8(1))
	f.Add(7.5, 0.05, 0.0, int64(4), uint8(64))
	f.Add(2.5, 1e-3, 0.01, int64(5), uint8(200)) // far field: t > 708 beyond h ≈ 0.7
	f.Fuzz(func(t *testing.T, nu, rang, tau2 float64, seed int64, n uint8) {
		if !(nu > 0 && nu < 40 && rang > 1e-6 && rang < 1e6 && tau2 >= 0 && tau2 < 1e6) {
			t.Skip()
		}
		// Snap to the nearest half so the closed form is exercised often.
		if r := math.Round(2*nu) / 2; math.Abs(r-nu) < 0.05 && r > 0 {
			nu = r
		}
		m := NewMatern(1.3, rang, nu)
		var k, e Kernel = m, &Exponential{Sigma2: 1.3, Range: rang}
		if tau2 > 0 {
			k, e = &Nugget{Kernel: k, Tau2: tau2}, &Nugget{Kernel: e, Tau2: tau2}
		}
		g := scatteredWithDuplicates(int(n)+1, seed)
		q := g.Pts[int(seed&0xff)%g.Len()]
		name := fmt.Sprintf("ν=%g a=%g τ²=%g", nu, rang, tau2)
		checkFill(t, name, k, g.Pts, q)
		checkFillPaths(t, name, k, g.Pts, q)
		checkFill(t, "exponential "+name, e, g.Pts, q)
		checkFillPaths(t, "exponential "+name, e, g.Pts, q)
		if m.half == nil {
			return
		}
		for _, p := range g.Pts {
			h := p.Dist(q)
			got, want := m.Cov(h), besselMatern(1.3, rang, nu, h)
			if want > 1e-290 && math.Abs(got-want) > 1e-13*want {
				t.Fatalf("ν=%g a=%g h=%g: closed form %v, Bessel expression %v", nu, rang, h, got, want)
			}
		}
	})
}

// withFillVec runs f with the vector body switched on or off.
func withFillVec(vec bool, f func()) {
	defer func(old bool) { fillVec = old }(fillVec)
	fillVec = vec
	f()
}

// checkFillPaths holds the vector Fill to the scalar Fill, bit for bit; it
// is a no-op where the host has no vector body.
func checkFillPaths(t *testing.T, name string, k Kernel, pts []geo.Point, q geo.Point) {
	t.Helper()
	if !fillVec {
		return
	}
	vec, scalar := make([]float64, len(pts)), make([]float64, len(pts))
	withFillVec(true, func() { Fill(k, vec, pts, q) })
	withFillVec(false, func() { Fill(k, scalar, pts, q) })
	for r := range pts {
		if math.Float64bits(vec[r]) != math.Float64bits(scalar[r]) {
			t.Fatalf("%s: vector Fill[%d] = %v (%#x), scalar Fill = %v (%#x), h = %v", name, r,
				vec[r], math.Float64bits(vec[r]), scalar[r], math.Float64bits(scalar[r]), pts[r].Dist(q))
		}
	}
}

// TestFillVectorMatchesScalar holds the vector body to the scalar loop bit
// for bit: every kernel of fillKernels and the far-field ones (a = 1e-3, so
// t > 708 from h ≈ 0.71) × run lengths 0–9, 16 and 256 × offsets, over runs
// holding zero distances, one NaN and one infinite coordinate. It also pins
// where the body hands a block back to the scalar loop.
func TestFillVectorMatchesScalar(t *testing.T) {
	if !fillVec {
		t.Skip("no vector Fill body on this host (or REPRO_NOASM set)")
	}
	kernels := fillKernels()
	for name, k := range map[string]Kernel{
		"matern2.5/far":    NewMatern(1.7, 1e-3, 2.5),
		"exponential/far":  &Exponential{Sigma2: 1.7, Range: 1e-3},
		"matern0.5/far+ng": &Nugget{Kernel: NewMatern(1.7, 1e-3, 0.5), Tau2: 0.07},
	} {
		kernels[name] = k
	}
	g := scatteredWithDuplicates(300, 17)
	bad := append([]geo.Point(nil), g.Pts...)
	bad[21].X, bad[130].Y = math.NaN(), math.Inf(-1)
	for name, k := range kernels {
		for _, pts := range [][]geo.Point{g.Pts, bad} {
			for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 256} {
				for _, row0 := range []int{0, 1, 17, 40} { // 17, 40: the NaN and −Inf lanes at 4 and 90
					for _, qi := range []int{0, 3, 4, 21, 299} { // 3, 4 duplicates; 21 NaN in bad
						checkFillPaths(t, fmt.Sprintf("%s n=%d row0=%d q=%d", name, n, row0, qi),
							k, pts[row0:row0+n], pts[qi])
					}
				}
			}
		}
	}

	// Where the body stops: the first block holding a NaN, an infinite or a
	// far-field lane; a zero distance stays on the body.
	c := []float64{1. / 3, 1, 1} // ν = 5/2
	dst := make([]float64, 16)
	for _, tc := range []struct {
		name string
		edit func(p []geo.Point)
		rang float64
		want int
	}{
		{"clean", func([]geo.Point) {}, 0.1, 16},
		{"zero distance", func(p []geo.Point) { p[6] = p[0] }, 0.1, 16},
		{"NaN", func(p []geo.Point) { p[9].Y = math.NaN() }, 0.1, 8},
		{"+Inf", func(p []geo.Point) { p[13].X = math.Inf(1) }, 0.1, 12},
		{"far", func(p []geo.Point) { p[5].X += 0.8 }, 1e-3, 4},
	} {
		pts := make([]geo.Point, 16)
		for i := range pts {
			pts[i] = geo.Point{X: 0.3 + 1e-5*float64(i), Y: 0.4}
		}
		tc.edit(pts)
		if got := fillHalfAVX2(dst, pts, pts[0], c, 1.7, 1.77, tc.rang); got != tc.want {
			t.Errorf("%s: the body wrote %d entries, want %d", tc.name, got, tc.want)
		}
	}
}

// BenchmarkBlock assembles one 256×256 off-diagonal tile of a Matérn-5/2 +
// nugget covariance, the unit of work of a streamed "assemble" task, on the
// Fill path the host selects (logged), and again on the scalar loop:
// `go test -bench Block ./internal/cov` prints the two rates side by side.
func BenchmarkBlock(b *testing.B) {
	const ts = 256
	g := jitteredGrid(32, 32, 0.4, rand.New(rand.NewSource(1)))
	k := &Nugget{Kernel: NewMatern(1, 0.1, 2.5), Tau2: 1e-4}
	blk := linalg.NewMatrix(ts, ts)
	run := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Block(blk, g, k, 2*ts, 0)
		}
		b.ReportMetric(float64(b.N)*ts*ts/b.Elapsed().Seconds()/1e6, "Mentries/s")
	}
	path := "scalar"
	if fillVec {
		path = "avx2"
	}
	b.Run("host", func(b *testing.B) {
		if b.N == 1 { // the first call of the ramp: one line per run
			b.Logf("Fill path: %s", path)
		}
		run(b)
	})
	b.Run("scalar", func(b *testing.B) { withFillVec(false, func() { run(b) }) })
}
