package parmvn

import (
	"math"
	"testing"

	"repro/internal/stats"
)

func TestGridHelper(t *testing.T) {
	locs := Grid(4, 3)
	if len(locs) != 12 {
		t.Fatalf("len = %d", len(locs))
	}
	if locs[0] != (Point{0, 0}) || locs[11] != (Point{1, 1}) {
		t.Errorf("corners wrong: %v %v", locs[0], locs[11])
	}
}

func TestMVNProbIndependentLimit(t *testing.T) {
	// A very short range makes the field effectively independent, so the
	// probability approaches the product of univariate probabilities.
	s := NewSession(Config{QMCSize: 500, TileSize: 8})
	defer s.Close()
	locs := Grid(4, 4)
	n := len(locs)
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = -1
		b[i] = 1
	}
	res, err := s.MVNProb(locs, KernelSpec{Family: "exponential", Range: 1e-6}, a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Pow(stats.Phi(1)-stats.Phi(-1), float64(n))
	if math.Abs(res.Prob-want) > 1e-6 {
		t.Errorf("prob %v, want %v", res.Prob, want)
	}
}

func TestMVNProbDenseVsTLR(t *testing.T) {
	locs := Grid(8, 8)
	n := len(locs)
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = -0.5
		b[i] = math.Inf(1)
	}
	kernel := KernelSpec{Family: "matern", Range: 0.15, Nu: 1.5}
	var probs []float64
	for _, m := range []Method{Dense, TLR} {
		s := NewSession(Config{Method: m, QMCSize: 3000, TileSize: 16, TLRTol: 1e-8})
		res, err := s.MVNProb(locs, kernel, a, b)
		s.Close()
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		probs = append(probs, res.Prob)
	}
	if d := math.Abs(probs[0] - probs[1]); d > 1e-5 {
		t.Errorf("dense %v vs TLR %v differ by %v", probs[0], probs[1], d)
	}
}

func TestMVNProbCov(t *testing.T) {
	// 2×2 with known orthant probability.
	rho := 0.5
	sigma := [][]float64{{1, rho}, {rho, 1}}
	s := NewSession(Config{QMCSize: 20000, TileSize: 2})
	defer s.Close()
	res, err := s.MVNProbCov(sigma, []float64{math.Inf(-1), math.Inf(-1)}, []float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	want := 0.25 + math.Asin(rho)/(2*math.Pi)
	if math.Abs(res.Prob-want) > 2e-3 {
		t.Errorf("orthant %v, want %v", res.Prob, want)
	}
}

// TestMVNProbCovBatch: a run of explicit-covariance queries on one session —
// the bivariate orthant, then the whole space — reads the right values, and
// the same matrix queried again is served from the factor cache.
func TestMVNProbCovBatch(t *testing.T) {
	rho := 0.5
	sigma := [][]float64{{1, rho}, {rho, 1}}
	s := NewSession(Config{QMCSize: 20000, TileSize: 2})
	defer s.Close()
	inf := math.Inf(1)
	res, err := s.MVNProbCov(sigma, []float64{-inf, -inf}, []float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	orthant := 0.25 + math.Asin(rho)/(2*math.Pi)
	if math.Abs(res.Prob-orthant) > 2e-3 {
		t.Errorf("orthant %v, want %v", res.Prob, orthant)
	}
	res, err = s.MVNProbCov(sigma, []float64{-inf, -inf}, []float64{inf, inf})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Prob-1) > 1e-12 {
		t.Errorf("whole-space probability %v, want 1", res.Prob)
	}
	if hits, misses := s.Cache().Stats(); hits != 1 || misses != 1 {
		t.Errorf("cov re-query: %d hits / %d misses, want 1 / 1", hits, misses)
	}
}

func TestMVNProbErrors(t *testing.T) {
	s := NewSession(Config{})
	defer s.Close()
	if _, err := s.MVNProb(Grid(2, 2), KernelSpec{Range: -1}, nil, nil); err == nil {
		t.Error("want error for bad kernel")
	}
	if _, err := s.MVNProb(Grid(2, 2), KernelSpec{Range: 0.1}, []float64{0}, []float64{1}); err == nil {
		t.Error("want error for limit length mismatch")
	}
	if _, err := s.MVNProbCov([][]float64{{1, 0}}, []float64{0}, []float64{1}); err == nil {
		t.Error("want error for ragged covariance")
	}
	if _, err := s.MVNProb(Grid(2, 2), KernelSpec{Family: "cubic", Range: 1}, make([]float64, 4), make([]float64, 4)); err == nil {
		t.Error("want error for unknown family")
	}
}

func TestMVTProbUnivariateExact(t *testing.T) {
	// Single location: T(−∞, t; 1, ν) is the Student-t CDF.
	s := NewSession(Config{QMCSize: 20000, TileSize: 1})
	defer s.Close()
	locs := []Point{{0.5, 0.5}}
	for _, nu := range []float64{1, 4} {
		res, err := s.MVTProb(locs, KernelSpec{Range: 0.1}, nu, []float64{math.Inf(-1)}, []float64{1})
		if err != nil {
			t.Fatal(err)
		}
		want := map[float64]float64{1: 0.75, 4: 0.5 + 0.7/math.Sqrt(5)}[nu] // closed forms at t = 1
		if math.Abs(res.Prob-want) > 3e-3 {
			t.Errorf("ν=%v: %v, want %v", nu, res.Prob, want)
		}
	}
	if _, err := s.MVTProb(locs, KernelSpec{Range: 0.1}, -1, []float64{0}, []float64{1}); err == nil {
		t.Error("want error for negative dof")
	}
}

func TestDetectRegionEndToEnd(t *testing.T) {
	s := NewSession(Config{QMCSize: 2000, TileSize: 16})
	defer s.Close()
	locs := Grid(6, 6)
	n := len(locs)
	mean := make([]float64, n)
	for i, p := range locs {
		mean[i] = 2 - 4*p.X // strongly positive west half, negative east
	}
	exc, err := s.DetectRegion(locs, KernelSpec{Range: 0.2}, mean, 0.0, 0.9, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(exc.Region) == 0 {
		t.Fatal("empty region despite high western means")
	}
	// All detected locations should have high marginal probability.
	for _, i := range exc.Region {
		if exc.Marginal[i] < 0.5 {
			t.Errorf("region contains low-marginal location %d (%v)", i, exc.Marginal[i])
		}
	}
	// The region must favour the west (low x).
	mask := exc.InRegion(n)
	for i, p := range locs {
		if mask[i] && p.X > 0.9 {
			t.Errorf("eastern location %d in region", i)
		}
	}
	if len(exc.F) != n || len(exc.Order) != n {
		t.Errorf("confidence function sizes %d,%d", len(exc.F), len(exc.Order))
	}
}

func TestDetectRegionValidatesInput(t *testing.T) {
	s := NewSession(Config{})
	defer s.Close()
	locs := Grid(3, 3)
	if _, err := s.DetectRegion(locs, KernelSpec{Range: 0.1}, make([]float64, 2), 0, 0.9, 5); err == nil {
		t.Error("want error for mean length mismatch")
	}
	if _, err := s.DetectRegion(locs, KernelSpec{Range: 0.1}, make([]float64, 9), 0, 1.5, 5); err == nil {
		t.Error("want error for confidence outside (0,1)")
	}
}

func TestConfigDefaults(t *testing.T) {
	s := NewSession(Config{})
	defer s.Close()
	c := s.Config()
	if c.TileSize != 64 || c.QMCSize != 2000 || c.TLRTol != 1e-6 {
		t.Errorf("unexpected defaults: %+v", c)
	}
}

func TestMethodString(t *testing.T) {
	if Dense.String() != "dense" || TLR.String() != "tlr" {
		t.Error("Method.String wrong")
	}
}

func TestPhiRoundTrip(t *testing.T) {
	for _, p := range []float64{0.01, 0.5, 0.975} {
		if got := Phi(PhiInv(p)); math.Abs(got-p) > 1e-12 {
			t.Errorf("Phi(PhiInv(%v)) = %v", p, got)
		}
	}
}
