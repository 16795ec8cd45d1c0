package parmvn

import (
	"errors"
	"log/slog"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/datagen"
)

// detectProblem is a 12×12 exponential field whose mean falls from west to
// east, as rows for DetectRegionCov.
func detectProblem() (locs []Point, kernel KernelSpec, sigma [][]float64, mean []float64) {
	locs = Grid(12, 12)
	kernel = KernelSpec{Family: "exponential", Range: 0.2, Sigma2: 1.4}
	mean = make([]float64, len(locs))
	for i, p := range locs {
		mean[i] = 2.5 - 4*p.X - 0.5*p.Y
	}
	return locs, kernel, CovarianceMatrix(locs, kernel), mean
}

// TestDetectRegionOneFactorOneSweep pins the query plan from outside: a
// detection is one factorization and one integration (one "qmc" task per
// sample-tile column), a repeated identical call on the session factorizes
// nothing, and a new threshold — a new marginal ordering — refactorizes.
func TestDetectRegionOneFactorOneSweep(t *testing.T) {
	_, _, sigma, mean := detectProblem()
	for _, m := range []Method{Dense, TLR, MethodAdaptive} {
		s := NewSession(Config{Method: m, Workers: 2, TileSize: 36, QMCSize: 360, TLRTol: 1e-6})
		const columns = 360 / 36 // lane blocks are the tile size wide
		first, err := s.DetectRegionCov(sigma, mean, 0, 0.9, 16)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if len(first.Region) == 0 || len(first.Region) == len(mean) {
			t.Fatalf("%v: region %d of %d is degenerate", m, len(first.Region), len(mean))
		}
		if hits, misses := s.Cache().Stats(); hits != 0 || misses != 1 {
			t.Errorf("%v: first detection: %d cache hits, %d misses, want 0 and 1", m, hits, misses)
		}
		if got := s.SchedulerStats().Tasks["qmc"]; got != columns {
			t.Errorf("%v: first detection ran %d sweep tasks, want %d (one integration)", m, got, columns)
		}
		again, err := s.DetectRegionCov(sigma, mean, 0, 0.9, 0)
		if err != nil {
			t.Fatal(err)
		}
		if hits, misses := s.Cache().Stats(); hits != 1 || misses != 1 {
			t.Errorf("%v: repeated detection: %d cache hits, %d misses, want 1 and 1", m, hits, misses)
		}
		if got := s.SchedulerStats().Tasks["qmc"]; got != 2*columns {
			t.Errorf("%v: two detections ran %d sweep tasks, want %d", m, got, 2*columns)
		}
		for i := range first.F {
			if again.F[i] != first.F[i] {
				t.Fatalf("%v: F[%d] = %v warm, %v cold", m, i, again.F[i], first.F[i])
			}
		}
		if _, err := s.DetectRegionCov(sigma, mean, 0.7, 0.9, 16); err != nil {
			t.Fatal(err)
		}
		if _, misses := s.Cache().Stats(); misses != 2 {
			t.Errorf("%v: a new threshold reorders the locations: %d misses, want 2", m, misses)
		}
		s.Close()
	}
}

// TestDetectRegionConfidenceFunction: F is exactly non-increasing along
// Order, 1-bounded, and Region is the prefix of Order where it is ≥ conf.
func TestDetectRegionConfidenceFunction(t *testing.T) {
	locs, kernel, _, mean := detectProblem()
	s := NewSession(Config{TileSize: 48, QMCSize: 1000, Replicates: 2})
	defer s.Close()
	exc, err := s.DetectRegion(locs, kernel, mean, 0, 0.8, 16)
	if err != nil {
		t.Fatal(err)
	}
	prev := 1.0
	for rank, loc := range exc.Order {
		f := exc.F[loc]
		if f > prev || f < 0 {
			t.Fatalf("rank %d: F = %v after %v", rank+1, f, prev)
		}
		if in := rank < len(exc.Region); in != (f >= 0.8) || (in && exc.Region[rank] != loc) {
			t.Fatalf("rank %d: F = %v, region holds %d locations", rank+1, f, len(exc.Region))
		}
		prev = f
	}
	if k := len(exc.Region); k == 0 || k == len(locs) {
		t.Fatalf("region %d of %d is degenerate", k, len(locs))
	}
}

// TestSweepF32FieldIsInert: Config.SweepF32 selects nothing. On a factor of
// four row tiles, where the float32 sweep it used to select moved the low
// bits, a session with it set answers MVNProb, MVTProb and DetectRegionCov
// bit for bit like a session without it, under every preset.
func TestSweepF32FieldIsInert(t *testing.T) {
	locs, kernel, sigma, mean := detectProblem()
	a, b := make([]float64, len(locs)), make([]float64, len(locs))
	for i := range a {
		a[i], b[i] = -0.6+0.4*math.Sin(float64(i)), math.Inf(1)
	}
	type answers struct {
		mvn, mvt Result
		exc      *Excursion
	}
	run := func(m Method, f32 bool) answers {
		s := NewSession(Config{Method: m, Workers: 2, TileSize: 36, QMCSize: 400, Replicates: 3, TLRTol: 1e-6, SweepF32: f32})
		defer s.Close()
		var got answers
		var err error
		if got.mvn, err = s.MVNProb(locs, kernel, a, b); err != nil {
			t.Fatal(err)
		}
		if got.mvt, err = s.MVTProb(locs, kernel, 6, a, b); err != nil {
			t.Fatal(err)
		}
		if got.exc, err = s.DetectRegionCov(sigma, mean, 0, 0.9, 16); err != nil {
			t.Fatal(err)
		}
		return got
	}
	for _, m := range []Method{Dense, TLR, MethodAdaptive} {
		want, got := run(m, false), run(m, true)
		if got.mvn != want.mvn {
			t.Errorf("%v: MVNProb %+v with SweepF32, %+v without", m, got.mvn, want.mvn)
		}
		if got.mvt != want.mvt {
			t.Errorf("%v: MVTProb %+v with SweepF32, %+v without", m, got.mvt, want.mvt)
		}
		if !reflect.DeepEqual(got.exc, want.exc) {
			for i, f := range want.exc.F {
				if got.exc.F[i] != f {
					t.Errorf("%v: DetectRegionCov F[%d] = %v with SweepF32, %v without", m, i, got.exc.F[i], f)
					break
				}
			}
			t.Errorf("%v: DetectRegionCov region %v with SweepF32, %v without", m, got.exc.Region, want.exc.Region)
		}
	}
}

// TestDetectRegionRejectsUnusableInput: NaN, infinite or non-positive inputs
// are refused with a DetectInputError before anything is standardized,
// factorized or cached — through both entry points.
func TestDetectRegionRejectsUnusableInput(t *testing.T) {
	locs, kernel, sigma, mean := detectProblem()
	nan, inf := math.NaN(), math.Inf(1)
	with := func(v []float64, i int, x float64) []float64 {
		out := append([]float64(nil), v...)
		out[i] = x
		return out
	}
	withDiag := func(i int, x float64) [][]float64 {
		out := append([][]float64(nil), sigma...)
		out[i] = with(sigma[i], i, x)
		return out
	}
	s := NewSession(Config{TileSize: 36, QMCSize: 100})
	defer s.Close()
	for _, tc := range []struct {
		name  string
		sigma [][]float64
		mean  []float64
		u     float64
		what  string
		index int
	}{
		{"NaN diagonal", withDiag(5, nan), mean, 0, "covariance diagonal", 5},
		{"zero diagonal", withDiag(0, 0), mean, 0, "covariance diagonal", 0},
		{"negative diagonal", withDiag(143, -1), mean, 0, "covariance diagonal", 143},
		{"infinite diagonal", withDiag(7, inf), mean, 0, "covariance diagonal", 7},
		{"NaN mean", sigma, with(mean, 3, nan), 0, "mean", 3},
		{"infinite mean", sigma, with(mean, 9, -inf), 0, "mean", 9},
		{"NaN threshold", sigma, mean, nan, "threshold", -1},
		{"infinite threshold", sigma, mean, inf, "threshold", -1},
	} {
		_, err := s.DetectRegionCov(tc.sigma, tc.mean, tc.u, 0.9, 16)
		var in *DetectInputError
		if !errors.As(err, &in) || in.What != tc.what || in.Index != tc.index {
			t.Errorf("DetectRegionCov, %s: error %v, want DetectInputError{%s, %d}", tc.name, err, tc.what, tc.index)
		}
		if tc.what == "covariance diagonal" {
			continue // a kernel's diagonal is its variance, validated with the spec
		}
		_, err = s.DetectRegion(locs, kernel, tc.mean, tc.u, 0.9, 16)
		if !errors.As(err, &in) || in.What != tc.what || in.Index != tc.index {
			t.Errorf("DetectRegion, %s: error %v, want DetectInputError{%s, %d}", tc.name, err, tc.what, tc.index)
		}
	}
	if hits, misses := s.Cache().Stats(); hits != 0 || misses != 0 || s.Cache().Len() != 0 {
		t.Errorf("rejected detections touched the factor cache: %d hits, %d misses, %d entries", hits, misses, s.Cache().Len())
	}
	if _, err := s.DetectRegionCov(append(sigma[:143:143], sigma[143][:100]), mean, 0, 0.9, 16); err == nil {
		t.Error("want error for a ragged covariance row")
	}
	if _, err := s.DetectRegionCov(nil, nil, 0, 0.9, 16); err == nil {
		t.Error("want error for an empty problem")
	}
}

// Posterior does not factor the prior, so an indefinite Σ passes through it;
// the detection's factorization must then refuse the posterior with a typed
// error, never return a region. The pivot fails in diagonal tile (0,0), which
// no approximation touches, so TLR and adaptive report Σ indefinite, not
// their approximation.
func TestPosteriorIndefinitePriorIsTyped(t *testing.T) {
	_, _, sigma, mean := detectProblem()
	// Correlation 2 between sites 0 and 1: indefinite. Σ_post = Σ − WᵀW keeps
	// every negative direction of Σ.
	sigma[0] = append([]float64(nil), sigma[0]...)
	sigma[1] = append([]float64(nil), sigma[1]...)
	sigma[0][1], sigma[1][0] = 2*1.4, 2*1.4
	var obsIdx []int
	var y []float64
	for i := 2; i < len(sigma); i += 3 {
		obsIdx = append(obsIdx, i)
		y = append(y, mean[i])
	}
	post, postMu, err := Posterior(sigma, mean, obsIdx, y, 0.25)
	if err != nil {
		t.Fatalf("Posterior: %v (Σ_OO + τ²I is positive definite)", err)
	}
	for _, m := range []Method{Dense, TLR, MethodAdaptive} {
		s := NewSession(Config{Method: m, TileSize: 36, QMCSize: 100})
		exc, err := s.DetectRegionCov(post, postMu, 0, 0.9, 16)
		s.Close()
		if exc != nil || !errors.Is(err, ErrNotPositiveDefinite) || errors.Is(err, ErrApproximationIndefinite) {
			t.Errorf("%v: DetectRegionCov = (%v, %v), want no region and ErrNotPositiveDefinite, not ErrApproximationIndefinite", m, exc, err)
		}
	}
}

// Posterior copies the caller's rows once and forms Σ_post in that copy: the
// caller's rows come back bit for bit, and no returned row aliases one of
// them.
func TestPosteriorLeavesCallerRowsUnwritten(t *testing.T) {
	_, _, sigma, mean := detectProblem()
	want := make([][]float64, len(sigma))
	for i, row := range sigma {
		want[i] = append([]float64(nil), row...)
	}
	var obsIdx []int
	var y []float64
	for i := 0; i < len(sigma); i += 5 {
		obsIdx = append(obsIdx, i)
		y = append(y, mean[i]+0.1)
	}
	post, _, err := Posterior(sigma, mean, obsIdx, y, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range sigma {
		for j, v := range row {
			if math.Float64bits(v) != math.Float64bits(want[i][j]) {
				t.Fatalf("Posterior wrote the caller's Σ[%d][%d]: %v, was %v", i, j, v, want[i][j])
			}
		}
		if &post[i][0] == &row[0] {
			t.Fatalf("Σ_post row %d aliases the caller's row", i)
		}
	}
}

// TestAdaptiveWithNothingToCompressIsDense: crd_2k's shape at n = 400 — the
// posterior of a synthetic field, a quarter of it observed, detected in
// marginal order, so no off-band tile compresses and column 0's probes all
// reject. The adaptive factor is then the dense one, and so is every bit of
// the confidence function.
func TestAdaptiveWithNothingToCompressIsDense(t *testing.T) {
	ds, err := datagen.NewSyntheticDataset(20, 100, "medium", rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	n := ds.PostCov.Rows
	sigma := make([][]float64, n)
	for i := range sigma {
		sigma[i] = ds.PostCov.Col(i) // PostCov is symmetric
	}
	h := &recordHandler{}
	defer slog.SetDefault(slog.Default())
	slog.SetDefault(slog.New(h))
	var exc [2]*Excursion
	for k, m := range []Method{Dense, MethodAdaptive} {
		s := NewSession(Config{Method: m, Workers: 2, TileSize: 50, TLRTol: 1e-4, QMCSize: 500})
		exc[k], err = s.DetectRegionCov(sigma, ds.PostMu, 0, 0.9, 0)
		s.Close()
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
	}
	if len(h.recs) != 2 {
		t.Fatalf("%d log records for two detections, want 2", len(h.recs))
	}
	attrs := map[string]slog.Value{}
	h.recs[1].Attrs(func(a slog.Attr) bool { attrs[a.Key] = a.Value; return true })
	// NT = 8: column 0's 6 off-band tiles probed and rejected, the other 15
	// skipped.
	if p, rej, skip := attrs["probes"].Int64(), attrs["probes_rejected"].Int64(), attrs["probes_skipped"].Int64(); p != 6 || rej != 6 || skip != 15 {
		t.Fatalf("adaptive probes %d, rejected %d, skipped %d; want 6, 6 and 15", p, rej, skip)
	}
	if !reflect.DeepEqual(exc[0].Region, exc[1].Region) || !reflect.DeepEqual(exc[0].Order, exc[1].Order) {
		t.Errorf("adaptive region %v, dense %v", exc[1].Region, exc[0].Region)
	}
	for i, f := range exc[0].F {
		if math.Float64bits(exc[1].F[i]) != math.Float64bits(f) {
			t.Fatalf("F[%d] = %v under adaptive, %v under dense", i, exc[1].F[i], f)
		}
	}
}
