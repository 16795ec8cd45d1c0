package parmvn

import (
	"errors"
	"math"
	"testing"
)

// TestValidationConsistency pins that the direct and batch entry points
// accept exactly the same inputs and reject the rest with identical errors:
// the batch path wraps the shared validateQuery error with the query index
// and nothing else. Historically the two paths validated independently and
// drifted; this test keeps them unified.
func TestValidationConsistency(t *testing.T) {
	s := NewSession(Config{TileSize: 2, QMCSize: 100})
	defer s.Close()
	locs := Grid(2, 2)
	kernel := KernelSpec{Family: "exponential", Range: 0.3}
	sigma := CovarianceMatrix(locs, kernel)
	nan := math.NaN()

	cases := []struct {
		name string
		a, b []float64
	}{
		{"short a", []float64{0}, []float64{1, 1, 1, 1}},
		{"short b", []float64{0, 0, 0, 0}, []float64{1}},
		{"nil limits", nil, nil},
		{"nan in a", []float64{nan, 0, 0, 0}, []float64{1, 1, 1, 1}},
		{"nan in b", []float64{0, 0, 0, 0}, []float64{1, nan, 1, 1}},
	}
	for _, tc := range cases {
		_, directErr := s.MVNProb(locs, kernel, tc.a, tc.b)
		if directErr == nil {
			t.Fatalf("%s: direct path accepted invalid limits", tc.name)
		}
		_, batchErr := s.MVNProbBatch(locs, kernel, []Bounds{{A: tc.a, B: tc.b}})
		if batchErr == nil {
			t.Fatalf("%s: batch path accepted what the direct path rejects", tc.name)
		}
		// The batch error is the direct error wrapped with the query index.
		unwrapped := errors.Unwrap(batchErr)
		if unwrapped == nil || unwrapped.Error() != directErr.Error() {
			t.Fatalf("%s: batch error %q does not wrap the direct error %q", tc.name, batchErr, directErr)
		}
		_, mvtErr := s.MVTProb(locs, kernel, 5, tc.a, tc.b)
		if mvtErr == nil || mvtErr.Error() != directErr.Error() {
			t.Fatalf("%s: MVT error %q != MVN error %q", tc.name, mvtErr, directErr)
		}
		_, mvtBatchErr := s.MVTProbBatch(locs, kernel, 5, []Bounds{{A: tc.a, B: tc.b}})
		if mvtBatchErr == nil || mvtBatchErr.Error() != batchErr.Error() {
			t.Fatalf("%s: MVT batch error %q != MVN batch error %q", tc.name, mvtBatchErr, batchErr)
		}
		// An explicit Σ of the same dimension is refused identically.
		_, covErr := s.MVNProbCov(sigma, tc.a, tc.b)
		if covErr == nil || covErr.Error() != directErr.Error() {
			t.Fatalf("%s: explicit-Σ error %q != MVN error %q", tc.name, covErr, directErr)
		}
		_, covBatchErr := s.MVNProbCovBatch(sigma, []Bounds{{A: tc.a, B: tc.b}})
		if covBatchErr == nil || covBatchErr.Error() != batchErr.Error() {
			t.Fatalf("%s: explicit-Σ batch error %q != MVN batch error %q", tc.name, covBatchErr, batchErr)
		}
	}

	// A multi-query batch names the offending query.
	good := Bounds{A: []float64{-1, -1, -1, -1}, B: []float64{1, 1, 1, 1}}
	bad := Bounds{A: []float64{-1}, B: []float64{1}}
	_, err := s.MVNProbBatch(locs, kernel, []Bounds{good, bad})
	if err == nil {
		t.Fatal("batch accepted a bad query behind a good one")
	}
	want := "parmvn: query 1: parmvn: limits length (1,1) != dimension 4"
	if err.Error() != want {
		t.Fatalf("batch error = %q, want %q", err, want)
	}

	// ν validation is shared between direct and batch MVT paths.
	for _, nu := range []float64{0, -3, math.NaN(), math.Inf(1)} {
		_, direct := s.MVTProb(locs, kernel, nu, good.A, good.B)
		_, batch := s.MVTProbBatch(locs, kernel, nu, []Bounds{good})
		if direct == nil || batch == nil {
			t.Fatalf("nu=%g accepted (direct=%v batch=%v)", nu, direct, batch)
		}
		if direct.Error() != batch.Error() {
			t.Fatalf("nu=%g: direct %q != batch %q", nu, direct, batch)
		}
	}
}

// TestFactorOnlyCallsValidateLikeQueries: Prefactorize, SaveFactor and
// FactorFootprint refuse an empty location set and a tile larger than the
// problem with exactly the error a query on the same problem returns, before
// anything is factorized, cached or stored.
func TestFactorOnlyCallsValidateLikeQueries(t *testing.T) {
	st, err := OpenFactorStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	kernel := KernelSpec{Family: "exponential", Range: 0.3}
	for _, tc := range []struct {
		name string
		tile int
		locs []Point
	}{
		{"nil locations", 4, nil},
		{"tile larger than n", 16, Grid(3, 3)},
	} {
		s := NewSession(Config{TileSize: tc.tile, QMCSize: 100})
		a, b := make([]float64, len(tc.locs)), make([]float64, len(tc.locs))
		for i := range a {
			a[i], b[i] = -1, 1
		}
		_, want := s.MVNProb(tc.locs, kernel, a, b)
		if want == nil {
			t.Fatalf("%s: the query path accepted the problem", tc.name)
		}
		calls := []struct {
			name string
			call func() error
		}{
			{"Prefactorize", func() error { return s.Prefactorize(tc.locs, kernel) }},
			{"SaveFactor", func() error { return s.SaveFactor(st, tc.locs, kernel) }},
			{"FactorFootprint", func() error { _, err := s.FactorFootprint(tc.locs, kernel); return err }},
		}
		for _, c := range calls {
			if err := c.call(); err == nil || err.Error() != want.Error() {
				t.Errorf("%s: %s error %v, want the query path's %q", tc.name, c.name, err, want)
			}
		}
		if _, misses := s.Cache().Stats(); s.Cache().Len() != 0 || misses != 0 {
			t.Errorf("%s: cache holds %d factors after %d misses, want 0 and 0", tc.name, s.Cache().Len(), misses)
		}
		if n, err := st.Len(); err != nil || n != 0 {
			t.Errorf("%s: store holds %d factors (%v), want 0", tc.name, n, err)
		}
		s.Close()
	}
}

// TestEmptyBoxConsistency pins the degenerate-box semantics on both paths:
// a box with some a[i] ≥ b[i] is valid, has probability exactly 0, and does
// not cost a factorization on either path.
func TestEmptyBoxConsistency(t *testing.T) {
	s := NewSession(Config{TileSize: 2, QMCSize: 100})
	defer s.Close()
	locs := Grid(2, 2)
	kernel := KernelSpec{Family: "exponential", Range: 0.3}
	a := []float64{2, -1, -1, -1}
	b := []float64{1, 1, 1, 1} // a[0] > b[0] → empty

	res, err := s.MVNProb(locs, kernel, a, b)
	if err != nil || res.Prob != 0 {
		t.Fatalf("direct empty box = (%g, %v), want (0, nil)", res.Prob, err)
	}
	batch, err := s.MVNProbBatch(locs, kernel, []Bounds{{A: a, B: b}, {A: a, B: b}})
	if err != nil || batch[0].Prob != 0 || batch[1].Prob != 0 {
		t.Fatalf("batch empty boxes = (%v, %v), want zeros", batch, err)
	}
	if _, misses := s.Cache().Stats(); misses != 0 {
		t.Fatalf("empty boxes cost %d factorizations, want 0", misses)
	}

	// Equal bounds are a measure-zero box: also exactly 0.
	eq := []float64{0, 0, 0, 0}
	res, err = s.MVNProb(locs, kernel, eq, eq)
	if err != nil || res.Prob != 0 {
		t.Fatalf("measure-zero box = (%g, %v), want (0, nil)", res.Prob, err)
	}

	// But an invalid kernel still errors, even with an empty box.
	if _, err := s.MVNProb(locs, KernelSpec{Range: -1}, a, b); err == nil {
		t.Fatal("empty box masked an invalid kernel")
	}

	// A mixed batch evaluates the live queries and zeros the empty ones,
	// identically to the direct path.
	live := Bounds{A: []float64{-1, -1, -1, -1}, B: []float64{1, 1, 1, 1}}
	mixed, err := s.MVNProbBatch(locs, kernel, []Bounds{{A: a, B: b}, live})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := s.MVNProb(locs, kernel, live.A, live.B)
	if err != nil {
		t.Fatal(err)
	}
	if mixed[0].Prob != 0 || mixed[1].Prob != direct.Prob {
		t.Fatalf("mixed batch = %+v, want [0, %g]", mixed, direct.Prob)
	}
}

// TestProblemKeyAndFactorState covers the exported serving hooks: key
// equality/inequality, Config/Session agreement, and the factor state
// transitions around Prefactorize.
func TestProblemKeyAndFactorState(t *testing.T) {
	cfg := Config{TileSize: 4, QMCSize: 100, Method: TLR}
	s := NewSession(cfg)
	defer s.Close()
	locs := Grid(3, 3)
	spec := KernelSpec{Family: "exponential", Range: 0.3}

	k1, err := s.ProblemKey(locs, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Config-level and session-level keys agree (sharding can be decided
	// before any session exists).
	k2, err := cfg.ProblemKey(locs, spec)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 || k1.Hash() != k2.Hash() {
		t.Fatal("Config.ProblemKey != Session.ProblemKey for the same configuration")
	}
	// Normalization: the defaulted spec shares the key.
	k3, err := s.ProblemKey(locs, KernelSpec{Family: "", Sigma2: 1, Range: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if k3 != k1 {
		t.Fatal("normalized-equal specs produced different keys")
	}
	// A different kernel does not.
	k4, err := s.ProblemKey(locs, KernelSpec{Family: "exponential", Range: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if k4 == k1 {
		t.Fatal("different kernels share a key")
	}
	if _, err := s.ProblemKey(locs, KernelSpec{Range: -1}); err == nil {
		t.Fatal("ProblemKey accepted an invalid spec")
	}

	if st, _ := s.FactorState(k1); st != FactorAbsent {
		t.Fatalf("state before any query = %v, want FactorAbsent", st)
	}
	if err := s.Prefactorize(locs, spec); err != nil {
		t.Fatal(err)
	}
	st, ch := s.FactorState(k1)
	if st != FactorReady || ch != nil {
		t.Fatalf("state after Prefactorize = %v (ch=%v), want FactorReady", st, ch)
	}
	// The prefactorized query is a pure cache hit.
	h0, m0 := s.Cache().Stats()
	a := make([]float64, len(locs))
	b := make([]float64, len(locs))
	for i := range a {
		a[i], b[i] = -1, 1
	}
	if _, err := s.MVNProb(locs, spec, a, b); err != nil {
		t.Fatal(err)
	}
	h1, m1 := s.Cache().Stats()
	if m1 != m0 || h1 != h0+1 {
		t.Fatalf("warm query after Prefactorize: hits %d→%d misses %d→%d, want one hit, no miss", h0, h1, m0, m1)
	}
}
