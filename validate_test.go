package parmvn

import (
	"context"
	"math"
	"os"
	"strings"
	"testing"
)

// TestValidationConsistency pins that the MVN, MVT and explicit-Σ entry
// points accept exactly the same boxes and reject the rest with identical
// errors, and that the plain and Opts forms of MVTProb refuse the same ν.
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
		_, mvtErr := s.MVTProb(locs, kernel, 5, tc.a, tc.b)
		if mvtErr == nil || mvtErr.Error() != directErr.Error() {
			t.Fatalf("%s: MVT error %q != MVN error %q", tc.name, mvtErr, directErr)
		}
		// An explicit Σ of the same dimension is refused identically.
		_, covErr := s.MVNProbCov(sigma, tc.a, tc.b)
		if covErr == nil || covErr.Error() != directErr.Error() {
			t.Fatalf("%s: explicit-Σ error %q != MVN error %q", tc.name, covErr, directErr)
		}
	}

	// ν validation is shared between the plain and Opts MVT entry points.
	a, b := []float64{-1, -1, -1, -1}, []float64{1, 1, 1, 1}
	for _, nu := range []float64{0, -3, math.NaN(), math.Inf(1)} {
		_, plain := s.MVTProb(locs, kernel, nu, a, b)
		_, opts := s.MVTProbOpts(locs, kernel, nu, a, b, QueryOpts{MaxRelErr: 1e-2})
		if plain == nil || opts == nil {
			t.Fatalf("nu=%g accepted (MVTProb=%v MVTProbOpts=%v)", nu, plain, opts)
		}
		if plain.Error() != opts.Error() {
			t.Fatalf("nu=%g: MVTProb %q != MVTProbOpts %q", nu, plain, opts)
		}
	}
}

// TestFactorOnlyCallsValidateLikeQueries: Prefactorize, SaveFactor,
// FactorFootprint and Warm refuse an empty location set with exactly the
// error a query on the same problem returns, before anything is factorized,
// cached or stored.
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
			{"Warm", func() error {
				_, _, err := s.Warm(context.Background(), tc.locs, kernel, st, func() (func(), error) { return func() {}, nil })
				return err
			}},
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

// Len counts the factors currently persisted.
func (st *FactorStore) Len() (int, error) {
	ents, err := os.ReadDir(st.dir)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), storeExt) {
			n++
		}
	}
	return n, nil
}

// TestEmptyBoxConsistency pins the degenerate-box semantics: a box with some
// a[i] ≥ b[i] is valid, has probability exactly 0, and does not cost a
// factorization, though an invalid kernel is still an error.
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
	sigma := CovarianceMatrix(locs, kernel)
	if res, err := s.MVNProbCov(sigma, a, b); err != nil || res != (Result{}) {
		t.Fatalf("explicit-Σ empty box = (%+v, %v), want (zero, nil)", res, err)
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
}

// TestProblemKeyAndFactorState covers the problem key — equality and
// inequality, Config/Session agreement — and the cache state of its factor
// around Prefactorize.
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

	if st := factorState(s.cache, k1.k); st != "absent" {
		t.Fatalf("state before any query = %v, want absent", st)
	}
	if err := s.Prefactorize(locs, spec); err != nil {
		t.Fatal(err)
	}
	if st := factorState(s.cache, k1.k); st != "ready" {
		t.Fatalf("state after Prefactorize = %v, want ready", st)
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
