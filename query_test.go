package parmvn

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"
)

// box is one integration box [a,b].
type box struct{ a, b []float64 }

// sweepBoxes builds nq boxes over the given dimension whose common lower
// limit sweeps [-1, 0.5) and whose upper limits are free.
func sweepBoxes(n, nq int) []box {
	qs := make([]box, nq)
	for q := range qs {
		lo := -1.0 + 1.5*float64(q)/float64(nq)
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = lo
			b[i] = math.Inf(1)
		}
		qs[q] = box{a, b}
	}
	return qs
}

// checkWarmMatchesCold: a batch of queries on one session — the first cold,
// the rest on the cached factor — returns, query for query, the bits of the
// same queries each run on a fresh session that factorizes from scratch.
func checkWarmMatchesCold(t *testing.T, kernel KernelSpec, cfg Config, nq int) {
	t.Helper()
	locs := Grid(8, 8)
	queries := sweepBoxes(len(locs), nq)
	want := make([]Result, len(queries))
	for i, q := range queries {
		s := NewSession(cfg)
		r, err := s.MVNProb(locs, kernel, q.a, q.b)
		s.Close()
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}

	s := NewSession(cfg)
	defer s.Close()
	for i, q := range queries {
		r, err := s.MVNProb(locs, kernel, q.a, q.b)
		if err != nil {
			t.Fatal(err)
		}
		if r != want[i] {
			t.Errorf("query %d: warm %+v != cold %+v", i, r, want[i])
		}
	}
	if hits, misses := s.Cache().Stats(); hits != nq-1 || misses != 1 {
		t.Errorf("cache %d hits / %d misses, want %d / 1", hits, misses, nq-1)
	}
}

func TestBatchMatchesSequential(t *testing.T) {
	checkWarmMatchesCold(t, KernelSpec{Family: "exponential", Range: 0.15},
		Config{QMCSize: 1000, TileSize: 16, Replicates: 3}, 5)
}

func TestBatchMatchesSequentialTLR(t *testing.T) {
	checkWarmMatchesCold(t, KernelSpec{Family: "matern", Range: 0.15, Nu: 1.5},
		Config{Method: TLR, QMCSize: 800, TileSize: 16, TLRTol: 1e-8, Replicates: 2}, 4)
}

// TestEntryPointsAgree pins that the query entry points are one path. For
// every problem — MVN and MVT (ν = 5) on a kernel, MVN on the explicit Σ of
// the same kernel — and budget — fixed N, MaxRelErr 1e-2 — each of three
// boxes (the middle one empty) reads the same Result, field for field, cold
// on a one-worker session (the integration inline) and warm on a three-worker
// one (lane blocks as tasks), through the Opts entry point and, at fixed N,
// the plain one. The explicit Σ has no Opts entry point, so it runs fixed N.
func TestEntryPointsAgree(t *testing.T) {
	locs := Grid(4, 4)
	kernel := KernelSpec{Family: "matern", Range: 0.2, Nu: 1.5}
	sigma := CovarianceMatrix(locs, kernel)
	boxes := sweepBoxes(len(locs), 3)
	boxes[1].a[5], boxes[1].b[5] = 1, 0 // empty: probability exactly 0

	type call func(s *Session, a, b []float64, o QueryOpts) (Result, error)
	entries := []struct {
		name        string
		plain, opts call
	}{
		{"mvn", func(s *Session, a, b []float64, _ QueryOpts) (Result, error) {
			return s.MVNProb(locs, kernel, a, b)
		}, func(s *Session, a, b []float64, o QueryOpts) (Result, error) {
			return s.MVNProbOpts(locs, kernel, a, b, o)
		}},
		{"mvt5", func(s *Session, a, b []float64, _ QueryOpts) (Result, error) {
			return s.MVTProb(locs, kernel, 5, a, b)
		}, func(s *Session, a, b []float64, o QueryOpts) (Result, error) {
			return s.MVTProbOpts(locs, kernel, 5, a, b, o)
		}},
		{"sigma", func(s *Session, a, b []float64, _ QueryOpts) (Result, error) {
			return s.MVNProbCov(sigma, a, b)
		}, nil},
	}
	cfg := Config{TileSize: 8, QMCSize: 600, Replicates: 2}
	one, wide := cfg, cfg
	one.Workers, wide.Workers = 1, 3
	warm := NewSession(wide)
	defer warm.Close()
	for _, e := range entries {
		for _, budget := range []QueryOpts{{}, {MaxRelErr: 1e-2}} {
			calls := []call{e.plain, e.opts}
			switch {
			case e.opts == nil && budget != (QueryOpts{}):
				continue
			case e.opts == nil:
				calls = calls[:1]
			case budget != (QueryOpts{}):
				calls = calls[1:]
			}
			for i, q := range boxes {
				name := fmt.Sprintf("%s/maxrelerr=%g/box %d", e.name, budget.MaxRelErr, i)
				cold := NewSession(one)
				want, err := calls[len(calls)-1](cold, q.a, q.b, budget)
				cold.Close()
				if err != nil {
					t.Fatalf("%s: cold: %v", name, err)
				}
				for _, c := range calls {
					got, err := c(warm, q.a, q.b, budget)
					if err != nil {
						t.Fatalf("%s: warm: %v", name, err)
					}
					if got != want {
						t.Errorf("%s: warm on 3 workers %+v != cold inline %+v", name, got, want)
					}
				}
			}
		}
	}
}

func TestFactorCacheHitMiss(t *testing.T) {
	locs := Grid(4, 4)
	n := len(locs)
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = -1
		b[i] = 1
	}
	k1 := KernelSpec{Family: "exponential", Range: 0.1}
	k2 := KernelSpec{Family: "exponential", Range: 0.2}

	s := NewSession(Config{QMCSize: 200, TileSize: 8})
	defer s.Close()
	for i := 0; i < 3; i++ {
		if _, err := s.MVNProb(locs, k1, a, b); err != nil {
			t.Fatal(err)
		}
	}
	if hits, misses := s.Cache().Stats(); hits != 2 || misses != 1 {
		t.Errorf("after 3 identical queries: hits %d misses %d, want 2/1", hits, misses)
	}
	if _, err := s.MVNProb(locs, k2, a, b); err != nil {
		t.Fatal(err)
	}
	if hits, misses := s.Cache().Stats(); hits != 2 || misses != 2 {
		t.Errorf("different kernel must miss: hits %d misses %d, want 2/2", hits, misses)
	}
	if s.Cache().Len() != 2 {
		t.Errorf("cache holds %d factors, want 2", s.Cache().Len())
	}
	s.Cache().Purge()
	if s.Cache().Len() != 0 {
		t.Errorf("cache not empty after purge: %d", s.Cache().Len())
	}
	if _, err := s.MVNProb(locs, k1, a, b); err != nil {
		t.Fatal(err)
	}
	if _, misses := s.Cache().Stats(); misses != 3 {
		t.Errorf("post-purge query must re-factorize: misses %d, want 3", misses)
	}
}

// Purge drops every cached factor (the counters are kept).
func (c *FactorCache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = map[factorKey]*cacheEntry{}
}

func TestFactorCacheLRUEviction(t *testing.T) {
	locs := Grid(4, 4)
	n := len(locs)
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = -1
		b[i] = 1
	}
	s := NewSession(Config{QMCSize: 100, TileSize: 8, FactorCacheCap: 2})
	defer s.Close()
	ranges := []float64{0.1, 0.2, 0.3}
	for _, r := range ranges {
		if _, err := s.MVNProb(locs, KernelSpec{Range: r}, a, b); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Cache().Len(); got != 2 {
		t.Errorf("cache holds %d factors, want cap 2", got)
	}
	// Range 0.1 was least recently used and must have been evicted; 0.3
	// must still be resident.
	if _, err := s.MVNProb(locs, KernelSpec{Range: 0.3}, a, b); err != nil {
		t.Fatal(err)
	}
	hits, misses := s.Cache().Stats()
	if hits != 1 || misses != 3 {
		t.Errorf("after touching resident key: hits %d misses %d, want 1/3", hits, misses)
	}
	if _, err := s.MVNProb(locs, KernelSpec{Range: 0.1}, a, b); err != nil {
		t.Fatal(err)
	}
	if _, misses := s.Cache().Stats(); misses != 4 {
		t.Errorf("evicted key must re-factorize: misses %d, want 4", misses)
	}
}

func TestFactorCacheKernelSpecNormalization(t *testing.T) {
	locs := Grid(4, 4)
	n := len(locs)
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = -1
		b[i] = 1
	}
	s := NewSession(Config{QMCSize: 100, TileSize: 8})
	defer s.Close()
	// All four specs build the same exponential kernel.
	specs := []KernelSpec{
		{Range: 0.1},
		{Family: "exponential", Range: 0.1},
		{Range: 0.1, Sigma2: 1},
		{Family: "exponential", Range: 0.1, Sigma2: 1, Nu: 2.5},
	}
	for _, spec := range specs {
		if _, err := s.MVNProb(locs, spec, a, b); err != nil {
			t.Fatal(err)
		}
	}
	if hits, misses := s.Cache().Stats(); hits != 3 || misses != 1 {
		t.Errorf("equivalent specs must share a factor: hits %d misses %d, want 3/1", hits, misses)
	}
}

// checkNoFactor fails unless the session's cache is still empty.
func checkNoFactor(t *testing.T, s *Session) {
	t.Helper()
	if _, misses := s.Cache().Stats(); misses != 0 {
		t.Errorf("invalid queries caused %d factorization(s)", misses)
	}
	if s.Cache().Len() != 0 {
		t.Errorf("invalid queries left %d cache entries", s.Cache().Len())
	}
}

// TestBatchValidatesBeforeFactorizing: limits of the wrong length are an
// error that builds and caches no factor.
func TestBatchValidatesBeforeFactorizing(t *testing.T) {
	s := NewSession(Config{QMCSize: 100, TileSize: 8})
	defer s.Close()
	short := make([]float64, 5)
	if _, err := s.MVNProb(Grid(3, 3), KernelSpec{Range: 0.1}, short, short); err == nil {
		t.Fatal("want error for short limits")
	}
	checkNoFactor(t, s)
}

// TestBatchValidation: short upper limits, and an invalid kernel with a live
// box, are errors that build and cache no factor. (An invalid kernel with an
// empty box: TestInvalidKernelSpecDoesNotPolluteCache.)
func TestBatchValidation(t *testing.T) {
	s := NewSession(Config{QMCSize: 100, TileSize: 8})
	defer s.Close()
	locs := Grid(3, 3)
	lo, hi := make([]float64, 9), make([]float64, 9)
	for i := range lo {
		lo[i], hi[i] = -1, 1
	}
	if _, err := s.MVNProb(locs, KernelSpec{Range: 0.1}, lo, hi[:5]); err == nil {
		t.Error("want error for short upper limits")
	}
	if _, err := s.MVNProb(locs, KernelSpec{Range: -1}, lo, hi); err == nil {
		t.Error("want error for invalid kernel")
	}
	checkNoFactor(t, s)
}

// TestConcurrentSessionUse hammers one session from many goroutines — mixed
// cache hits, a concurrent first factorization, and parallel query graphs —
// and checks every goroutine sees the same deterministic results. Run under
// -race this is the session-concurrency safety test. Last, a cold build with
// a second caller waiting on it must leave the cache lock to everyone else:
// a warm key's state (what the server checks first) reads while the build
// still runs.
func TestConcurrentSessionUse(t *testing.T) {
	locs := Grid(6, 6)
	kernels := []KernelSpec{
		{Family: "exponential", Range: 0.1},
		{Family: "exponential", Range: 0.3},
	}
	cfg := Config{QMCSize: 500, TileSize: 12, Replicates: 2}
	queries := sweepBoxes(len(locs), 2)

	// Reference values from isolated sessions.
	want := make([][]Result, len(kernels))
	for ki, k := range kernels {
		want[ki] = make([]Result, len(queries))
		for qi, q := range queries {
			s := NewSession(cfg)
			r, err := s.MVNProb(locs, k, q.a, q.b)
			s.Close()
			if err != nil {
				t.Fatal(err)
			}
			want[ki][qi] = r
		}
	}

	s := NewSession(cfg)
	defer s.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < 3; it++ {
				ki := (g + it) % len(kernels)
				qi := (g + it) % len(queries)
				r, err := s.MVNProb(locs, kernels[ki], queries[qi].a, queries[qi].b)
				if err != nil {
					errs <- err
					return
				}
				if r != want[ki][qi] {
					t.Errorf("goroutine %d: got %+v, want %+v", g, r, want[ki][qi])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// All 24 calls over 2 distinct factors: exactly 2 misses.
	hits, misses := s.Cache().Stats()
	if misses != 2 {
		t.Errorf("misses = %d, want 2", misses)
	}

	big := Grid(28, 28) // n = 784: the build outlasts a scheduling slice on one CPU
	cold := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() { cold <- s.Prefactorize(big, kernels[0]) }()
	}
	// One caller leads the build (a miss), the other joins it (a hit).
	for h, m := s.Cache().Stats(); h == hits || m == misses; h, m = s.Cache().Stats() {
		time.Sleep(100 * time.Microsecond)
	}
	warmKey, err := cfg.ProblemKey(locs, kernels[1])
	if err != nil {
		t.Fatal(err)
	}
	coldKey, err := cfg.ProblemKey(big, kernels[0])
	if err != nil {
		t.Fatal(err)
	}
	if st := factorState(s.cache, warmKey.k); st != "ready" {
		t.Errorf("warm key state %v, want ready", st)
	}
	if st := factorState(s.cache, coldKey.k); st != "building" {
		t.Error("the warm key's state was readable only after the cold build finished")
	}
	for i := 0; i < 2; i++ {
		if err := <-cold; err != nil {
			t.Fatal(err)
		}
	}
}

// TestInvalidKernelSpecDoesNotPolluteCache: malformed specs must fail fast
// without occupying (and evicting from) the bounded factor cache.
func TestInvalidKernelSpecDoesNotPolluteCache(t *testing.T) {
	s := NewSession(Config{TileSize: 8, QMCSize: 50})
	defer s.Close()
	locs := Grid(4, 4)
	a := make([]float64, len(locs))
	b := make([]float64, len(locs))
	for _, bad := range []KernelSpec{
		{Family: "nope", Range: 0.2},
		{Family: "matern", Range: 0.2}, // Nu missing
		{Family: "exponential"},        // Range missing
	} {
		if _, err := s.MVNProb(locs, bad, a, b); err == nil {
			t.Errorf("spec %+v: want error", bad)
		}
	}
	if n := s.Cache().Len(); n != 0 {
		t.Errorf("invalid specs left %d cache entries, want 0", n)
	}
	if hits, misses := s.Cache().Stats(); hits != 0 || misses != 0 {
		t.Errorf("invalid specs touched the cache: %d hits / %d misses", hits, misses)
	}
}
