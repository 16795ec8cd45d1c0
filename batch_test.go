package parmvn

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"
)

// batchQueries builds nq lower-limit sweeps over the given dimension.
func batchQueries(n, nq int) []Bounds {
	qs := make([]Bounds, nq)
	for q := range qs {
		lo := -1.0 + 1.5*float64(q)/float64(nq)
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = lo
			b[i] = math.Inf(1)
		}
		qs[q] = Bounds{A: a, B: b}
	}
	return qs
}

func TestBatchMatchesSequential(t *testing.T) {
	locs := Grid(8, 8)
	kernel := KernelSpec{Family: "exponential", Range: 0.15}
	cfg := Config{QMCSize: 1000, TileSize: 16, Replicates: 3}
	queries := batchQueries(len(locs), 5)

	// Sequential reference: a fresh session per query, so every call
	// re-factorizes from scratch — the pre-batching behavior.
	want := make([]Result, len(queries))
	for i, q := range queries {
		s := NewSession(cfg)
		r, err := s.MVNProb(locs, kernel, q.A, q.B)
		s.Close()
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}

	s := NewSession(cfg)
	defer s.Close()
	got, err := s.MVNProbBatch(locs, kernel, queries)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("query %d: batch %+v != sequential %+v", i, got[i], want[i])
		}
	}

	// A plain loop of single queries on one session — the first cold, the
	// rest on the cached factor — gives the same numbers again.
	s2 := NewSession(cfg)
	defer s2.Close()
	for i, q := range queries {
		r, err := s2.MVNProb(locs, kernel, q.A, q.B)
		if err != nil {
			t.Fatal(err)
		}
		if r != want[i] {
			t.Errorf("query %d: warm single query %+v != cold %+v", i, r, want[i])
		}
	}
}

func TestBatchMatchesSequentialTLR(t *testing.T) {
	locs := Grid(8, 8)
	kernel := KernelSpec{Family: "matern", Range: 0.15, Nu: 1.5}
	cfg := Config{Method: TLR, QMCSize: 800, TileSize: 16, TLRTol: 1e-8, Replicates: 2}
	queries := batchQueries(len(locs), 4)

	want := make([]Result, len(queries))
	for i, q := range queries {
		s := NewSession(cfg)
		r, err := s.MVNProb(locs, kernel, q.A, q.B)
		s.Close()
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}

	s := NewSession(cfg)
	defer s.Close()
	got, err := s.MVNProbBatch(locs, kernel, queries)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("query %d: batch %+v != sequential %+v", i, got[i], want[i])
		}
	}
}

// TestEntryPointsAgree pins that the query entry points are one path. For
// every problem — MVN and MVT (ν = 5) on a kernel, MVN on the explicit Σ of
// the same kernel — and budget — fixed N, MaxRelErr 1e-2 — a direct call, a
// one-box batch and a three-box batch whose middle box is empty return the
// same Result for each box, field for field, with nil, shared and per-box
// opts. The explicit Σ and the Student-t batch have no opts batch entry
// point, so they run fixed N, nil opts.
func TestEntryPointsAgree(t *testing.T) {
	s := NewSession(Config{TileSize: 8, QMCSize: 600, Replicates: 2})
	defer s.Close()
	locs := Grid(4, 4)
	kernel := KernelSpec{Family: "matern", Range: 0.2, Nu: 1.5}
	sigma := CovarianceMatrix(locs, kernel)
	boxes := batchQueries(len(locs), 3)
	boxes[1].A[5], boxes[1].B[5] = 1, 0 // empty: probability exactly 0

	type entry struct {
		name   string
		direct func(a, b []float64, o QueryOpts) (Result, error)
		batch  func(qs []Bounds, opts []QueryOpts) ([]Result, error)
		opts   bool // has a per-query opts batch entry point
	}
	entries := []entry{
		{"mvn", func(a, b []float64, o QueryOpts) (Result, error) {
			if o == (QueryOpts{}) {
				return s.MVNProb(locs, kernel, a, b)
			}
			return s.MVNProbOpts(locs, kernel, a, b, o)
		}, func(qs []Bounds, opts []QueryOpts) ([]Result, error) {
			if opts == nil {
				return s.MVNProbBatch(locs, kernel, qs)
			}
			return s.MVNProbBatchOpts(locs, kernel, qs, opts)
		}, true},
		{"mvt5", func(a, b []float64, o QueryOpts) (Result, error) {
			return s.MVTProbOpts(locs, kernel, 5, a, b, o)
		}, func(qs []Bounds, _ []QueryOpts) ([]Result, error) {
			return s.MVTProbBatch(locs, kernel, 5, qs)
		}, false},
		{"sigma", func(a, b []float64, _ QueryOpts) (Result, error) {
			return s.MVNProbCov(sigma, a, b)
		}, func(qs []Bounds, _ []QueryOpts) ([]Result, error) {
			return s.MVNProbCovBatch(sigma, qs)
		}, false},
	}
	for _, e := range entries {
		for _, budget := range []QueryOpts{{}, {MaxRelErr: 1e-2}} {
			if !e.opts && budget != (QueryOpts{}) {
				continue
			}
			for _, qs := range [][]Bounds{boxes[:1], boxes} {
				// The opts shapes: nil (every box unconstrained), shared, and
				// per box (the budget on even boxes only).
				shapes := [][]QueryOpts{nil}
				if e.opts {
					per := make([]QueryOpts, len(qs))
					for i := 0; i < len(qs); i += 2 {
						per[i] = budget
					}
					shapes = append(shapes, []QueryOpts{budget}, per)
				}
				for k, opts := range shapes {
					name := fmt.Sprintf("%s/maxrelerr=%g/%s/%d-box", e.name, budget.MaxRelErr, []string{"nil", "shared", "per-box"}[k], len(qs))
					got, err := e.batch(qs, opts)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					for i, q := range qs {
						want, err := e.direct(q.A, q.B, optAt(opts, i))
						if err != nil {
							t.Fatalf("%s: direct box %d: %v", name, i, err)
						}
						if got[i] != want {
							t.Errorf("%s: box %d batch %+v != direct %+v", name, i, got[i], want)
						}
					}
				}
			}
		}
	}
}

func TestMVNProbCovBatch(t *testing.T) {
	rho := 0.5
	sigma := [][]float64{{1, rho}, {rho, 1}}
	s := NewSession(Config{QMCSize: 20000, TileSize: 2})
	defer s.Close()
	inf := math.Inf(1)
	queries := []Bounds{
		{A: []float64{-inf, -inf}, B: []float64{0, 0}},
		{A: []float64{-inf, -inf}, B: []float64{inf, inf}},
	}
	res, err := s.MVNProbCovBatch(sigma, queries)
	if err != nil {
		t.Fatal(err)
	}
	orthant := 0.25 + math.Asin(rho)/(2*math.Pi)
	if math.Abs(res[0].Prob-orthant) > 2e-3 {
		t.Errorf("orthant %v, want %v", res[0].Prob, orthant)
	}
	if math.Abs(res[1].Prob-1) > 1e-12 {
		t.Errorf("whole-space probability %v, want 1", res[1].Prob)
	}
	// Same matrix again: the factor must come from the cache.
	if _, err := s.MVNProbCovBatch(sigma, queries[:1]); err != nil {
		t.Fatal(err)
	}
	if hits, _ := s.Cache().Stats(); hits != 1 {
		t.Errorf("cov re-query hits = %d, want 1", hits)
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

func TestBatchValidatesBeforeFactorizing(t *testing.T) {
	s := NewSession(Config{QMCSize: 100, TileSize: 8})
	defer s.Close()
	locs := Grid(3, 3)
	short := make([]float64, 5)
	if _, err := s.MVNProbBatch(locs, KernelSpec{Range: 0.1}, []Bounds{{A: short, B: short}}); err == nil {
		t.Fatal("want error for short limits")
	}
	// The mis-sized query must have been rejected before any factor was
	// built or cached.
	if _, misses := s.Cache().Stats(); misses != 0 {
		t.Errorf("invalid query caused %d factorization(s)", misses)
	}
	if s.Cache().Len() != 0 {
		t.Errorf("invalid query left %d cache entries", s.Cache().Len())
	}
}

func TestBatchValidation(t *testing.T) {
	s := NewSession(Config{QMCSize: 100, TileSize: 8})
	defer s.Close()
	locs := Grid(3, 3)
	good := make([]float64, 9)
	if _, err := s.MVNProbBatch(locs, KernelSpec{Range: 0.1}, []Bounds{{A: good, B: good[:5]}}); err == nil {
		t.Error("want error for short limits in a batch query")
	}
	if _, err := s.MVNProbBatch(locs, KernelSpec{Range: -1}, nil); err == nil {
		t.Error("want error for invalid kernel")
	}
	res, err := s.MVNProbBatch(locs, KernelSpec{Range: 0.1}, nil)
	if err != nil || len(res) != 0 {
		t.Errorf("empty batch: res %v err %v", res, err)
	}
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
	queries := batchQueries(len(locs), 2)

	// Reference values from isolated sessions.
	want := make([][]Result, len(kernels))
	for ki, k := range kernels {
		want[ki] = make([]Result, len(queries))
		for qi, q := range queries {
			s := NewSession(cfg)
			r, err := s.MVNProb(locs, k, q.A, q.B)
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
				r, err := s.MVNProb(locs, kernels[ki], queries[qi].A, queries[qi].B)
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
	if st, _ := s.FactorState(warmKey); st != FactorReady {
		t.Errorf("warm key state %v, want ready", st)
	}
	if st, _ := s.FactorState(coldKey); st != FactorBuilding {
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
