package parmvn

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/engine"
)

// TestMVNProbAdaptiveMatchesDense is the cross-representation property test:
// over random SPD kernels, MethodAdaptive must reproduce the dense float64
// reference probability within the configured accuracy (the QMC sampling is
// deterministic per configuration, so any difference comes from the factor
// representations alone).
func TestMVNProbAdaptiveMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 5; trial++ {
		n := 64 + rng.Intn(81) // 64..144
		locs := make([]Point, n)
		for i := range locs {
			locs[i] = Point{rng.Float64(), rng.Float64()}
		}
		kernel := KernelSpec{
			Family: []string{"exponential", "matern"}[rng.Intn(2)],
			Range:  0.1 + 0.3*rng.Float64(),
			Nu:     1.5,
			Nugget: 0.05,
		}
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = -1.5 - rng.Float64()
			b[i] = 1.5 + rng.Float64()
		}
		var probs [2]float64
		for m, method := range []Method{Dense, MethodAdaptive} {
			s := NewSession(Config{Method: method, TileSize: 16, QMCSize: 2000, TLRTol: 1e-6})
			res, err := s.MVNProb(locs, kernel, a, b)
			s.Close()
			if err != nil {
				t.Fatalf("trial %d %v: %v", trial, method, err)
			}
			probs[m] = res.Prob
		}
		if probs[0] <= 0 || probs[0] >= 1 {
			t.Fatalf("trial %d: implausible dense probability %v", trial, probs[0])
		}
		// Accuracy budget: TLRTol-level compression, far below the QMC
		// standard error at N=2000.
		if d := math.Abs(probs[0] - probs[1]); d > 1e-3*math.Max(probs[0], 0.01) {
			t.Errorf("trial %d (n=%d %s): dense %v vs adaptive %v differ by %v",
				trial, n, kernel.Family, probs[0], probs[1], d)
		}
	}
}

// TestAdaptiveMethodPlumbing pins the public surface of the methods: their
// names, which ParseMethod inverts exactly, and the policy each names, at the
// session's TLRTol. An unknown method is dense, as its name says.
func TestAdaptiveMethodPlumbing(t *testing.T) {
	if MethodAdaptive.String() != "adaptive" {
		t.Errorf("MethodAdaptive.String() = %q", MethodAdaptive.String())
	}
	for m := Dense; int(m) < len(engine.Presets); m++ {
		if got, err := ParseMethod(m.String()); got != m || err != nil {
			t.Errorf("ParseMethod(%q) = %v, %v; want %v", m.String(), got, err, m)
		}
	}
	for _, name := range []string{"TLR", "tlrr", ""} {
		if _, err := ParseMethod(name); err == nil {
			t.Errorf("ParseMethod(%q) accepted an unknown name", name)
		}
	}
	s := NewSession(Config{Method: MethodAdaptive})
	defer s.Close()
	tol := s.Config().TLRTol
	for m, want := range map[Method]engine.Policy{
		Dense:          {Band: math.MaxInt, Tol: tol},
		TLR:            {Tol: tol, RankFrac: 0.5},
		MethodAdaptive: {Band: 1, Tol: tol, RankFrac: 0.25},
		Method(7):      {Band: math.MaxInt, Tol: tol},
	} {
		if got := m.policy(tol); got != want {
			t.Errorf("%v (%d): policy %+v, want %+v", m, int(m), got, want)
		}
	}
}

// TestAdaptiveRankLimitHoldsForFactor pins the adaptive rank limit's contract
// on the finished factor: on a rough kernel built from locations (Matérn ν = 0.5,
// range 0.3, tile 64 — where the probe rejects off-diagonal tiles at the
// default limit of 16), no tile of the factor ends low rank above the limit.
// 15×15 is the smallest grid where a rejected tile compressed after its Schur
// updates lands at rank 21, so any step that recompresses dense tiles breaks
// the limit here.
func TestAdaptiveRankLimitHoldsForFactor(t *testing.T) {
	s := NewSession(Config{Method: MethodAdaptive, TileSize: 64})
	defer s.Close()
	locs := Grid(15, 15)
	fp, err := s.FactorFootprint(locs, KernelSpec{Family: "matern", Range: 0.3, Nu: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	c := s.Config()
	if nt := (len(locs) + c.TileSize - 1) / c.TileSize; fp.Dense64 <= nt {
		t.Fatalf("mix %d/%d: the probe rejected no off-diagonal tile", fp.Dense64, fp.LowRank)
	}
	if limit := MethodAdaptive.policy(c.TLRTol).RankLimit(c.TileSize, c.TileSize); fp.MaxRank > limit {
		t.Errorf("factor holds a rank-%d tile, above the adaptive limit %d", fp.MaxRank, limit)
	}
}

// TestTileSizeIsACap: a TileSize above the problem dimension is capped at
// it. At n = 9, sessions with TileSize 64 and 9 return the same bits from
// every entry point and share the ProblemKey, and a factor either one saves
// the other loads without factorizing.
func TestTileSizeIsACap(t *testing.T) {
	locs := Grid(3, 3)
	n := len(locs)
	kernel := KernelSpec{Range: 0.2}
	a := make([]float64, n)
	b := make([]float64, n)
	mean := make([]float64, n)
	for i := range b {
		a[i], b[i] = -1, 1
		mean[i] = float64(i % 3)
	}
	sigma := CovarianceMatrix(locs, kernel)
	must := func(tile int, what string, err error) {
		if err != nil {
			t.Fatalf("TileSize %d: %s: %v", tile, what, err)
		}
	}
	type answers struct {
		mvn, mvnCov, mvt  Result
		detect, detectCov *Excursion
		footprint         FactorFootprint
		key               ProblemKey
	}
	run := func(tile int) (r answers) {
		s := NewSession(Config{TileSize: tile, QMCSize: 200, Replicates: 2})
		defer s.Close()
		var err error
		r.mvn, err = s.MVNProb(locs, kernel, a, b)
		must(tile, "MVNProb", err)
		r.mvnCov, err = s.MVNProbCov(sigma, a, b)
		must(tile, "MVNProbCov", err)
		r.mvt, err = s.MVTProb(locs, kernel, 4, a, b)
		must(tile, "MVTProb", err)
		r.detect, err = s.DetectRegion(locs, kernel, mean, 0.5, 0.8, 0)
		must(tile, "DetectRegion", err)
		r.detectCov, err = s.DetectRegionCov(sigma, mean, 0.5, 0.8, 0)
		must(tile, "DetectRegionCov", err)
		r.footprint, err = s.FactorFootprint(locs, kernel)
		must(tile, "FactorFootprint", err)
		r.key, err = s.ProblemKey(locs, kernel)
		must(tile, "ProblemKey", err)
		return r
	}
	if capped, exact := run(64), run(n); !reflect.DeepEqual(capped, exact) {
		t.Errorf("TileSize 64 at n = %d answers\n%+v\nTileSize %d answers\n%+v", n, capped, n, exact)
	}
	for _, tiles := range [][2]int{{64, n}, {n, 64}} {
		st, err := OpenFactorStore(t.TempDir())
		must(tiles[0], "OpenFactorStore", err)
		saver := NewSession(Config{TileSize: tiles[0], QMCSize: 200})
		must(tiles[0], "SaveFactor", saver.SaveFactor(st, locs, kernel))
		saver.Close()
		loader := NewSession(Config{TileSize: tiles[1], QMCSize: 200})
		pk, err := loader.ProblemKey(locs, kernel)
		must(tiles[1], "ProblemKey", err)
		must(tiles[1], "LoadFactor", loader.LoadFactor(st, pk))
		_, err = loader.MVNProb(locs, kernel, a, b)
		must(tiles[1], "MVNProb", err)
		if _, misses := loader.Cache().Stats(); misses != 0 {
			t.Errorf("TileSize %d loading TileSize %d's factor paid %d factorizations, want 0", tiles[1], tiles[0], misses)
		}
		loader.Close()
	}
}

// TestSchedulerStatsSnapshot checks the session's scheduler statistics after
// a query: tasks counted per kind, a peak ready-queue depth.
func TestSchedulerStatsSnapshot(t *testing.T) {
	locs := Grid(4, 4)
	n := len(locs)
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range b {
		a[i], b[i] = -1, 1
	}
	s := NewSession(Config{TileSize: 8, QMCSize: 200})
	defer s.Close()
	if _, err := s.MVNProb(locs, KernelSpec{Range: 0.15}, a, b); err != nil {
		t.Fatal(err)
	}
	st := s.SchedulerStats()
	if st.Total() == 0 || st.Tasks["potrf"] == 0 {
		t.Errorf("implausible stats snapshot: %+v", st.Tasks)
	}
	if st.PeakReady < 1 {
		t.Errorf("peak ready-queue depth %d, want ≥ 1", st.PeakReady)
	}
}
