package parmvn

import (
	"math"
	"math/rand"
	"strings"
	"testing"
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
			s := NewSession(Config{
				Method: method, TileSize: 16, QMCSize: 2000, TLRTol: 1e-6,
				TLRMaxRank: -1, AdaptiveF32Norm: 0.5,
			})
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
		// Accuracy budget: TLRTol-level compression plus f32 tile rounding,
		// both far below the QMC standard error at N=2000.
		if d := math.Abs(probs[0] - probs[1]); d > 1e-3*math.Max(probs[0], 0.01) {
			t.Errorf("trial %d (n=%d %s): dense %v vs adaptive %v differ by %v",
				trial, n, kernel.Family, probs[0], probs[1], d)
		}
	}
}

// TestAdaptiveMethodPlumbing pins the public surface of the new method.
func TestAdaptiveMethodPlumbing(t *testing.T) {
	if MethodAdaptive.String() != "adaptive" {
		t.Errorf("MethodAdaptive.String() = %q", MethodAdaptive.String())
	}
	s := NewSession(Config{Method: MethodAdaptive})
	defer s.Close()
	c := s.Config()
	if c.AdaptiveBand != 1 || c.AdaptiveRankFrac != 0.25 || c.AdaptiveF32Norm != 0.1 {
		t.Errorf("unexpected adaptive defaults: %+v", c)
	}
}

// TestAdaptiveRankLimitHoldsForFactor pins AdaptiveRankFrac's contract on the
// finished factor: on a rough kernel built from locations (Matérn ν = 0.5,
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
		t.Fatalf("mix %d/%d/%d: the probe rejected no off-diagonal tile", fp.Dense64, fp.Dense32, fp.LowRank)
	}
	if limit := int(c.AdaptiveRankFrac * float64(c.TileSize)); fp.MaxRank > limit {
		t.Errorf("factor holds a rank-%d tile, above the AdaptiveRankFrac limit %d", fp.MaxRank, limit)
	}
}

// TestTileSizeValidatedAtEntryPoints checks every Session entry point rejects
// a tile size larger than the problem dimension with a clear error instead
// of failing deep inside tiling.
func TestTileSizeValidatedAtEntryPoints(t *testing.T) {
	s := NewSession(Config{TileSize: 64, QMCSize: 200})
	defer s.Close()
	locs := Grid(3, 3) // n = 9 < 64
	n := len(locs)
	kernel := KernelSpec{Range: 0.2}
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range b {
		a[i], b[i] = -1, 1
	}
	sigma := CovarianceMatrix(locs, kernel)
	mean := make([]float64, n)

	checks := []struct {
		name string
		err  func() error
	}{
		{"MVNProb", func() error { _, err := s.MVNProb(locs, kernel, a, b); return err }},
		{"MVNProbBatch", func() error { _, err := s.MVNProbBatch(locs, kernel, []Bounds{{A: a, B: b}}); return err }},
		{"MVNProbCov", func() error { _, err := s.MVNProbCov(sigma, a, b); return err }},
		{"MVTProb", func() error { _, err := s.MVTProb(locs, kernel, 4, a, b); return err }},
		{"DetectRegion", func() error { _, err := s.DetectRegion(locs, kernel, mean, 0, 0.9, 4); return err }},
		{"DetectRegionCov", func() error { _, err := s.DetectRegionCov(sigma, mean, 0, 0.9, 4); return err }},
	}
	for _, c := range checks {
		err := c.err()
		if err == nil || !strings.Contains(err.Error(), "TileSize") {
			t.Errorf("%s: want TileSize validation error, got %v", c.name, err)
		}
	}
}

// TestCollectStatsAttachesSnapshot checks Result carries scheduler stats
// when requested and stays lean otherwise.
func TestCollectStatsAttachesSnapshot(t *testing.T) {
	locs := Grid(4, 4)
	n := len(locs)
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range b {
		a[i], b[i] = -1, 1
	}
	kernel := KernelSpec{Range: 0.15}

	s := NewSession(Config{TileSize: 8, QMCSize: 200, CollectStats: true})
	res, err := s.MVNProb(locs, kernel, a, b)
	s.Close()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats == nil {
		t.Fatal("CollectStats: Result.Stats is nil")
	}
	if res.Stats.Total() == 0 || res.Stats.Tasks["potrf"] == 0 {
		t.Errorf("implausible stats snapshot: %+v", res.Stats.Tasks)
	}
	if res.Stats.PeakReady < 1 {
		t.Errorf("peak ready-queue depth %d, want ≥ 1", res.Stats.PeakReady)
	}

	s2 := NewSession(Config{TileSize: 8, QMCSize: 200})
	res2, err := s2.MVNProb(locs, kernel, a, b)
	s2.Close()
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats != nil {
		t.Error("Stats must be nil when CollectStats is off")
	}
}
