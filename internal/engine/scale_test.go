package engine_test

import (
	"testing"

	"repro/internal/cov"
	"repro/internal/engine"
	"repro/internal/geo"
	"repro/internal/taskrt"
	"repro/internal/tile"
)

// TestTLRCompressOnceAtScale checks accuracy and rank at the benchmark's tile
// size and kernel (n = 2304, 9×9 tiles of 256, Matérn 5/2 + nugget 0.1):
// compressing a low-rank tile once, after all of its Schur updates, must
// reconstruct Σ at least as well as rounding after every update did, and may
// cost rank — it keeps energy that successive truncations shaved off — but no
// more than 15 %. The reference columns are what the parent commit (2c5051e,
// per-update rounding) measured with this same test body.
func TestTLRCompressOnceAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("factorizes n = 2304 four times")
	}
	const side, ts = 48, 256
	geom := geo.RegularGrid(side, side)
	kern := &cov.Nugget{Kernel: cov.NewMatern(1, 0.1, 2.5), Tau2: 0.1}
	sigma := cov.Matrix(geom, kern)
	for _, tc := range []struct {
		tol                  float64
		streamed             bool
		parentRes, parentAvg float64 // ‖LLᵀ−Σ‖_F/‖Σ‖_F and mean off-diagonal rank at the parent
	}{
		{1e-4, false, 8.43e-05, 17.61}, // compress-once: 6.45e-05, 18.08
		{1e-4, true, 2.18e-04, 17.56},  // 2.14e-04, 18.08
		{1e-6, false, 9.51e-07, 33.17}, // 6.94e-07, 34.64
		{1e-6, true, 1.52e-06, 33.00},  // 1.38e-06, 34.47
	} {
		cfg := engine.Config{Tol: tc.tol, MaxRank: ts / 2}
		rt := taskrt.New(2)
		var g *engine.Grid
		var err error
		if tc.streamed {
			g = engine.NewGrid(geom.Len(), ts)
			err = engine.PotrfStream(rt, g, cfg, engine.TLREntryAssembler(g, fillOf(geom, kern), tc.tol, cfg.MaxRank, false))
		} else {
			g = engine.AssembleTLR(rt, tile.FromDense(sigma.Clone(), ts), tc.tol, cfg.MaxRank)
			err = engine.Potrf(rt, g, cfg)
		}
		rt.Shutdown()
		if err != nil {
			t.Fatalf("tol=%g streamed=%v: %v", tc.tol, tc.streamed, err)
		}
		sum, tiles := 0, 0
		for _, row := range g.Ranks() {
			for _, r := range row {
				sum += r
				tiles++
			}
		}
		avg := float64(sum) / float64(tiles)
		rel := relResidual(g, sigma)
		t.Logf("tol=%g streamed=%v: ‖LLᵀ−Σ‖/‖Σ‖ = %.3g (parent %.3g), mean rank %.2f (parent %.2f)",
			tc.tol, tc.streamed, rel, tc.parentRes, avg, tc.parentAvg)
		if rel > 10*tc.tol || rel > tc.parentRes {
			t.Errorf("tol=%g streamed=%v: ‖LLᵀ−Σ‖/‖Σ‖ = %.3g, want ≤ %g and ≤ the parent's %.3g",
				tc.tol, tc.streamed, rel, 10*tc.tol, tc.parentRes)
		}
		if avg > 1.15*tc.parentAvg {
			t.Errorf("tol=%g streamed=%v: mean off-diagonal rank %.2f, parent %.2f: more than 15 %% up",
				tc.tol, tc.streamed, avg, tc.parentAvg)
		}
	}
}
