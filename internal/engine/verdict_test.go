package engine_test

import (
	"math/rand"
	"testing"

	"repro/internal/cov"
	"repro/internal/engine"
	"repro/internal/geo"
	"repro/internal/taskrt"
	"repro/internal/tile"
)

// Tests of the adaptive policy's column-0 verdict: column 0's off-band tiles
// are probed first, and when every one of them rejects no later off-band tile
// is probed.

// TestVerdictSameAtEveryWorkerCount: on crd_2k's matrix at toy size, where
// column 0 rejects every probe, the factor streamed at one and two workers and
// the tiles assembled up front, serially, and factored at one and two workers
// skip the same probes and hold the same tiles, bit for bit.
func TestVerdictSameAtEveryWorkerCount(t *testing.T) {
	const ts, tol = 50, 1e-4
	corr := posteriorCorrelation(t, 20)
	policy := adaptive(tol)
	mk := policyLayout(corr, policy)
	want, err := potrfOn(corr.Rows, ts, 1, mk)
	if err != nil {
		t.Fatal(err)
	}
	ps, mix := want.ProbeStats(), want.Mix()
	offBand := (want.NT - 1) * (want.NT - 2) / 2
	if ps.Probed != want.NT-2 || ps.Rejected != ps.Probed || ps.Skipped != offBand-ps.Probed || mix.LowRank != 0 {
		t.Fatalf("probes %+v, mix %+v: want column 0's %d probes all rejected, the other %d skipped, no low-rank tile",
			ps, mix, want.NT-2, offBand-(want.NT-2))
	}
	for _, workers := range []int{1, 2} {
		rt := taskrt.New(workers)
		streamed := engine.NewGrid(corr.Rows, ts)
		err := engine.PotrfStream(rt.NewGroup(), streamed, mk(streamed))
		pre := assembled(corr.Rows, ts, mk)
		materialized := engine.NewGrid(corr.Rows, ts)
		if err == nil {
			err = engine.PotrfStream(rt.NewGroup(), materialized, prebuilt(pre, policy)(materialized))
		}
		rt.Shutdown()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if streamed.ProbeStats() != ps || pre.ProbeStats() != ps {
			t.Errorf("workers=%d: probes streamed %+v, assembled %+v, want %+v", workers, streamed.ProbeStats(), pre.ProbeStats(), ps)
		}
		for name, g := range map[string]*engine.Grid{"streamed": streamed, "materialized": materialized} {
			if g.Mix() != mix {
				t.Errorf("%s, workers=%d: mix %+v, want %+v", name, workers, g.Mix(), mix)
			}
			for i := 0; i < g.NT; i++ {
				for j := 0; j <= i; j++ {
					if !sameTile(g.At(i, j), want.At(i, j)) {
						t.Fatalf("%s, workers=%d: tile (%d,%d) differs from the one-worker streamed factor", name, workers, i, j)
					}
				}
			}
		}
	}
}

// TestVerdictOneAcceptedTileSkipsNothing: a random SPD Σ whose column 0 has
// exactly one compressible off-band tile — the farthest, set to a rank-1
// block — probes every off-band tile, streamed or materialized.
func TestVerdictOneAcceptedTileSkipsNothing(t *testing.T) {
	const n, ts, tol = 144, 24, 1e-4
	rng := rand.New(rand.NewSource(8))
	sigma := randSPD(n, rng) // off-diagonal tiles full rank; λ_min ≥ n
	x, y := make([]float64, ts), make([]float64, ts)
	for r := range x {
		x[r], y[r] = rng.NormFloat64(), rng.NormFloat64()
	}
	last := n - ts
	for c := 0; c < ts; c++ {
		for r := 0; r < ts; r++ {
			sigma.Set(last+r, c, x[r]*y[c])
			sigma.Set(c, last+r, x[r]*y[c])
		}
	}
	mk := policyLayout(sigma, adaptive(tol))
	materialized := assembled(n, ts, mk)
	streamed, err := potrfOn(n, ts, 2, mk)
	if err != nil {
		t.Fatal(err)
	}
	nt := materialized.NT
	offBand := (nt - 1) * (nt - 2) / 2
	want := engine.ProbeStats{Probed: offBand, Rejected: offBand - 1}
	for name, g := range map[string]*engine.Grid{"materialized": materialized, "streamed": streamed} {
		ps := g.ProbeStats()
		ps.RejectedEarly = 0
		if ps != want || g.Mix().LowRank != 1 || g.At(nt-1, 0).Kind() != tile.KindLowRank {
			t.Errorf("%s: probes %+v, mix %+v, tile (%d,0) %s: want %+v and that tile low rank",
				name, g.ProbeStats(), g.Mix(), nt-1, g.At(nt-1, 0).Kind(), want)
		}
	}
}

// TestVerdictLeavesLaterCompressibleTileDense documents the verdict's trade:
// the smooth Matérn grid with column 0's locations scattered, so column 0
// rejects every probe while later off-band tiles still compress. Those tiles
// are not probed and stay dense — exactly Σ's tile — by either probe kind.
func TestVerdictLeavesLaterCompressibleTileDense(t *testing.T) {
	const ts, tol = 48, 1e-4
	geom := geo.RegularGrid(24, 24) // n = 576, two grid rows a tile
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < ts; i++ {
		geom.Pts[i] = geo.Point{X: rng.Float64(), Y: rng.Float64()}
	}
	// Column 0's ranks at tol run 15–22, past the limit of 12; tiles from
	// (8,1) on fall to 10–12.
	kern := &cov.Nugget{Kernel: cov.NewMatern(1, 0.1, 2.5), Tau2: 0.05}
	sigma := cov.Matrix(geom, kern)
	policy := adaptive(tol)
	limit := policy.RankLimit(ts, ts)

	inMemory := assembled(geom.Len(), ts, policyLayout(sigma, policy))
	kernel := assembled(geom.Len(), ts, func(g *engine.Grid) *engine.Assembler {
		return policy.EntryAssembler(g, fillOf(geom, kern), false)
	})
	for name, g := range map[string]*engine.Grid{"in memory": inMemory, "kernel": kernel} {
		nt := g.NT
		if ps := g.ProbeStats(); ps.Probed != nt-2 || ps.Rejected != nt-2 || ps.Skipped != (nt-1)*(nt-2)/2-(nt-2) {
			t.Fatalf("%s: probes %+v, want column 0's %d probes, all rejected, and the rest skipped", name, ps, nt-2)
		}
		compressible := 0
		for i := 3; i < nt; i++ {
			for j := 1; j < i-1; j++ {
				blk := blockOf(sigma, g, i, j)
				lr, ok := tile.CompressWithin(blk, tol, limit)
				if !ok {
					continue
				}
				compressible++
				d, dense := g.At(i, j).(*tile.DenseF64)
				if !dense || !sameTile(d, &tile.DenseF64{D: blk}) {
					t.Errorf("%s: tile (%d,%d) compresses to rank %d but is %s, not Σ's tile", name, i, j, lr.Rank(), g.At(i, j).Kind())
				}
			}
		}
		if compressible == 0 {
			t.Fatalf("%s: no later off-band tile compresses: vacuous", name)
		}
	}
}
