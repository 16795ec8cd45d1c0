package engine_test

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cov"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/excursion"
	"repro/internal/geo"
	"repro/internal/linalg"
	"repro/internal/taskrt"
	"repro/internal/tile"
)

func covGrid(side int, rng float64) *linalg.Matrix {
	g := geo.RegularGrid(side, side)
	return cov.Matrix(g, &cov.Exponential{Sigma2: 1, Range: rng})
}

// randSPD returns GᵀG + n·I for a Gaussian n×n G.
func randSPD(n int, rng *rand.Rand) *linalg.Matrix {
	gm := linalg.NewMatrix(n, n)
	for j := 0; j < n; j++ {
		col := gm.Col(j)
		for i := range col {
			col[i] = rng.NormFloat64()
		}
	}
	sigma := linalg.NewMatrix(n, n)
	linalg.Gemm(true, false, 1, gm, gm, 0, sigma)
	for i := 0; i < n; i++ {
		sigma.Add(i, i, float64(n))
	}
	return sigma
}

// refDensePotrf is the historical sequential dense tile Cholesky, in place
// on the ts×ts blocks of a: the per-tile kernel sequence of the right-looking
// algorithm, one kernel at a time.
func refDensePotrf(a *linalg.Matrix, ts int) error {
	nt := (a.Rows + ts - 1) / ts
	blk := func(i, j int) *linalg.Matrix {
		return a.View(i*ts, j*ts, min(ts, a.Rows-i*ts), min(ts, a.Cols-j*ts))
	}
	for k := 0; k < nt; k++ {
		if err := linalg.PotrfUnblocked(blk(k, k)); err != nil {
			return err
		}
		for i := k + 1; i < nt; i++ {
			linalg.TrsmLower(linalg.Right, true, 1, blk(k, k), blk(i, k))
		}
		for i := k + 1; i < nt; i++ {
			linalg.Syrk(false, -1, blk(i, k), 1, blk(i, i))
			for j := k + 1; j < i; j++ {
				linalg.Gemm(false, true, -1, blk(i, k), blk(j, k), 1, blk(i, j))
			}
		}
	}
	for k := 0; k < nt; k++ {
		blk(k, k).LowerFromFull()
		for j := k + 1; j < nt; j++ {
			blk(k, j).Zero()
		}
	}
	return nil
}

// refTLRPotrf is the sequential TLR Cholesky on a TLR-layout grid, in place:
// diagonal tiles updated panel by panel, an off-diagonal tile left-looking —
// just before its own panel solve it receives its Schur updates in panel
// order; a low-rank one is densified first and compressed once afterwards,
// the sketch started from the rank it came with, within its byte break-even
// or else kept dense.
func refTLRPotrf(g *engine.Grid, tol float64) error {
	nt := g.NT
	asDense := func(t tile.Tile) *linalg.Matrix {
		if lr, ok := t.(*tile.LowRank); ok {
			return lr.Dense()
		}
		return t.(*tile.DenseF64).D
	}
	// product returns U_a·(V_aᵀ·V_b) so that A·Bᵀ = product·U_bᵀ.
	product := func(ta, tb *tile.LowRank) *linalg.Matrix {
		s := linalg.NewMatrix(ta.Rank(), tb.Rank())
		linalg.Gemm(true, false, 1, ta.V, tb.V, 0, s)
		us := linalg.NewMatrix(ta.M, tb.Rank())
		linalg.Gemm(false, false, 1, ta.U, s, 0, us)
		return us
	}
	for k := 0; k < nt; k++ {
		if err := linalg.PotrfUnblocked(g.Diag(k)); err != nil {
			return err
		}
		for i := k + 1; i < nt; i++ {
			if k > 0 {
				c := g.At(i, k)
				acc := asDense(c)
				for p := 0; p < k; p++ {
					ta, aLR := g.At(i, p).(*tile.LowRank)
					tb, bLR := g.At(k, p).(*tile.LowRank)
					switch {
					case aLR && bLR:
						if ta.Rank() > 0 && tb.Rank() > 0 {
							linalg.Gemm(false, true, -1, product(ta, tb), tb.U, 1, acc)
						}
					default:
						linalg.Gemm(false, true, -1, asDense(g.At(i, p)), asDense(g.At(k, p)), 1, acc)
					}
				}
				if lr, ok := c.(*tile.LowRank); ok {
					var t tile.Tile = &tile.DenseF64{D: acc}
					if nl, met := tile.CompressNear(acc, tol, lr.M*lr.N/(lr.M+lr.N), lr.Rank()); met {
						t = nl
					}
					g.Set(i, k, t)
				}
			}
			switch t := g.At(i, k).(type) {
			case *tile.LowRank:
				if t.Rank() > 0 {
					linalg.TrsmLower(linalg.Left, false, 1, g.Diag(k), t.V)
					linalg.Gemm(false, true, -1, product(t, t), t.U, 1, g.Diag(i))
				}
			case *tile.DenseF64:
				linalg.TrsmLower(linalg.Right, true, 1, g.Diag(k), t.D)
				linalg.Syrk(false, -1, t.D, 1, g.Diag(i))
			}
		}
	}
	for k := 0; k < nt; k++ {
		g.Diag(k).LowerFromFull()
	}
	return nil
}

// Engine-vs-sequential-reference tolerance. The pre-PR3 versions of these
// regression tests pinned the engine bit-identical to the sequential
// references. With the packed register-blocked kernels that contract is
// gone by design: the blocked GEMM/SYRK/TRSM change summation order, use
// fused multiply-adds, and dispatch between packed and unpacked loops by
// problem volume, so "identical bits" would only hold while the engine and
// the reference happened to route every operand through the same dispatch
// path — an implementation accident, not a guarantee. What the engine DOES
// guarantee is that its task graph performs the same per-tile kernel
// sequence as the sequential algorithm; floating-point reassociation across
// kernels is bounded by ~k·ε per accumulated entry, so a tight relative
// tolerance (well below any compression tolerance in play) pins the
// semantics without freezing the kernel implementation.
const engineRefTol = 1e-11

// relMaxDiff is max|a−b| scaled by ‖b‖_F (1 floor).
func relMaxDiff(a, b *linalg.Matrix) float64 {
	return a.MaxAbsDiff(b) / math.Max(b.FrobNorm(), 1)
}

// TestEngineDenseMatchesReference checks the engine-backed dense layout
// reproduces the sequential tiled dense Cholesky to kernel roundoff.
func TestEngineDenseMatchesReference(t *testing.T) {
	sigma := covGrid(9, 0.2) // n=81
	for _, ts := range []int{7, 16, 81} {
		want := sigma.Clone()
		if err := refDensePotrf(want, ts); err != nil {
			t.Fatal(err)
		}
		got, err := potrfOn(sigma.Rows, ts, 4, denseLayout(sigma))
		if err != nil {
			t.Fatal(err)
		}
		if d := relMaxDiff(densifyFactor(got), want); d > engineRefTol {
			t.Errorf("ts=%d: engine dense factor differs from reference by %v", ts, d)
		}
	}
}

// TestEngineTLRMatchesReference is the cross-implementation regression test:
// the engine-backed TLR layout must match the sequential TLR factorization
// (same compression decisions, same updates in the same order, the same one
// recompression per tile) to kernel roundoff. The compressor is randomized but deterministic (fixed sketch per
// tile shape), so both builds see identical inputs.
func TestEngineTLRMatchesReference(t *testing.T) {
	sigma := covGrid(9, 0.15)
	for _, tol := range []float64{1e-4, 1e-8} {
		want := assembled(sigma.Rows, 12, tlrLayout(sigma, tol))
		if err := refTLRPotrf(want, tol); err != nil {
			t.Fatal(err)
		}
		got, err := potrfOn(sigma.Rows, 12, 4, tlrLayout(sigma, tol))
		if err != nil {
			t.Fatal(err)
		}
		if d := relMaxDiff(densifyFactor(got), densifyFactor(want)); d > engineRefTol {
			t.Errorf("tol=%g: engine TLR factor differs from reference by %v", tol, d)
		}
	}
}

// TestEngineErrorPropagation checks non-SPD failures surface through the
// submitter's SubmitErr/Err scope, on both the runtime and a group, and that
// the scope resets so the runtime can be reused.
func TestEngineErrorPropagation(t *testing.T) {
	bad := linalg.Eye(8)
	bad.Set(5, 5, -2)
	good := covGrid(3, 0.2)

	factor := func(sub taskrt.Submitter, sigma *linalg.Matrix, ts int) error {
		g := engine.NewGrid(sigma.Rows, ts)
		return engine.PotrfStream(sub, g, denseLayout(sigma)(g))
	}

	rt := taskrt.New(2)
	defer rt.Shutdown()
	if err := factor(rt, bad, 3); !errors.Is(err, linalg.ErrNotPositiveDefinite) {
		t.Errorf("runtime scope: want ErrNotPositiveDefinite, got %v", err)
	}
	// The error must not leak into the next factorization on the same scope.
	if err := factor(rt, good, 4); err != nil {
		t.Errorf("runtime reuse after failure: %v", err)
	}
	if err := factor(rt.NewGroup(), bad, 3); !errors.Is(err, linalg.ErrNotPositiveDefinite) {
		t.Errorf("group scope: want ErrNotPositiveDefinite, got %v", err)
	}
}

// TestAdaptiveAssemblyMixesAndFactorizes checks the adaptive policy actually
// mixes representations on a smooth kernel and that the resulting factor
// reconstructs the matrix to the policy accuracy.
func TestAdaptiveAssemblyMixesAndFactorizes(t *testing.T) {
	// A smooth Matérn ν=2.5 field: far tiles compress to ~rank 8–13 of 24 at
	// 1e-4, straddling the RankFrac threshold, so the policy genuinely mixes.
	// The nugget keeps Σ well-conditioned so the lossy tile representations
	// cannot push it indefinite; it leaves off-diagonal ranks untouched.
	g12 := geo.RegularGrid(12, 12)
	sigma := cov.Matrix(g12, &cov.Nugget{Kernel: cov.NewMatern(1, 0.2, 2.5), Tau2: 0.05}) // n=144
	g := streamFactor(t, 144, 24, policyLayout(sigma, engine.Policy{
		Band: 1, Tol: 1e-4, RankFrac: 0.5,
	}))
	// A tile keeps the representation it was assembled in.
	mix := g.Mix()
	if mix.LowRank == 0 {
		t.Errorf("adaptive policy chose no low-rank tiles: %+v", mix)
	}
	if mix.Dense64 < g.NT {
		t.Errorf("diagonal tiles must stay dense f64: %+v", mix)
	}
	// Reassemble L densely and check L·Lᵀ ≈ Σ.
	l := densifyFactor(g)
	rec := linalg.NewMatrix(144, 144)
	linalg.Gemm(false, true, 1, l, l, 0, rec)
	rec.SymmetrizeFromLower()
	full := sigma.Clone()
	full.SymmetrizeFromLower()
	if d := rec.MaxAbsDiff(full); d > 5e-3 {
		t.Errorf("adaptive LLᵀ residual %v", d)
	}
}

// TestAdaptivePolicyRejectsIncompressibleTiles pins the acceptance rule: the
// rank limit (here TileSize/2, the TLR preset's) must not let truncated
// full-rank tiles masquerade as low rank — the policy must judge the true
// numerical rank at Tol.
func TestAdaptivePolicyRejectsIncompressibleTiles(t *testing.T) {
	sigma := randSPD(128, rand.New(rand.NewSource(11)))
	// Off-band tiles of a random SPD matrix are numerically full rank.
	g := assembled(128, 32, policyLayout(sigma, engine.Policy{Band: 1, Tol: 1e-6, RankFrac: 0.5}))
	if mix := g.Mix(); mix.LowRank != 0 {
		t.Errorf("full-rank tiles accepted as low rank: %+v", mix)
	}
}

// posteriorCorrelation is a smooth kernel's covariance at locations in
// SCATTERED order: the marginal-ordered posterior correlation of a
// confidence-region detection on a side×side field, a quarter of it observed.
func posteriorCorrelation(t *testing.T, side int) *linalg.Matrix {
	t.Helper()
	n := side * side
	ds, err := datagen.NewSyntheticDataset(side, n/4, "medium", rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	sd, err := excursion.StdDevs(ds.PostCov.Col, n)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := excursion.NewPlan(ds.PostMu, sd, 0)
	if err != nil {
		t.Fatal(err)
	}
	return plan.Correlation(ds.PostCov.Col, sd)
}

// TestAssembleAdaptiveMeasuresMaterializedProbes: on posteriorCorrelation
// partially pivoted ACA declares convergence at tol 1e-4 with a residual of
// 0.3 on tile (2,0) (and 6e-4 on (8,0)), beside tiles it compresses soundly.
// The tile is in hand, so the adaptive layout of an in-memory Σ compresses it
// with a measured tail bound instead, and every low-rank tile it keeps meets
// the tolerance it was asked for. (At the byte break-even: the default limit
// keeps none, see TestDefaultRankLimitBothSides.)
func TestAssembleAdaptiveMeasuresMaterializedProbes(t *testing.T) {
	const ts, tol = 100, 1e-4
	corr := posteriorCorrelation(t, 30)
	g := assembled(corr.Rows, ts, policyLayout(corr, engine.Policy{Band: 1, Tol: tol, RankFrac: 0.5}))
	lowRank := 0
	for i := 0; i < g.NT; i++ {
		for j := 0; j < i; j++ {
			lr, ok := g.At(i, j).(*tile.LowRank)
			if !ok {
				continue
			}
			lowRank++
			blk, res := blockOf(corr, g, i, j), lr.Dense()
			for c := 0; c < blk.Cols; c++ {
				linalg.Axpy(-1, blk.Col(c), res.Col(c))
			}
			if rel := res.FrobNorm() / blk.FrobNorm(); rel > tol {
				t.Errorf("tile (%d,%d): rank %d low-rank form is %.2e from the tile, tolerance %g", i, j, lr.Rank(), rel, tol)
			}
		}
	}
	if lowRank == 0 {
		t.Fatal("no low-rank tile: vacuous")
	}
}

// TestDefaultRankLimitBothSides: the default rank limit, a quarter of the tile
// side, switches the low-rank form off where it cannot repay its compression
// and leaves it on where it does. On posteriorCorrelation — crd_2k's matrix at
// toy size, off-band ranks past a third of the tile — every probe is rejected
// and the grid is the dense layout. Only column 0's NT − 2
// off-band tiles are probed: once all of them reject, the policy skips the
// probes of every later column. On the benchmark's smooth Matérn-5/2 grid at
// ts = 256 and tol 1e-6 every off-band tile is still low rank, in memory and
// probed by ACA from the kernel.
func TestDefaultRankLimitBothSides(t *testing.T) {
	corr := posteriorCorrelation(t, 30)
	g := assembled(corr.Rows, 100, policyLayout(corr, adaptive(1e-4)))
	offBand := (g.NT - 1) * (g.NT - 2) / 2
	want := engine.ProbeStats{Probed: g.NT - 2, Rejected: g.NT - 2, Skipped: offBand - (g.NT - 2)}
	if ps := g.ProbeStats(); g.Mix().LowRank != 0 || ps.Probed != want.Probed || ps.Rejected != want.Rejected || ps.Skipped != want.Skipped {
		t.Errorf("incompressible Σ: mix %+v, probes %+v, want %+v and no low-rank tile", g.Mix(), ps, want)
	}

	geom := geo.RegularGrid(32, 32) // n = 1024: three off-band tiles of 256²
	kern := &cov.Nugget{Kernel: cov.NewMatern(1, 0.1, 2.5), Tau2: 0.1}
	policy := adaptive(1e-6)
	limit := policy.RankLimit(256, 256)
	if limit != 64 {
		t.Errorf("adaptive rank limit of a 256² tile is %d, want 64", limit)
	}
	inMemory := assembled(geom.Len(), 256, policyLayout(cov.Matrix(geom, kern), policy))
	kernel := assembled(geom.Len(), 256, func(g *engine.Grid) *engine.Assembler {
		return policy.EntryAssembler(g, entryOf(geom, kern), false)
	})
	for name, g := range map[string]*engine.Grid{"in memory": inMemory, "kernel": kernel} {
		mix := g.Mix()
		if ps := g.ProbeStats(); mix.LowRank != 3 || ps.Probed != 3 || ps.Rejected != 0 {
			t.Errorf("smooth Σ, %s: mix %+v, probes %+v, want 3 low-rank tiles", name, mix, ps)
		}
		if mix.MaxRank > limit {
			t.Errorf("smooth Σ, %s: max rank %d past the limit %d", name, mix.MaxRank, limit)
		}
	}
}
