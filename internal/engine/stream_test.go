package engine_test

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/cov"
	"repro/internal/engine"
	"repro/internal/geo"
	"repro/internal/linalg"
	"repro/internal/taskrt"
	"repro/internal/tile"
)

// densifyFactor reassembles the grid's lower-triangular factor densely,
// whatever each tile's representation.
func densifyFactor(g *engine.Grid) *linalg.Matrix {
	l := linalg.NewMatrix(g.N, g.N)
	for i := 0; i < g.NT; i++ {
		for j := 0; j <= i; j++ {
			var d *linalg.Matrix
			switch t := g.At(i, j).(type) {
			case *tile.DenseF64:
				d = t.D
			case *tile.DenseF32:
				d = t.D.ToDouble()
			case *tile.LowRank:
				d = t.Dense()
			}
			l.View(i*g.TS, j*g.TS, d.Rows, d.Cols).CopyFrom(d)
		}
	}
	return l
}

// relResidual is ‖L·Lᵀ − Σ‖_F / ‖Σ‖_F for the factor held by g.
func relResidual(g *engine.Grid, sigma *linalg.Matrix) float64 {
	l, res := densifyFactor(g), sigma.Clone()
	linalg.Gemm(false, true, 1, l, l, -1, res)
	return res.FrobNorm() / sigma.FrobNorm()
}

// materialize assembles every tile of the grid up front by calling the
// assembler serially — diagonals first, matching the DiagFirst ordering the
// streaming graph enforces, so norm-dependent policies make the same choices.
func materialize(g *engine.Grid, asm *engine.Assembler) {
	for i := 0; i < g.NT; i++ {
		g.Set(i, i, asm.Tile(i, i))
	}
	for i := 0; i < g.NT; i++ {
		for j := 0; j < i; j++ {
			g.Set(i, j, asm.Tile(i, j))
		}
	}
}

// streamFactor runs PotrfStream on a fresh grid with a fresh assembler.
func streamFactor(t *testing.T, n, ts int, cfg engine.Config, mk func(*engine.Grid) *engine.Assembler) *engine.Grid {
	t.Helper()
	g := engine.NewGrid(n, ts)
	rt := taskrt.New(4)
	defer rt.Shutdown()
	if err := engine.PotrfStream(rt, g, cfg, mk(g)); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestPotrfStreamingMatchesMaterialized is the streaming-assembly property
// test: for each assembler family (dense, TLR/ACA, adaptive policy) the
// factor produced by PotrfStream — tiles built by tasks fused into the
// factorization graph — must match the factor of the same grid assembled up
// front and run through the non-streaming Potrf. Assembly is deterministic
// (ACA and the compression sketches are seeded per shape), so both paths see
// identical tile representations and the engine performs the identical
// per-tile kernel sequence; the comparison holds to
// kernel roundoff, with and without windowed submission, including a ragged
// last tile.
func TestPotrfStreamingMatchesMaterialized(t *testing.T) {
	geom := geo.RegularGrid(12, 12) // n = 144
	kern := &cov.Exponential{Sigma2: 1, Range: 0.15}
	entry := entryOf(geom, kern)
	const tol = 1e-4
	n := geom.Len()

	builders := []struct {
		name string
		mk   func(*engine.Grid) *engine.Assembler
	}{
		{"dense", func(g *engine.Grid) *engine.Assembler {
			return engine.DenseEntryAssembler(g, entry)
		}},
		{"tlr", func(g *engine.Grid) *engine.Assembler {
			return engine.TLREntryAssembler(g, entry, tol, 0, false)
		}},
		{"adaptive", func(g *engine.Grid) *engine.Assembler {
			p := engine.Policy{Band: 1, Tol: tol, RankFrac: 0.5, F32Norm: 0.5}
			return p.EntryAssembler(g, entry, false)
		}},
	}
	for _, b := range builders {
		for _, ts := range []int{24, 20} { // ts=20 leaves a ragged 4-row last tile
			ref := engine.NewGrid(n, ts)
			materialize(ref, b.mk(ref))
			rt := taskrt.New(4)
			err := engine.Potrf(rt, ref, engine.Config{Tol: tol})
			rt.Shutdown()
			if err != nil {
				t.Fatalf("%s ts=%d: materialized Potrf: %v", b.name, ts, err)
			}
			want := densifyFactor(ref)

			for _, window := range []int{0, 1} {
				got := streamFactor(t, n, ts, engine.Config{Tol: tol, Window: window}, b.mk)
				if d := relMaxDiff(densifyFactor(got), want); d > engineRefTol {
					t.Errorf("%s ts=%d window=%d: streaming factor differs from materialized by %v",
						b.name, ts, window, d)
				}
			}
		}
	}
}

// sameTile reports whether two tiles hold the same representation with the
// same bits.
func sameTile(a, b tile.Tile) bool {
	same := func(x, y *linalg.Matrix) bool {
		if x.Rows != y.Rows || x.Cols != y.Cols {
			return false
		}
		for j := 0; j < x.Cols; j++ {
			for i, v := range x.Col(j) {
				if math.Float64bits(v) != math.Float64bits(y.Col(j)[i]) {
					return false
				}
			}
		}
		return true
	}
	switch a := a.(type) {
	case *tile.DenseF64:
		b, ok := b.(*tile.DenseF64)
		return ok && same(a.D, b.D)
	case *tile.DenseF32:
		b, ok := b.(*tile.DenseF32)
		return ok && same(a.D.ToDouble(), b.D.ToDouble())
	case *tile.LowRank:
		b, ok := b.(*tile.LowRank)
		return ok && a.Rank() == b.Rank() && (a.Rank() == 0 || same(a.U, b.U) && same(a.V, b.V))
	}
	return false
}

// TestInMemoryStreamMatchesMaterializedBits: an explicit Σ factored through
// the streaming graph — every tile gathered from memory and compressed in
// hand by its own task inside PotrfStream — is, tile for tile, the factor of
// the same layout materialized up front (Assemble* → Potrf): kind, rank and
// the bits of every stored entry, at one and two workers, on ragged grids. Σ
// is the Matérn-5/2-plus-nugget field of the root package's pinned-bits
// problem with a third of its locations swapped at random, so tiles are not
// smooth in their indices and the adaptive policy uses all three
// representations.
func TestInMemoryStreamMatchesMaterializedBits(t *testing.T) {
	kern := &cov.Nugget{Kernel: cov.NewMatern(1, 0.2, 2.5), Tau2: 0.05}
	const tol = 1e-4
	var seen engine.Mix
	for _, tc := range []struct{ nx, ny, ts int }{{9, 5, 8}, {12, 12, 24}} {
		geom := geo.RegularGrid(tc.nx, tc.ny)
		rng := rand.New(rand.NewSource(5))
		for s := 0; s < geom.Len()/6; s++ {
			i, j := rng.Intn(geom.Len()), rng.Intn(geom.Len())
			geom.Pts[i], geom.Pts[j] = geom.Pts[j], geom.Pts[i]
		}
		sigma := cov.Matrix(geom, kern)
		fill := func(dst []float64, row0, j int) { copy(dst, sigma.Col(j)[row0:]) }
		// Ranks uncapped: a tile of swapped locations is near full rank, and
		// a TLR factor capped at ts/2 is not positive definite.
		n, maxRank := geom.Len(), 0
		policy := engine.Policy{Tol: tol, MaxRank: maxRank, RankFrac: 0.5, F32Norm: 0.5}
		cfg := engine.Config{Tol: tol, MaxRank: maxRank}
		for name, layout := range map[string]struct {
			materialized func(sub taskrt.Submitter, src *tile.Matrix) *engine.Grid
			streamed     func(g *engine.Grid) *engine.Assembler
		}{
			"dense": {
				func(_ taskrt.Submitter, src *tile.Matrix) *engine.Grid { return engine.AssembleDense(src) },
				func(g *engine.Grid) *engine.Assembler { return engine.DenseEntryAssembler(g, fill) },
			},
			"tlr": {
				func(sub taskrt.Submitter, src *tile.Matrix) *engine.Grid {
					return engine.AssembleTLR(sub, src, tol, maxRank)
				},
				func(g *engine.Grid) *engine.Assembler { return engine.TLREntryAssembler(g, fill, tol, maxRank, true) },
			},
			"adaptive": {
				func(sub taskrt.Submitter, src *tile.Matrix) *engine.Grid {
					return engine.AssembleAdaptive(sub, src, policy)
				},
				func(g *engine.Grid) *engine.Assembler { return policy.EntryAssembler(g, fill, true) },
			},
		} {
			for _, workers := range []int{1, 2} {
				rt := taskrt.New(workers)
				want := layout.materialized(rt.NewGroup(), tile.FromDense(sigma, tc.ts))
				err := engine.Potrf(rt.NewGroup(), want, cfg)
				got := engine.NewGrid(n, tc.ts)
				if err == nil {
					err = engine.PotrfStream(rt.NewGroup(), got, cfg, layout.streamed(got))
				}
				rt.Shutdown()
				if err != nil {
					t.Fatalf("%s n=%d workers=%d: %v", name, n, workers, err)
				}
				for i := 0; i < want.NT; i++ {
					for j := 0; j <= i; j++ {
						if !sameTile(got.At(i, j), want.At(i, j)) {
							t.Fatalf("%s n=%d workers=%d: streamed tile (%d,%d) (%s) is not the materialized one (%s)",
								name, n, workers, i, j, got.At(i, j).Kind(), want.At(i, j).Kind())
						}
					}
				}
				if m := got.Mix(); name == "adaptive" {
					seen.Dense32 += m.Dense32
					seen.LowRank += m.LowRank
				}
			}
		}
	}
	if seen.Dense32 == 0 || seen.LowRank == 0 {
		t.Errorf("adaptive grids held %d float32 and %d low-rank tiles: not every representation was compared", seen.Dense32, seen.LowRank)
	}
}

// TestRunAssemblyMatchesPerEntry: every streaming assembler driven by runs
// (cov.Fill, one loop per tile column or ACA cross) builds, tile for tile and
// bit for bit, the grid it builds when every element comes from its own
// Kernel.Cov call — for a nugget over a kernel on Fill's scalar arm, a nugget
// over one evaluated in closed form and a bare general-ν Matérn, with and
// without a ragged last tile.
func TestRunAssemblyMatchesPerEntry(t *testing.T) {
	geom := geo.RegularGrid(12, 12) // n = 144
	geom.Pts[77] = geom.Pts[30]     // a zero distance off the diagonal
	const tol = 1e-4
	policy := engine.Policy{Band: 1, Tol: tol, RankFrac: 0.5, F32Norm: 0.5}
	builders := map[string]func(*engine.Grid, engine.RunFill) *engine.Assembler{
		"dense": engine.DenseEntryAssembler,
		"tlr": func(g *engine.Grid, fill engine.RunFill) *engine.Assembler {
			return engine.TLREntryAssembler(g, fill, tol, 0, false)
		},
		"adaptive": func(g *engine.Grid, fill engine.RunFill) *engine.Assembler {
			return policy.EntryAssembler(g, fill, false)
		},
	}
	kernels := map[string]cov.Kernel{
		"exponential+nugget": &cov.Nugget{Kernel: &cov.Exponential{Sigma2: 1, Range: 0.15}, Tau2: 0.05},
		"matern2.5+nugget":   &cov.Nugget{Kernel: cov.NewMatern(1, 0.2, 2.5), Tau2: 0.05},
		"matern1.3":          cov.NewMatern(1.2, 0.1, 1.3),
	}
	compare := func(name string, got, want *engine.Grid) {
		t.Helper()
		for i := 0; i < want.NT; i++ {
			for j := 0; j <= i; j++ {
				if !sameTile(got.At(i, j), want.At(i, j)) {
					t.Fatalf("%s: tile (%d,%d) built from runs (%s) differs from per-entry assembly (%s)",
						name, i, j, got.At(i, j).Kind(), want.At(i, j).Kind())
				}
			}
		}
	}
	for kn, k := range kernels {
		for _, ts := range []int{24, 20} { // ts=20 leaves a ragged 4-row last tile
			for bn, mk := range builders {
				runs, entries := engine.NewGrid(geom.Len(), ts), engine.NewGrid(geom.Len(), ts)
				materialize(runs, mk(runs, fillOf(geom, k)))
				materialize(entries, mk(entries, entryOf(geom, k)))
				compare(kn+"/"+bn, runs, entries)
			}
		}
	}
}

// TestTLRStreamingResidualCheckOnMarginalOrder is the case ACA's stop rule
// cannot see: a smooth kernel whose locations arrive ordered by a field value
// rather than by position (the marginal ordering of confidence-region
// detection — here the level sets of sin 2πx · sin 2πy, four disjoint loops
// per level), so a tile couples several far-apart clusters, is not smooth in
// its indices, and partial pivoting declares convergence with whole clusters
// unread. Without the residual check the streamed factorization dies on a
// diagonal pivot of −6; with it, the tiles whose sample disagrees take the
// densify-and-compress fallback and the factor reconstructs Σ to the
// tolerance's order.
func TestTLRStreamingResidualCheckOnMarginalOrder(t *testing.T) {
	const tol, ts = 1e-4, 90
	geom := geo.RegularGrid(30, 30) // n = 900
	level := func(p geo.Point) float64 { return math.Sin(2*math.Pi*p.X) * math.Sin(2*math.Pi*p.Y) }
	sort.SliceStable(geom.Pts, func(i, j int) bool { return level(geom.Pts[i]) > level(geom.Pts[j]) })
	k := &cov.Nugget{Kernel: cov.NewMatern(1, 0.1, 2.5), Tau2: 0.1}
	g := streamFactor(t, geom.Len(), ts, engine.Config{Tol: tol}, func(g *engine.Grid) *engine.Assembler {
		return engine.TLREntryAssembler(g, fillOf(geom, k), tol, 0, false)
	})
	sigma := cov.Matrix(geom, k)
	if rel := relResidual(g, sigma); rel > 10*tol {
		t.Errorf("‖LLᵀ − Σ‖/‖Σ‖ = %.3g on a marginal-ordered matrix, want ≤ %g", rel, 10*tol)
	}
}

// TestGridSizeGuard pins the tile-count overflow guard: oversized grids are
// refused with the typed *SizeError — never a panic or an allocation attempt
// — by the constructor and by both factorization entry points.
func TestGridSizeGuard(t *testing.T) {
	if _, err := engine.NewGridChecked(8, 0); err == nil {
		t.Error("want error for tile size 0")
	}
	if _, err := engine.NewGridChecked(-1, 4); err == nil {
		t.Error("want error for negative dimension")
	}
	var se *engine.SizeError
	_, err := engine.NewGridChecked(math.MaxInt/2, 1)
	if !errors.As(err, &se) {
		t.Fatalf("want *SizeError, got %v", err)
	}
	if se.TS != 1 || se.NT != math.MaxInt/2 {
		t.Errorf("SizeError fields n=%d ts=%d nt=%d", se.N, se.TS, se.NT)
	}
	if se.Error() == "" {
		t.Error("SizeError must describe itself")
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewGrid must panic where NewGridChecked errors")
			}
		}()
		engine.NewGrid(math.MaxInt/2, 1)
	}()

	rt := taskrt.New(1)
	defer rt.Shutdown()
	big := engine.NewGridOversized()
	if err := engine.Potrf(rt, big, engine.Config{}); !errors.As(err, &se) {
		t.Errorf("Potrf on oversized grid: want *SizeError, got %v", err)
	}
	asm := &engine.Assembler{Tile: func(i, j int) tile.Tile { return nil }}
	if err := engine.PotrfStream(rt, big, engine.Config{}, asm); !errors.As(err, &se) {
		t.Errorf("PotrfStream on oversized grid: want *SizeError, got %v", err)
	}
	if err := engine.PotrfStream(rt, engine.NewGrid(8, 4), engine.Config{}, nil); err == nil {
		t.Error("PotrfStream must reject a nil assembler")
	}
}

// TestDeferredAndDenseTilesInOneGrid: the two ways a trailing tile takes its
// Schur updates meet in one factorization. Under the adaptive streaming policy
// with a tight RankFrac, far tiles pass the probe and are assembled low rank —
// their updates wait for finishTile — while nearer off-band ones are assembled
// dense and updated panel by panel. Every tile ends in the representation it
// was assembled in; a dense tile mistaken for a deferred one would have its
// updates applied twice (the pivot goes to −100).
func TestDeferredAndDenseTilesInOneGrid(t *testing.T) {
	geom := geo.RegularGrid(16, 16) // n = 256
	kern := &cov.Nugget{Kernel: cov.NewMatern(1, 0.3, 2.5), Tau2: 0.05}
	const tol, ts = 1e-4, 32
	n := geom.Len()
	policy := engine.Policy{Band: 1, Tol: tol, RankFrac: 0.35, F32Norm: 1e-12}
	mk := func(g *engine.Grid) *engine.Assembler { return policy.EntryAssembler(g, fillOf(geom, kern), false) }

	asIs := engine.NewGrid(n, ts)
	materialize(asIs, mk(asIs))
	g := streamFactor(t, n, ts, engine.Config{Tol: tol}, mk)

	var deferred, dense int
	for i := 0; i < g.NT; i++ {
		for j := 0; j <= i; j++ {
			was := asIs.At(i, j).Kind()
			if got := g.At(i, j).Kind(); got != was {
				t.Fatalf("tile (%d,%d) was assembled %s and ended %s", i, j, was, got)
			}
			switch {
			case was == tile.KindLowRank && j > 0: // column 0 receives no update
				deferred++
			case was == tile.KindDenseF64 && i-j > policy.Band:
				dense++
			}
		}
	}
	if deferred == 0 || dense == 0 {
		t.Fatalf("%d updated tiles assembled low rank, %d off-band tiles dense: want both kinds", deferred, dense)
	}

	if rel := relResidual(g, cov.Matrix(geom, kern)); rel > 10*tol {
		t.Errorf("‖LLᵀ − Σ‖/‖Σ‖ = %.3g, want ≤ %g", rel, 10*tol)
	}
}
