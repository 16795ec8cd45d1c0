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

// layout builds an assembler on the grid it is to fill.
type layout func(*engine.Grid) *engine.Assembler

// potrfOn factorizes the layout mk builds on a fresh n×n grid of tile size
// ts, on a fresh runtime of the given worker count.
func potrfOn(n, ts int, workers int, mk layout) (*engine.Grid, error) {
	g := engine.NewGrid(n, ts)
	rt := taskrt.New(workers)
	defer rt.Shutdown()
	return g, engine.PotrfStream(rt, g, mk(g))
}

// streamFactor is potrfOn on four workers; an error fails the test.
func streamFactor(t *testing.T, n, ts int, mk layout) *engine.Grid {
	t.Helper()
	g, err := potrfOn(n, ts, 4, mk)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// assembled builds the tiles the layout mk chooses on a fresh n×n grid of
// tile size ts, without factoring them.
func assembled(n, ts int, mk layout) *engine.Grid {
	g := engine.NewGrid(n, ts)
	engine.Assemble(g, mk(g))
	return g
}

// prebuilt hands the factorization the tiles of an assembled grid as they
// stand: tiles built up front under the policy p, whose band and tolerance
// the hand-built assembler states, factored by the one graph.
func prebuilt(src *engine.Grid, p engine.Policy) layout {
	return func(*engine.Grid) *engine.Assembler { return &engine.Assembler{Tile: src.At, Policy: p} }
}

// sigmaFill reads an in-memory Σ in runs, as a session reads a caller's
// explicit covariance.
func sigmaFill(sigma *linalg.Matrix) engine.RunFill {
	return func(dst []float64, row0, j int) { copy(dst, sigma.Col(j)[row0:]) }
}

// dense, tlr and adaptive are the session's presets of the policy.
var dense = engine.Policy{Band: math.MaxInt}

func tlr(tol float64) engine.Policy { return engine.Policy{Tol: tol, RankFrac: 0.5} }

func adaptive(tol float64) engine.Policy {
	return engine.Policy{Band: 1, Tol: tol, RankFrac: 0.25}
}

// policyLayout is the layout p gives an in-memory Σ, as a session builds it:
// every tile gathered from sigma, and compressed in hand; denseLayout and
// tlrLayout are two of its presets.
func policyLayout(sigma *linalg.Matrix, p engine.Policy) layout {
	return func(g *engine.Grid) *engine.Assembler { return p.EntryAssembler(g, sigmaFill(sigma), true) }
}

func denseLayout(sigma *linalg.Matrix) layout { return policyLayout(sigma, dense) }

func tlrLayout(sigma *linalg.Matrix, tol float64) layout { return policyLayout(sigma, tlr(tol)) }

// blockOf copies sigma's block of tile (i,j) of g.
func blockOf(sigma *linalg.Matrix, g *engine.Grid, i, j int) *linalg.Matrix {
	return sigma.View(i*g.TS, j*g.TS, g.TileRows(i), g.TileRows(j)).Clone()
}

// TestPotrfStreamingMatchesMaterialized is the streaming-assembly property
// test: for each assembler family (dense, TLR/ACA, adaptive policy) the
// factor produced by PotrfStream — tiles built by tasks fused into the
// factorization graph — must match a factorization of tiles materialized up
// front: the sequential tile Cholesky of the dense Σ, the sequential TLR
// Cholesky of the assembled TLR tiles, and the adaptive tiles assembled up
// front and handed to the graph as they stand. Assembly is deterministic (ACA
// and the compression sketches are seeded per shape), so every path sees
// identical tile representations and performs the same per-tile kernel
// sequence; the comparison holds to kernel roundoff, including a ragged last
// tile.
func TestPotrfStreamingMatchesMaterialized(t *testing.T) {
	geom := geo.RegularGrid(12, 12) // n = 144
	kern := &cov.Exponential{Sigma2: 1, Range: 0.15}
	entry := entryOf(geom, kern)
	const tol = 1e-4
	n := geom.Len()
	sigma := linalg.NewMatrix(n, n)
	for j := 0; j < n; j++ {
		entry(sigma.Col(j), 0, j)
	}

	mixed := engine.Policy{Band: 1, Tol: tol, RankFrac: 0.5}
	builders := []struct {
		name string
		mk   layout
		ref  func(ts int, mk layout) (*linalg.Matrix, error)
	}{
		{"dense", func(g *engine.Grid) *engine.Assembler {
			return dense.EntryAssembler(g, entry, false)
		}, func(ts int, _ layout) (*linalg.Matrix, error) {
			l := sigma.Clone()
			err := refDensePotrf(l, ts)
			return l, err
		}},
		{"tlr", func(g *engine.Grid) *engine.Assembler {
			return tlr(tol).EntryAssembler(g, entry, false)
		}, func(ts int, mk layout) (*linalg.Matrix, error) {
			g := assembled(n, ts, mk)
			err := refTLRPotrf(g, tol)
			return densifyFactor(g), err
		}},
		{"adaptive", func(g *engine.Grid) *engine.Assembler {
			return mixed.EntryAssembler(g, entry, false)
		}, func(ts int, mk layout) (*linalg.Matrix, error) {
			g, err := potrfOn(n, ts, 4, prebuilt(assembled(n, ts, mk), mixed))
			return densifyFactor(g), err
		}},
	}
	for _, b := range builders {
		for _, ts := range []int{24, 20} { // ts=20 leaves a ragged 4-row last tile
			want, err := b.ref(ts, b.mk)
			if err != nil {
				t.Fatalf("%s ts=%d: reference factorization: %v", b.name, ts, err)
			}
			got := streamFactor(t, n, ts, b.mk)
			if d := relMaxDiff(densifyFactor(got), want); d > engineRefTol {
				t.Errorf("%s ts=%d: streaming factor differs from materialized by %v", b.name, ts, d)
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
	case *tile.LowRank:
		b, ok := b.(*tile.LowRank)
		return ok && a.Rank() == b.Rank() && (a.Rank() == 0 || same(a.U, b.U) && same(a.V, b.V))
	}
	return false
}

// TestInMemoryStreamMatchesMaterializedBits: an explicit Σ factored through
// the streaming graph — every tile gathered from memory and compressed in
// hand by its own task — is, tile for tile, the factor of the same layout's
// tiles built up front by engine.Assemble and handed to the graph as they
// stand: kind, rank and the bits of every stored entry, at one and two
// workers, on ragged grids. Σ is the Matérn-5/2-plus-nugget field of the root
// package's pinned-bits problem with a third of its locations swapped at
// random, so tiles are not smooth in their indices and the adaptive policy
// holds both representations off its band.
func TestInMemoryStreamMatchesMaterializedBits(t *testing.T) {
	kern := &cov.Nugget{Kernel: cov.NewMatern(1, 0.2, 2.5), Tau2: 0.05}
	const tol = 1e-4
	seen := map[tile.Kind]int{} // the adaptive grids' off-band tiles
	for _, tc := range []struct{ nx, ny, ts int }{{9, 5, 8}, {12, 12, 24}} {
		geom := geo.RegularGrid(tc.nx, tc.ny)
		rng := rand.New(rand.NewSource(5))
		for s := 0; s < geom.Len()/6; s++ {
			i, j := rng.Intn(geom.Len()), rng.Intn(geom.Len())
			geom.Pts[i], geom.Pts[j] = geom.Pts[j], geom.Pts[i]
		}
		sigma := cov.Matrix(geom, kern)
		n := geom.Len()
		for name, policy := range map[string]engine.Policy{
			"dense":    dense,
			"tlr":      tlr(tol),
			"adaptive": {Band: 1, Tol: tol, RankFrac: 0.5},
		} {
			mk := policyLayout(sigma, policy)
			for _, workers := range []int{1, 2} {
				rt := taskrt.New(workers)
				want := engine.NewGrid(n, tc.ts)
				err := engine.PotrfStream(rt.NewGroup(), want, prebuilt(assembled(n, tc.ts, mk), policy)(want))
				got := engine.NewGrid(n, tc.ts)
				if err == nil {
					err = engine.PotrfStream(rt.NewGroup(), got, mk(got))
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
				for i := 0; name == "adaptive" && i < got.NT; i++ {
					for j := 0; j < i-policy.Band; j++ {
						seen[got.At(i, j).Kind()]++
					}
				}
			}
		}
	}
	if seen[tile.KindDenseF64] == 0 || seen[tile.KindLowRank] == 0 {
		t.Errorf("adaptive grids held %v off-band tiles: not every representation was compared", seen)
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
	policy := engine.Policy{Band: 1, Tol: tol, RankFrac: 0.5}
	builders := map[string]func(*engine.Grid, engine.RunFill) *engine.Assembler{
		"dense": func(g *engine.Grid, fill engine.RunFill) *engine.Assembler {
			return dense.EntryAssembler(g, fill, false)
		},
		"tlr": func(g *engine.Grid, fill engine.RunFill) *engine.Assembler {
			return tlr(tol).EntryAssembler(g, fill, false)
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
				runs := assembled(geom.Len(), ts, func(g *engine.Grid) *engine.Assembler { return mk(g, fillOf(geom, k)) })
				entries := assembled(geom.Len(), ts, func(g *engine.Grid) *engine.Assembler { return mk(g, entryOf(geom, k)) })
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
// diagonal pivot of −6; with it, the tiles whose sample disagrees are
// rejected by the probe and stay dense, and the factor reconstructs Σ to the
// tolerance's order.
func TestTLRStreamingResidualCheckOnMarginalOrder(t *testing.T) {
	const tol, ts = 1e-4, 90
	geom := geo.RegularGrid(30, 30) // n = 900
	level := func(p geo.Point) float64 { return math.Sin(2*math.Pi*p.X) * math.Sin(2*math.Pi*p.Y) }
	sort.SliceStable(geom.Pts, func(i, j int) bool { return level(geom.Pts[i]) > level(geom.Pts[j]) })
	k := &cov.Nugget{Kernel: cov.NewMatern(1, 0.1, 2.5), Tau2: 0.1}
	g := streamFactor(t, geom.Len(), ts, func(g *engine.Grid) *engine.Assembler {
		return tlr(tol).EntryAssembler(g, fillOf(geom, k), false)
	})
	sigma := cov.Matrix(geom, k)
	if rel := relResidual(g, sigma); rel > 10*tol {
		t.Errorf("‖LLᵀ − Σ‖/‖Σ‖ = %.3g on a marginal-ordered matrix, want ≤ %g", rel, 10*tol)
	}
}

// TestGridSizeGuard pins the tile-count overflow guard: oversized grids are
// refused with the typed *SizeError — never a panic or an allocation attempt
// — by the constructor and by the factorization.
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
	asm := &engine.Assembler{Tile: func(i, j int) tile.Tile { return nil }}
	if err := engine.PotrfStream(rt, big, asm); !errors.As(err, &se) {
		t.Errorf("PotrfStream on oversized grid: want *SizeError, got %v", err)
	}
	if err := engine.PotrfStream(rt, engine.NewGrid(8, 4), nil); err == nil {
		t.Error("PotrfStream must reject a nil assembler")
	}
}

// TestBandAndOffBandTilesInOneGrid: the two ways a trailing tile takes its
// Schur updates meet in one factorization. Under the policy with a band of 1
// and a tight RankFrac, band tiles are dense and updated panel by panel, while
// every off-band tile past column 0 is built inside one task that applies all
// of its updates: far tiles pass the probe and are accumulated and
// recompressed, nearer ones stay dense and take the same GEMMs there. A tile keeps its assembled kind, except that a low-rank one
// whose tolerance its recompression misses ends dense float64; a tile whose
// updates were applied twice, or not at all, breaks the residual (a pivot
// goes to −100).
func TestBandAndOffBandTilesInOneGrid(t *testing.T) {
	geom := geo.RegularGrid(16, 16) // n = 256
	kern := &cov.Nugget{Kernel: cov.NewMatern(1, 0.3, 2.5), Tau2: 0.05}
	const tol, ts = 1e-4, 32
	n := geom.Len()
	policy := engine.Policy{Band: 1, Tol: tol, RankFrac: 0.35}
	mk := func(g *engine.Grid) *engine.Assembler { return policy.EntryAssembler(g, fillOf(geom, kern), false) }

	asIs := assembled(n, ts, mk)
	g := streamFactor(t, n, ts, mk)

	kinds := map[string]int{}
	for i := 0; i < g.NT; i++ {
		for j := 0; j <= i; j++ {
			was, got := asIs.At(i, j).Kind(), g.At(i, j).Kind()
			if got != was && !(was == tile.KindLowRank && got == tile.KindDenseF64) {
				t.Fatalf("tile (%d,%d) was assembled %s and ended %s", i, j, was, got)
			}
			switch {
			case j == 0 || i-j <= policy.Band:
			case was == tile.KindLowRank:
				kinds["off-band low rank"]++
			default:
				kinds["off-band dense"]++
			}
		}
	}
	if kinds["off-band low rank"] == 0 || kinds["off-band dense"] == 0 {
		t.Fatalf("off-band tiles past column 0: %v, want both kinds", kinds)
	}

	if rel := relResidual(g, cov.Matrix(geom, kern)); rel > 10*tol {
		t.Errorf("‖LLᵀ − Σ‖/‖Σ‖ = %.3g, want ≤ %g", rel, 10*tol)
	}
}
