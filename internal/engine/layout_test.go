package engine_test

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cov"
	"repro/internal/engine"
	"repro/internal/geo"
	"repro/internal/linalg"
	"repro/internal/taskrt"
	"repro/internal/tile"
)

// Tests of the dense, TLR and banded layouts against dense linear algebra
// (linalg.Cholesky, ‖LLᵀ−Σ‖), as opposed to engine_test.go's comparisons
// against sequential tile algorithms.

// lowerResidual is max |(L·Lᵀ − Σ)(i,j)| over the lower triangle.
func lowerResidual(l, sigma *linalg.Matrix) float64 {
	rec := linalg.NewMatrix(sigma.Rows, sigma.Rows)
	linalg.Gemm(false, true, 1, l, l, 0, rec)
	res := 0.0
	for j := 0; j < sigma.Cols; j++ {
		for i := j; i < sigma.Rows; i++ {
			res = math.Max(res, math.Abs(rec.At(i, j)-sigma.At(i, j)))
		}
	}
	return res
}

// symmetrized densifies an unfactored grid and mirrors its lower triangle up.
func symmetrized(g *engine.Grid) *linalg.Matrix {
	d := densifyFactor(g)
	d.SymmetrizeFromLower()
	return d
}

// fillOf evaluates the kernel at the geometry's locations in runs, as the
// session hands it to the streaming assemblers.
func fillOf(g *geo.Geom, k cov.Kernel) engine.RunFill {
	return func(dst []float64, row0, j int) { cov.Fill(k, dst, g.Pts[row0:], g.Pts[j]) }
}

// entryOf is the per-entry definition of the same matrix — k.Cov(0) on the
// diagonal, k.Cov of the distance off it — adapted to the assemblers' run
// interface one element at a time.
func entryOf(g *geo.Geom, k cov.Kernel) engine.RunFill {
	return func(dst []float64, row0, j int) {
		for r := range dst {
			if row0+r == j {
				dst[r] = k.Cov(0)
			} else {
				dst[r] = k.Cov(g.Dist(row0+r, j))
			}
		}
	}
}

func TestDenseLayoutMatchesCholesky(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct{ n, ts int }{
		{8, 4}, {12, 4}, {13, 4}, {20, 7}, {25, 6}, {5, 8}, {32, 8}, {1, 4},
	} {
		a := randSPD(tc.n, rng)
		want, err := linalg.Cholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		g, err := potrfOn(tc.n, tc.ts, 4, denseLayout(a))
		if err != nil {
			t.Fatalf("n=%d ts=%d: %v", tc.n, tc.ts, err)
		}
		l := densifyFactor(g)
		if d := l.MaxAbsDiff(want); d > 1e-9 {
			t.Errorf("n=%d ts=%d: tiled vs dense Cholesky diff %v", tc.n, tc.ts, d)
		}
		if d := lowerResidual(l, a); d > 1e-9 {
			t.Errorf("n=%d ts=%d: LLᵀ reconstruction diff %v", tc.n, tc.ts, d)
		}
	}
}

// TestPotrfTaskCounts: a dense factorization of nt tile columns runs nt
// POTRFs, nt(nt−1)/2 TRSMs and SYRKs and nt(nt−1)(nt−2)/6 GEMMs — the counts
// the cluster simulator and the bench ledger's tasks_total assume — and
// assembles each of its nt(nt+1)/2 tiles in a task of its own. A TLR one runs
// one GEMM task per low-rank tile that receives updates, (nt−1)(nt−2)/2,
// assembles only the diagonal and column 0 in tasks of their own — the other
// tiles are built inside their GEMM task — and runs one verdict task. Both
// hold for a kernel and for a Σ in memory, and no other task kind runs.
func TestPotrfTaskCounts(t *testing.T) {
	geom := geo.RegularGrid(12, 12) // n = 144
	kern := &cov.Exponential{Sigma2: 1, Range: 0.15}
	const tol = 1e-4
	for _, nt := range []int{4, 6} {
		ts := geom.Len() / nt
		for name, tc := range map[string]struct {
			n, ts                   int
			mk                      layout
			gemm, assemble, verdict int
		}{
			"dense": {5 * nt, 5, denseLayout(randSPD(5*nt, rand.New(rand.NewSource(4)))),
				nt * (nt - 1) * (nt - 2) / 6, nt * (nt + 1) / 2, 0},
			"tlr": {geom.Len(), ts, tlrLayout(cov.Matrix(geom, kern), tol),
				(nt - 1) * (nt - 2) / 2, nt + nt - 1, 1},
			"tlr kernel": {geom.Len(), ts, func(g *engine.Grid) *engine.Assembler {
				return tlr(tol).EntryAssembler(g, fillOf(geom, kern), false)
			}, (nt - 1) * (nt - 2) / 2, nt + nt - 1, 1},
		} {
			rt := taskrt.New(2)
			g := engine.NewGrid(tc.n, tc.ts)
			err := engine.PotrfStream(rt, g, tc.mk(g))
			rt.Shutdown()
			if err != nil {
				t.Fatalf("%s nt=%d: %v", name, nt, err)
			}
			got := rt.Snapshot().Tasks
			want := map[string]int{"potrf": nt, "trsm": nt * (nt - 1) / 2, "syrk": nt * (nt - 1) / 2,
				"gemm": tc.gemm, "assemble": tc.assemble, "verdict": tc.verdict}
			for kind, n := range want {
				if got[kind] != n {
					t.Errorf("%s nt=%d: executed %d %s tasks, want %d (all: %v)", name, nt, got[kind], kind, n, got)
				}
			}
			for kind := range got {
				if _, ok := want[kind]; !ok {
					t.Errorf("%s nt=%d: executed %d %s tasks, a kind the graph does not have (all: %v)", name, nt, got[kind], kind, got)
				}
			}
		}
	}
}

// TestLayoutsDeterministicAcrossWorkers: the factor must be identical
// regardless of worker count, whatever the representation mix — the task
// graph fully orders every tile update, and a low-rank tile applies all of
// its updates inside one task, in panel order.
func TestLayoutsDeterministicAcrossWorkers(t *testing.T) {
	spd := randSPD(60, rand.New(rand.NewSource(7)))
	smooth := covGrid(10, 0.1)
	geom := geo.RegularGrid(12, 12)
	fill := fillOf(geom, &cov.Nugget{Kernel: cov.NewMatern(1, 0.2, 2.5), Tau2: 0.05})
	for _, tc := range []struct {
		name    string
		n, ts   int
		workers []int
		mk      layout
	}{
		{"dense", 60, 5, []int{1, 2, 8}, denseLayout(spd)},
		{"tlr", 100, 25, []int{1, 2, 8}, tlrLayout(smooth, 1e-8)},
		{"banded", 36, 9, []int{1, 2, 8}, policyLayout(covGrid(6, 0.2), engine.Policy{Band: 1})},
		{"adaptive", 60, 9, []int{1, 2, 8}, policyLayout(spd, adaptive(1e-6))},
		{"tlr kernel", geom.Len(), 24, []int{1, 2, 4}, func(g *engine.Grid) *engine.Assembler {
			return tlr(1e-6).EntryAssembler(g, fill, false)
		}},
	} {
		var ref *linalg.Matrix
		for _, w := range tc.workers {
			g, err := potrfOn(tc.n, tc.ts, w, tc.mk)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			d := densifyFactor(g)
			if ref == nil {
				ref = d
			} else if diff := d.MaxAbsDiff(ref); diff != 0 {
				t.Errorf("%s: %d workers changed the factor by %v", tc.name, w, diff)
			}
		}
	}
}

func TestTLRLayoutRoundTrip(t *testing.T) {
	sigma := covGrid(10, 0.1) // n=100
	g := assembled(100, 25, tlrLayout(sigma, 1e-9))
	if d := symmetrized(g).MaxAbsDiff(sigma); d > 1e-7 {
		t.Errorf("TLR roundtrip diff %v", d)
	}
}

// TestTLRStreamingACAMatchesSVDAssembly: a kernel's ACA tiles and an
// in-memory Σ's SVD tiles describe the same matrix.
func TestTLRStreamingACAMatchesSVDAssembly(t *testing.T) {
	geom := geo.RegularGrid(10, 10)
	k := &cov.Exponential{Sigma2: 1, Range: 0.15}
	const ts, tol = 25, 1e-6
	svd := assembled(geom.Len(), ts, tlrLayout(cov.Matrix(geom, k), tol))
	aca := assembled(geom.Len(), ts, func(g *engine.Grid) *engine.Assembler {
		return tlr(tol).EntryAssembler(g, entryOf(geom, k), false)
	})
	if d := symmetrized(aca).MaxAbsDiff(symmetrized(svd)); d > 1e-4 {
		t.Errorf("ACA vs SVD assembly differ by %v", d)
	}
}

// TestTLRRanksDecayWithDistance: in a spatially ordered covariance matrix,
// tiles far from the diagonal have rank no larger than near-diagonal tiles
// (the paper's Figure 5 structure), and the layout stores fewer floats than
// the dense matrix.
func TestTLRRanksDecayWithDistance(t *testing.T) {
	sigma := cov.Matrix(geo.RegularGrid(16, 16), &cov.Exponential{Sigma2: 1, Range: 0.234})
	g := assembled(256, 32, tlrLayout(sigma, 1e-3))
	if g.NT != 8 {
		t.Fatalf("NT = %d", g.NT)
	}
	ranks := g.Ranks()
	if near, far := ranks[1][0], ranks[g.NT-1][0]; far > near {
		t.Errorf("far tile rank %d exceeds near tile rank %d", far, near)
	}
	sum, tiles := 0, 0
	for _, row := range ranks {
		for _, r := range row {
			if r < 0 || r > 32 {
				t.Errorf("rank %d implausible for 32×32 tiles", r)
			}
			sum += r
			tiles++
		}
	}
	// Strong compression: mean rank well below the tile size.
	if mean := float64(sum) / float64(tiles); mean <= 0 || mean > 16 {
		t.Errorf("mean rank %v outside (0, 16] at 1e-3 accuracy", mean)
	}
	if b, dense := g.Bytes(), int64(8*256*256); b >= dense {
		t.Errorf("TLR layout stores %d bytes, the dense matrix %d", b, dense)
	}
}

func TestTLRPotrfMatchesDenseHighAccuracy(t *testing.T) {
	sigma := covGrid(12, 0.1) // n=144
	want, err := linalg.Cholesky(sigma)
	if err != nil {
		t.Fatal(err)
	}
	g, err := potrfOn(144, 36, 3, tlrLayout(sigma, 1e-12))
	if err != nil {
		t.Fatal(err)
	}
	if d := densifyFactor(g).MaxAbsDiff(want); d > 1e-6 {
		t.Errorf("TLR factor vs dense factor diff %v", d)
	}
}

func TestTLRPotrfResidualScalesWithTolerance(t *testing.T) {
	sigma := covGrid(12, 0.234)
	norm := sigma.FrobNorm()
	prev := math.Inf(1)
	for _, tol := range []float64{1e-2, 1e-5, 1e-9} {
		g, err := potrfOn(144, 36, 2, tlrLayout(sigma, tol))
		if err != nil {
			t.Fatalf("tol=%g: %v", tol, err)
		}
		relRes := lowerResidual(densifyFactor(g), sigma) / norm
		if relRes > 50*tol {
			t.Errorf("tol=%g: relative residual %v too large", tol, relRes)
		}
		if relRes > prev*1.5 {
			t.Errorf("residual did not improve with tighter tol: %v after %v", relRes, prev)
		}
		prev = relRes
	}
}

func TestTLRPotrfIndefiniteFails(t *testing.T) {
	bad := linalg.Eye(40)
	bad.Set(30, 30, -5)
	if _, err := potrfOn(40, 10, 2, tlrLayout(bad, 1e-9)); !errors.Is(err, linalg.ErrNotPositiveDefinite) {
		t.Errorf("want ErrNotPositiveDefinite, got %v", err)
	}
}

// TestTLRStreamingPotrfEndToEnd: a factor streamed from ACA-assembled tiles
// reconstructs the matrix like the SVD-assembled one.
func TestTLRStreamingPotrfEndToEnd(t *testing.T) {
	geom := geo.RegularGrid(10, 10)
	k := &cov.Exponential{Sigma2: 1, Range: 0.2}
	g := streamFactor(t, geom.Len(), 25, func(g *engine.Grid) *engine.Assembler {
		return tlr(1e-8).EntryAssembler(g, entryOf(geom, k), false)
	})
	if res := lowerResidual(densifyFactor(g), cov.Matrix(geom, k)); res > 1e-5 {
		t.Errorf("ACA TLR Cholesky residual %v", res)
	}
}

// TestStreamedTLRFactorsHoldNoSlack: the workspace pool hands out buffers in
// power-of-two classes, a third more than a TLR factor's U and V fill, and a
// cached factor lives long. Every low-rank tile of a streamed factor — built
// in an assemble task (column 0) or compressed by finishTile — must own
// allocations of exactly its size.
func TestStreamedTLRFactorsHoldNoSlack(t *testing.T) {
	geom := geo.RegularGrid(12, 12)
	k := &cov.Nugget{Kernel: cov.NewMatern(1, 0.2, 2.5), Tau2: 0.05}
	g := streamFactor(t, geom.Len(), 24, func(g *engine.Grid) *engine.Assembler {
		return tlr(1e-4).EntryAssembler(g, fillOf(geom, k), false)
	})
	var built [2]int // low-rank tiles in column 0, and past it
	for i := 0; i < g.NT; i++ {
		for j := 0; j < i; j++ {
			lr, ok := g.At(i, j).(*tile.LowRank)
			if !ok {
				continue
			}
			built[min(j, 1)]++
			if r := lr.Rank(); r == 0 || cap(lr.U.Data) != lr.M*r || cap(lr.V.Data) != lr.N*r {
				t.Errorf("tile (%d,%d) %dx%d rank %d: cap(U) %d, cap(V) %d", i, j, lr.M, lr.N, r, cap(lr.U.Data), cap(lr.V.Data))
			}
		}
	}
	if built[0] == 0 || built[1] == 0 {
		t.Errorf("%d low-rank tiles in column 0 and %d past it: want both", built[0], built[1])
	}
}
