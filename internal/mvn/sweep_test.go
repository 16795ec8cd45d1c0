package mvn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/linalg"
	"repro/internal/qmc"
	"repro/internal/taskrt"
	"repro/internal/tile"
)

// randomSPD builds a random SPD covariance with unit-scale diagonal: a
// random square root plus a diagonal shift.
func randomSPD(n int, rng *rand.Rand) *linalg.Matrix {
	g := linalg.NewMatrix(n, n)
	for j := 0; j < n; j++ {
		col := g.Col(j)
		for i := range col {
			col[i] = rng.NormFloat64() / math.Sqrt(float64(n))
		}
	}
	s := linalg.NewMatrix(n, n)
	linalg.Syrk(false, 1, g, 0, s)
	s.SymmetrizeFromLower()
	for i := 0; i < n; i++ {
		s.Add(i, i, 1)
	}
	return s
}

// randomLimits draws limit vectors mixing finite values, half-open and free
// coordinates — the shapes the lane kernel's fast paths dispatch on.
func randomLimits(n int, rng *rand.Rand) (a, b []float64) {
	a = make([]float64, n)
	b = make([]float64, n)
	for i := 0; i < n; i++ {
		switch rng.Intn(4) {
		case 0: // finite box
			a[i] = -1 - rng.Float64()
			b[i] = rng.Float64() * 2
		case 1: // exceedance
			a[i] = -0.5 - rng.Float64()
			b[i] = math.Inf(1)
		case 2: // lower tail
			a[i] = math.Inf(-1)
			b[i] = 0.5 + rng.Float64()
		default: // free
			a[i] = math.Inf(-1)
			b[i] = math.Inf(1)
		}
	}
	return a, b
}

// TestChainBlockedMatchesSequentialRandomSPD pins the chain-blocked sweep
// against the scalar SOV reference on random SPD matrices and mixed limit
// shapes, for both MVN and MVT, at a tile size that exercises ragged edge
// tiles and multiple lane blocks.
func TestChainBlockedMatchesSequentialRandomSPD(t *testing.T) {
	rt := taskrt.New(3)
	defer rt.Shutdown()
	const N = 400
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed + 100))
		n := 20 + rng.Intn(25)
		sigma := randomSPD(n, rng)
		l, err := linalg.Cholesky(sigma)
		if err != nil {
			t.Fatal(err)
		}
		a, b := randomLimits(n, rng)

		f := denseFactorOn(t, rt, sigma, 7)

		want := SOVSequential(a, b, l, qmc.NewRichtmyer(n), N)
		got := PMVN(rt, f, a, b, Options{N: N})
		tol := 1e-9 * math.Max(1, math.Abs(want))
		if math.Abs(got.Prob-want) > tol {
			t.Errorf("seed %d (n=%d): chain-blocked %v vs sequential %v", seed, n, got.Prob, want)
		}

		nu := 3 + 5*rng.Float64()
		wantT := SOVSequentialT(a, b, l, nu, qmc.NewRichtmyer(n+1), N)
		gotT := PMVT(rt, f, a, b, nu, Options{N: N})
		if math.Abs(gotT.Prob-wantT) > tol {
			t.Errorf("seed %d (n=%d, nu=%.2f): chain-blocked MVT %v vs sequential %v", seed, n, nu, gotT.Prob, wantT)
		}
	}
}

// TestPMVNInlineMatchesTasks: the inline sweep (a nil runtime) and the
// task-fanned sweep must produce bit-identical results — a one-worker session
// runs inline and must answer as a wider one does.
func TestPMVNInlineMatchesTasks(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 30
	sigma := randomSPD(n, rng)
	a, b := randomLimits(n, rng)
	rt := taskrt.New(4)
	defer rt.Shutdown()
	f := denseFactorOn(t, rt, sigma, 8)
	for _, reps := range []int{1, 3} {
		opt := Options{N: 300, Replicates: reps}
		tasks := PMVN(rt, f, a, b, opt)
		inline := PMVN(nil, f, a, b, opt)
		if tasks != inline {
			t.Errorf("replicates=%d: inline %+v != tasks %+v", reps, inline, tasks)
		}
		tasksT := PMVT(rt, f, a, b, 4, opt)
		inlineT := PMVT(nil, f, a, b, 4, opt)
		if tasksT != inlineT {
			t.Errorf("replicates=%d: MVT inline %+v != tasks %+v", reps, inlineT, tasksT)
		}
	}
}

// TestPMVNPrefixShape: the PrefixProb query shape (constrained prefix,
// free elsewhere) rides the free-row/free-tile fast paths; pin it against
// the sequential reference and against the dense-limit equivalent.
func TestPMVNPrefixShape(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 40
	sigma := randomSPD(n, rng)
	l, err := linalg.Cholesky(sigma)
	if err != nil {
		t.Fatal(err)
	}
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = math.Inf(-1)
		b[i] = math.Inf(1)
	}
	// Scattered prefix: constrain 9 locations spread over the tiles.
	for i := 0; i < n; i += 5 {
		a[i] = -0.3
	}
	rt := taskrt.New(2)
	defer rt.Shutdown()
	f := denseFactorOn(t, rt, sigma, 8)
	const N = 2000
	want := SOVSequential(a, b, l, qmc.NewRichtmyer(n), N)
	got := PMVN(rt, f, a, b, Options{N: N})
	if math.Abs(got.Prob-want) > 1e-9 {
		t.Errorf("prefix shape: chain-blocked %v vs sequential %v", got.Prob, want)
	}
}

// TestPMVNTLRLaneApply pins the lane-major low-rank propagation: a TLR
// factor at tight tolerance must reproduce the dense chain-blocked result.
func TestPMVNTLRLaneApplyMatchesDense(t *testing.T) {
	// Covered for kernels in mvn_test (TestPMVNTLRMatchesDense); here the
	// lane-major ApplyRightTrans path is exercised with rank-0 tiles too:
	// a block-diagonal covariance compresses off-diagonal tiles to rank 0.
	n := 24
	sigma := linalg.NewMatrix(n, n)
	rng := rand.New(rand.NewSource(3))
	for blk := 0; blk < 3; blk++ {
		base := blk * 8
		s := randomSPD(8, rng)
		for j := 0; j < 8; j++ {
			for i := 0; i < 8; i++ {
				sigma.Set(base+i, base+j, s.At(i, j))
			}
		}
	}
	l, err := linalg.Cholesky(sigma)
	if err != nil {
		t.Fatal(err)
	}
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = -0.8
		b[i] = 1.5
	}
	rt := taskrt.New(2)
	defer rt.Shutdown()
	const N = 500
	want := SOVSequential(a, b, l, qmc.NewRichtmyer(n), N)
	f := tlrFactorOn(t, rt.NewGroup(), sigma, 8, 1e-10)
	zero := 0
	for _, row := range f.G.Ranks() {
		for _, r := range row {
			if r == 0 {
				zero++
			}
		}
	}
	if zero == 0 {
		t.Fatal("block-diagonal covariance produced no rank-0 tiles; test is vacuous")
	}
	got := PMVN(rt, f, a, b, Options{N: N})
	if math.Abs(got.Prob-want) > 1e-8 {
		t.Errorf("block-diagonal TLR: %v vs sequential %v", got.Prob, want)
	}
}

// gridFromDense re-wraps a dense factor as a mixed grid whose off-diagonal
// tiles alternate between dense and (numerically exact) low-rank storage, so
// one factor exercises both of ApplyOffDiagLanes' applies.
func gridFromDense(f *Factor) *Factor {
	g := engine.NewGrid(f.N(), f.TS())
	for i := 0; i < f.NT(); i++ {
		g.Set(i, i, f.G.At(i, i))
		for j := 0; j < i; j++ {
			if (i+j)%2 == 0 {
				g.Set(i, j, f.G.At(i, j))
			} else {
				d := f.G.At(i, j).(*tile.PackedF64)
				m := linalg.NewMatrix(d.Dims())
				d.P.UnpackInto(m)
				g.Set(i, j, tile.Compress(m, 1e-14, 0))
			}
		}
	}
	return NewFactor(g)
}

// TestBlockedSweepMatchesSequential pins the panel-resident sweep — packed Y,
// sub-blocked diagonal kernel, packed off-diagonal applies — against the
// scalar SOV reference at tile sizes where the in-tile GEMMs actually run:
// 40 (one sub-block plus a ragged one), 72 (two plus a ragged one, ragged
// last tile) and 320 (depth past the packed kernel's kcBlk), with lane blocks
// — the tile size, or N where that is smaller — that are not a multiple of
// the register tile, on all three layouts,
// for MVN and MVT. Limits mix finite, half-open and free rows (scattered
// infinities).
func TestBlockedSweepMatchesSequential(t *testing.T) {
	rt := taskrt.New(2)
	defer rt.Shutdown()
	for _, tc := range []struct{ n, ts, N int }{
		{90, 40, 300},
		{190, 72, 120},
		{700, 320, 66},
	} {
		rng := rand.New(rand.NewSource(int64(tc.n)))
		sigma := randomSPD(tc.n, rng)
		l, err := linalg.Cholesky(sigma)
		if err != nil {
			t.Fatal(err)
		}
		a, b := randomLimits(tc.n, rng)
		dense := denseFactorOn(t, rt, sigma, tc.ts)
		nu := 4.5
		want := SOVSequential(a, b, l, qmc.NewRichtmyer(tc.n), tc.N)
		wantT := SOVSequentialT(a, b, l, nu, qmc.NewRichtmyer(tc.n+1), tc.N)
		opt := Options{N: tc.N}
		for name, f := range map[string]*Factor{
			"dense": dense, "tlr": tlrFactorOn(t, rt.NewGroup(), sigma, tc.ts, 1e-13), "grid": gridFromDense(dense),
		} {
			// Relative: at these dimensions the probabilities are 1e-10 and
			// below, and an absolute tolerance would pass anything.
			if got := PMVN(rt, f, a, b, opt).Prob; !(math.Abs(got-want) <= 1e-9*want) {
				t.Errorf("n=%d ts=%d %s: blocked %v vs sequential %v", tc.n, tc.ts, name, got, want)
			}
			if got := PMVT(rt, f, a, b, nu, opt).Prob; !(math.Abs(got-wantT) <= 1e-9*wantT) {
				t.Errorf("n=%d ts=%d %s: blocked MVT %v vs sequential %v", tc.n, tc.ts, name, got, wantT)
			}
		}
	}
}

// TestBlockedSweepMostlyDeadLanes: under near-perfect correlation the first
// constrained row kills most lanes outright (shifted limits tens of σ out),
// so the rest of the sweep runs the sparse path over a Y grid that is mostly
// zeros, through sub-block GEMMs that do not know lanes are dead.
func TestBlockedSweepMostlyDeadLanes(t *testing.T) {
	const n, ts, N = 100, 40, 512
	sigma := linalg.NewMatrix(n, n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			sigma.Set(i, j, 0.999)
		}
		sigma.Set(j, j, 1)
	}
	l, err := linalg.Cholesky(sigma)
	if err != nil {
		t.Fatal(err)
	}
	a, b := make([]float64, n), posInf(n)
	a[0] = math.Inf(-1) // y₀ = Φ⁻¹(w) decides which lanes row 1 kills
	for i := 1; i < n; i++ {
		a[i] = 1
	}
	want := SOVSequential(a, b, l, qmc.NewRichtmyer(n), N)
	if want <= 0 || want >= 0.5 {
		t.Fatalf("reference %v: the box no longer kills most lanes but not all", want)
	}
	f := denseFactor(t, sigma, ts)
	got := PMVN(nil, f, a, b, Options{N: N}).Prob
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("mostly-dead lanes: blocked %v vs sequential %v", got, want)
	}
}

// TestSweepStopsAtLastConstrainedRow: rows after the last finite limit cost
// nothing. The integration sweeps only up to that row — its per-row sums are
// sized to the trimmed rows, which an untrimmed sweep would index past — and
// its estimate is, bit for bit, the sum of its columns swept with a lattice
// that ends at the last constrained row (a block past it would index out of
// the lattice) and the sum of the untrimmed limits swept through every tile,
// for MVN and (one leading χ² coordinate further) MVT.
func TestSweepStopsAtLastConstrainedRow(t *testing.T) {
	const n, ts, N, last = 60, 8, 96, 18 // row 18 is in the middle of tile 2
	const mc = ts                        // the lane width
	rng := rand.New(rand.NewSource(9))
	f := denseFactor(t, randomSPD(n, rng), ts)
	a, b := negInf(n), posInf(n)
	for _, i := range []int{0, 3, 11, last} {
		a[i] = -0.4
	}
	ta, tb := trimFree(a, b)
	if len(ta) != last+1 {
		t.Fatalf("trimmed to %d rows, want %d", len(ta), last+1)
	}
	for _, nu := range []float64{0, 5} {
		lead := 0
		if nu > 0 {
			lead = 1
		}
		short, full := qmc.NewRichtmyer(lead+last+1), qmc.NewRichtmyer(n+lead)
		opt := Options{N: N}
		got := integrate(nil, f, a, b, opt.withDefaults(), mc, nu, make([]float64, len(ta))).Prob
		trimmed, untrimmed := 0.0, 0.0
		for k := 0; k < N; k += mc {
			trimmed += sweepColumn(f, ta, tb, short, k, mc, nu, nil)
			untrimmed += sweepColumn(f, a, b, full, k, mc, nu, nil)
		}
		if clampProb(trimmed/N) != got || clampProb(untrimmed/N) != got {
			t.Errorf("nu=%g: integration %v, trimmed sweep %v, full sweep %v: not bit-identical",
				nu, got, clampProb(trimmed/N), clampProb(untrimmed/N))
		}
	}
	// Nothing constrained: probability 1, and the sweep over the empty trimmed
	// limits reads no point (a nil lattice would panic).
	fa, fb := trimFree(negInf(n), b)
	if sum := sweepColumn(f, fa, fb, nil, 0, mc, 0, nil); sum != mc {
		t.Errorf("all-free column: Σp = %v, want %d", sum, mc)
	}
	if res := PMVN(nil, f, negInf(n), b, Options{N: N}); res.Prob != 1 {
		t.Errorf("all-free box: prob %v", res.Prob)
	}
}

// TestSweepColumnPrefixTotals: the per-row accumulator a column records is
// the running form of the scalar it returns: the last row's total is the
// returned sum bit for bit, the totals never increase, and rows of free tiles
// repeat their predecessor.
func TestSweepColumnPrefixTotals(t *testing.T) {
	const n, ts, mc = 70, 16, 48 // ragged last tile, lanes not a multiple of the register tile
	rng := rand.New(rand.NewSource(13))
	f := gridFromDense(denseFactor(t, randomSPD(n, rng), ts))
	a, b := randomLimits(n, rng)
	for i := 2 * ts; i < 3*ts; i++ { // tile 2 is free: the whole-tile record path
		a[i], b[i] = math.Inf(-1), math.Inf(1)
	}
	for _, nu := range []float64{0, 6} {
		lead := 0
		if nu > 0 {
			lead = 1
		}
		src := qmc.NewRichtmyer(n + lead)
		pre := make([]float64, n)
		for j := range pre {
			pre[j] = -1 // sweepColumn clears what it is handed
		}
		sum := sweepColumn(f, a, b, src, 0, mc, nu, pre)
		if sum <= 0 || pre[n-1] != sum {
			t.Fatalf("nu=%g: last row total %v, returned sum %v", nu, pre[n-1], sum)
		}
		for j := 1; j < n; j++ {
			if pre[j] > pre[j-1] || (j >= 2*ts && j < 3*ts && pre[j] != pre[j-1]) {
				t.Errorf("nu=%g: row %d total %v after %v", nu, j, pre[j], pre[j-1])
			}
		}
	}
}
