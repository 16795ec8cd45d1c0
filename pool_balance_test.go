package parmvn

import (
	"testing"

	"repro/internal/linalg"
	"repro/internal/tile"
)

// The pool-balance gate. Every pooled buffer has one owner, and the owner
// hands it back: a warm query returns every buffer it takes, and a cold
// factorization keeps exactly one per dense tile it stores, from linalg's
// pool, and no int slice or view header. The pools count the items they have handed out and not taken
// back, so a missing Put on either path shows as a count that drifts, and a
// double Put as one that falls short. The factor's own scratch is covered
// the same way: mvn.NewFactor's copy of each tile it re-lays in place, and
// the zero-padded panel every packed-factor product widens its ragged rows
// into, both go back before the counts are read. CI runs this with the
// ZeroAllocs rows, on the vector kernels and again with REPRO_NOASM=1.

// TestPoolBalance factorizes a problem at tile 64 in every layout and checks
// the outstanding-buffer counts after the cold build and after each of
// several rounds of warm calls through every entry point. Each layout's
// factor holds exactly the tiles its row names: largeBox under TLR
// keeps off-band tiles past column 0 dense (their finish task's dense
// accumulator is the buffer that stays out), maternBox under the adaptive
// preset holds both representations.
func TestPoolBalance(t *testing.T) {
	for _, c := range []struct {
		m   Method
		q   warmBox
		tol float64
		mix [2]int
	}{
		{Dense, largeBox(), 1e-6, [2]int{10, 0}},
		{TLR, largeBox(), 1e-6, [2]int{9, 1}},
		{MethodAdaptive, maternBox(), 1e-4, maternMix},
	} {
		m, q := c.m, c.q
		t.Run(m.String()+"/f64", func(t *testing.T) {
			s := NewSession(Config{Workers: 2, TileSize: 64, QMCSize: 200, TLRTol: c.tol, Method: m})
			defer s.Close()
			base := linalg.OutstandingVecs()
			baseInts, baseViews := linalg.OutstandingInts(), linalg.OutstandingMatViews()
			fp, err := s.FactorFootprint(q.locs, q.kernel)
			if err != nil {
				t.Fatal(err)
			}
			if err := mixIs(fp, c.mix); err != nil {
				t.Fatal(err)
			}
			if m == TLR {
				f, err := s.factor(problem{locs: q.locs, kernel: q.kernel})
				if err != nil {
					t.Fatal(err)
				}
				if late := f.G.At(f.NT()-1, 1); late.Kind() != tile.KindDenseF64 {
					t.Fatalf("tile (%d,1) is %s: no off-band tile past column 0 stayed dense", f.NT()-1, late.Kind())
				}
			}
			check := func(when string) {
				t.Helper()
				if got := linalg.OutstandingVecs() - base; got != int64(fp.Dense64) {
					t.Fatalf("%s: %d buffers outstanding, want %d (one per dense tile of %+v)", when, got, fp.Dense64, fp)
				}
				if ints, views := linalg.OutstandingInts()-baseInts, linalg.OutstandingMatViews()-baseViews; ints != 0 || views != 0 {
					t.Fatalf("%s: %d int slices and %d view headers outstanding, want 0 and 0", when, ints, views)
				}
			}
			check("cold factorization")
			for round := 0; round < 3; round++ {
				for _, c := range warmCalls {
					if _, err := c.call(s, q); err != nil {
						t.Fatal(err)
					}
					check("warm " + c.name)
				}
			}
		})
	}
}
