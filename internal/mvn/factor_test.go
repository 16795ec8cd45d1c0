package mvn

import (
	"math"
	"testing"

	"repro/internal/cov"
	"repro/internal/engine"
	"repro/internal/geo"
	"repro/internal/linalg"
	"repro/internal/taskrt"
	"repro/internal/tile"
)

// TestNewFactorPacksInPlace is the footprint gate of the packed factor. An
// adaptive factor holding both representations (Matérn ν 1.5 on a 40×25
// grid, tile 64, so the last tile row is ragged; its tiles probed by ACA as
// a kernel's are): NewFactor re-lays every
// dense float64 off-diagonal tile over its own storage, keeps the bits
// (unpacking gives the tile back), leaves Mix and the grid's bytes as they
// were, and the payloads of the grid's tiles — each held once — sum to the
// grid's Bytes, which FactorFootprint reports. A second NewFactor on the
// converted grid changes no tile and answers the same.
func TestNewFactorPacksInPlace(t *testing.T) {
	sigma := cov.Matrix(geo.RegularGrid(40, 25), cov.NewMatern(1, 0.1, 1.5))
	rt := taskrt.New(2)
	defer rt.Shutdown()
	g := engine.NewGrid(sigma.Rows, 64)
	fill := func(dst []float64, row0, j int) { copy(dst, sigma.Col(j)[row0:]) }
	pol := engine.Policy{Band: 1, Tol: 1e-4, RankFrac: 0.25}
	if err := engine.PotrfStream(rt, g, pol.EntryAssembler(g, fill, false)); err != nil {
		t.Fatal(err)
	}
	mix, gridBytes := g.Mix(), g.Bytes()
	if mix.LowRank == 0 || mix.Dense64 <= g.NT {
		t.Fatalf("mix %+v: want low-rank and off-diagonal dense tiles", mix)
	}
	type denseTile struct {
		i, j  int
		first *float64
		m     *linalg.Matrix
	}
	var dense []denseTile
	for i := 0; i < g.NT; i++ {
		for j := 0; j < i; j++ {
			if d, ok := g.At(i, j).(*tile.DenseF64); ok {
				dense = append(dense, denseTile{i, j, &d.D.Data[0], d.D.Clone()})
			}
		}
	}

	f := NewFactor(g)
	if got := g.Mix(); got != mix {
		t.Errorf("Mix %+v after NewFactor, %+v before", got, mix)
	}
	if got := g.Bytes(); got != gridBytes {
		t.Errorf("grid bytes %d after NewFactor, %d before", got, gridBytes)
	}
	for _, d := range dense {
		p, ok := g.At(d.i, d.j).(*tile.PackedF64)
		if !ok {
			t.Fatalf("tile (%d,%d) is %T after NewFactor, want *tile.PackedF64", d.i, d.j, g.At(d.i, d.j))
		}
		if &p.P.Data[0] != d.first {
			t.Errorf("tile (%d,%d) moved: packed over new storage", d.i, d.j)
		}
		back := linalg.NewMatrix(p.Dims())
		p.P.UnpackInto(back)
		for k, v := range d.m.Data {
			if math.Float64bits(back.Data[k]) != math.Float64bits(v) {
				t.Fatalf("tile (%d,%d) unpacks to %v at %d, was %v", d.i, d.j, back.Data[k], k, v)
			}
		}
	}

	var live int64
	for i := 0; i < g.NT; i++ {
		for j := 0; j <= i; j++ {
			switch tt := g.At(i, j).(type) {
			case *tile.DenseF64:
				live += 8 * int64(len(tt.D.Data))
			case *tile.PackedF64:
				live += 8 * int64(len(tt.P.Data))
			case *tile.LowRank:
				if tt.Rank() > 0 {
					live += 8 * int64(len(tt.U.Data)+len(tt.V.Data))
				}
			}
		}
	}
	if live != g.Bytes() {
		t.Errorf("live payloads %d bytes, grid Bytes %d", live, g.Bytes())
	}

	tiles := make(map[[2]int]tile.Tile)
	for i := 0; i < g.NT; i++ {
		for j := 0; j <= i; j++ {
			tiles[[2]int{i, j}] = g.At(i, j)
		}
	}
	n := sigma.Rows
	a, b := make([]float64, n), make([]float64, n)
	for i := range a {
		a[i], b[i] = -2, 2.5
	}
	opt := Options{N: 256, Replicates: 2}
	want := PMVN(rt, f, a, b, opt)
	f2 := NewFactor(g)
	for ij, tt := range tiles {
		if g.At(ij[0], ij[1]) != tt {
			t.Fatalf("a second NewFactor replaced tile %v", ij)
		}
	}
	if got := PMVN(rt, f2, a, b, opt); got.Prob != want.Prob || got.StdErr != want.StdErr {
		t.Errorf("second factor answers %v ± %v, first %v ± %v", got.Prob, got.StdErr, want.Prob, want.StdErr)
	}
}
