package geo

import (
	"math"
	"math/rand"
	"testing"
)

func TestRegularGrid(t *testing.T) {
	g := RegularGrid(3, 2)
	if g.Len() != 6 {
		t.Fatalf("Len = %d, want 6", g.Len())
	}
	if g.Pts[0] != (Point{0, 0}) || g.Pts[2] != (Point{1, 0}) || g.Pts[5] != (Point{1, 1}) {
		t.Errorf("unexpected corner points: %+v", g.Pts)
	}
	if g.Nx != 3 || g.Ny != 2 {
		t.Errorf("grid shape %dx%d, want 3x2", g.Nx, g.Ny)
	}
}

func TestRegularGridSinglePoint(t *testing.T) {
	g := RegularGrid(1, 1)
	if g.Pts[0] != (Point{0.5, 0.5}) {
		t.Errorf("1x1 grid should sit at the centre, got %+v", g.Pts[0])
	}
}

func TestRegularGridPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("RegularGrid(0,3) should panic")
		}
	}()
	RegularGrid(0, 3)
}

func TestDistSymmetryAndTriangle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := UniformRandom(40, rng)
	for i := 0; i < g.Len(); i++ {
		for j := 0; j < g.Len(); j++ {
			dij, dji := g.Dist(i, j), g.Dist(j, i)
			if dij != dji {
				t.Fatalf("distance not symmetric at (%d,%d)", i, j)
			}
			if i == j && dij != 0 {
				t.Fatalf("self distance nonzero at %d", i)
			}
		}
	}
	// Triangle inequality on random triples.
	for k := 0; k < 200; k++ {
		a, b, c := rng.Intn(40), rng.Intn(40), rng.Intn(40)
		if g.Dist(a, c) > g.Dist(a, b)+g.Dist(b, c)+1e-12 {
			t.Fatalf("triangle inequality violated for (%d,%d,%d)", a, b, c)
		}
	}
}

func TestJitteredGridStaysDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := JitteredGrid(8, 8, 0.4, rng)
	if g.Len() != 64 {
		t.Fatalf("Len = %d", g.Len())
	}
	for i := 0; i < g.Len(); i++ {
		for j := i + 1; j < g.Len(); j++ {
			if g.Dist(i, j) == 0 {
				t.Fatalf("points %d and %d coincide", i, j)
			}
		}
	}
}

func TestUniformRandomInUnitSquare(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := UniformRandom(500, rng)
	for i, p := range g.Pts {
		if p.X < 0 || p.X > 1 || p.Y < 0 || p.Y > 1 {
			t.Fatalf("point %d outside unit square: %+v", i, p)
		}
	}
}

func TestRectMapsCorners(t *testing.T) {
	g := RegularGrid(2, 2).Rect(34, 56, 16, 33)
	want := []Point{{34, 16}, {56, 16}, {34, 33}, {56, 33}}
	for i, w := range want {
		if math.Abs(g.Pts[i].X-w.X) > 1e-12 || math.Abs(g.Pts[i].Y-w.Y) > 1e-12 {
			t.Errorf("corner %d = %+v, want %+v", i, g.Pts[i], w)
		}
	}
}

// JitteredGrid returns a regular nx×ny grid with each point perturbed by a
// uniform offset of at most `jitter` grid cells in each coordinate. This is
// the "irregularly distributed locations" layout ExaGeoStat generates: it
// keeps points distinct and spread while breaking the lattice structure.
func JitteredGrid(nx, ny int, jitter float64, rng *rand.Rand) *Geom {
	g := RegularGrid(nx, ny)
	hx := 1.0 / float64(max(nx-1, 1))
	hy := 1.0 / float64(max(ny-1, 1))
	for i := range g.Pts {
		g.Pts[i].X += (rng.Float64()*2 - 1) * jitter * hx
		g.Pts[i].Y += (rng.Float64()*2 - 1) * jitter * hy
	}
	g.Nx, g.Ny = 0, 0
	return g
}

// UniformRandom returns n points drawn uniformly from the unit square.
func UniformRandom(n int, rng *rand.Rand) *Geom {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{X: rng.Float64(), Y: rng.Float64()}
	}
	return &Geom{Pts: pts}
}
