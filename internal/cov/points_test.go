package cov

import (
	"math/rand"

	"repro/internal/geo"
)

// jitteredGrid is a regular nx×ny grid with each point moved by a uniform
// offset of at most jitter grid cells per coordinate: distinct, spread
// points off the lattice, as ExaGeoStat's irregular layout.
func jitteredGrid(nx, ny int, jitter float64, rng *rand.Rand) *geo.Geom {
	g := geo.RegularGrid(nx, ny)
	hx := 1.0 / float64(max(nx-1, 1))
	hy := 1.0 / float64(max(ny-1, 1))
	for i := range g.Pts {
		g.Pts[i].X += (rng.Float64()*2 - 1) * jitter * hx
		g.Pts[i].Y += (rng.Float64()*2 - 1) * jitter * hy
	}
	g.Nx, g.Ny = 0, 0
	return g
}

// uniformRandom is n points drawn uniformly from the unit square.
func uniformRandom(n int, rng *rand.Rand) *geo.Geom {
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Point{X: rng.Float64(), Y: rng.Float64()}
	}
	return &geo.Geom{Pts: pts}
}
