// Package geo provides the spatial-geometry substrate: 2-D point sets on
// regular grids, and the pairwise distances the covariance kernels consume.
// It mirrors the location generator of ExaGeoStat that the paper uses to
// produce its synthetic datasets.
package geo

import (
	"fmt"
	"math"
)

// Point is a location in the plane.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance to q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Geom is an ordered collection of spatial locations. The index of a point
// is its variable index in every covariance matrix and probability vector
// built from the geometry.
type Geom struct {
	Pts []Point
	// Nx, Ny record the grid shape when the geometry is a regular grid
	// (zero otherwise); plotting and the rank-map figure use them.
	Nx, Ny int
}

// Len returns the number of locations.
func (g *Geom) Len() int { return len(g.Pts) }

// Dist returns the distance between locations i and j.
func (g *Geom) Dist(i, j int) float64 { return g.Pts[i].Dist(g.Pts[j]) }

// RegularGrid returns an nx×ny grid of points filling the unit square,
// ordered row-major. With nx = ny = k the spacing is 1/(k-1) except for the
// degenerate 1-point case.
func RegularGrid(nx, ny int) *Geom {
	if nx < 1 || ny < 1 {
		panic(fmt.Sprintf("geo: invalid grid %dx%d", nx, ny))
	}
	pts := make([]Point, 0, nx*ny)
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			pts = append(pts, Point{X: frac(i, nx), Y: frac(j, ny)})
		}
	}
	return &Geom{Pts: pts, Nx: nx, Ny: ny}
}

func frac(i, n int) float64 {
	if n == 1 {
		return 0.5
	}
	return float64(i) / float64(n-1)
}

// Rect returns a copy of g affinely mapped from the unit square onto the
// rectangle [x0,x1]×[y0,y1]. It is used to place synthetic fields on
// physical coordinates (e.g. longitude/latitude boxes).
func (g *Geom) Rect(x0, x1, y0, y1 float64) *Geom {
	out := &Geom{Pts: make([]Point, len(g.Pts)), Nx: g.Nx, Ny: g.Ny}
	for i, p := range g.Pts {
		out.Pts[i] = Point{X: x0 + p.X*(x1-x0), Y: y0 + p.Y*(y1-y0)}
	}
	return out
}
