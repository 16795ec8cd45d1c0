// Package geo provides the spatial-geometry substrate: 2-D point sets on
// regular grids or irregular (jittered / uniform random) layouts, and the
// pairwise distances the covariance kernels consume. It mirrors the location
// generator of ExaGeoStat that the paper uses to produce its synthetic
// datasets.
package geo

import (
	"fmt"
	"math"
	"math/rand"
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

// Subset returns the geometry restricted to the given indices, in order.
func (g *Geom) Subset(idx []int) *Geom {
	out := &Geom{Pts: make([]Point, len(idx))}
	for k, i := range idx {
		out.Pts[k] = g.Pts[i]
	}
	return out
}

// MortonOrder returns a permutation of the location indices sorted along a
// Z-order (Morton) space-filling curve. Tile low-rank compression depends on
// spatial locality of the index ordering: Morton ordering keeps nearby
// points in nearby indices so off-diagonal tiles have decaying ranks.
func (g *Geom) MortonOrder() []int {
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, p := range g.Pts {
		minX, maxX = math.Min(minX, p.X), math.Max(maxX, p.X)
		minY, maxY = math.Min(minY, p.Y), math.Max(maxY, p.Y)
	}
	sx, sy := maxX-minX, maxY-minY
	if sx == 0 {
		sx = 1
	}
	if sy == 0 {
		sy = 1
	}
	const bits = 16
	keys := make([]uint64, len(g.Pts))
	for i, p := range g.Pts {
		ix := uint32(((p.X - minX) / sx) * float64((1<<bits)-1))
		iy := uint32(((p.Y - minY) / sy) * float64((1<<bits)-1))
		keys[i] = interleave(ix) | interleave(iy)<<1
	}
	idx := make([]int, len(g.Pts))
	for i := range idx {
		idx[i] = i
	}
	sortByKey(idx, keys)
	return idx
}

// interleave spreads the low 16 bits of v so there is a zero bit between
// each pair of consecutive bits.
func interleave(v uint32) uint64 {
	x := uint64(v) & 0xFFFF
	x = (x | x<<16) & 0x0000FFFF0000FFFF
	x = (x | x<<8) & 0x00FF00FF00FF00FF
	x = (x | x<<4) & 0x0F0F0F0F0F0F0F0F
	x = (x | x<<2) & 0x3333333333333333
	x = (x | x<<1) & 0x5555555555555555
	return x
}

func sortByKey(idx []int, keys []uint64) {
	// Simple bottom-up merge sort on the permutation; stable and
	// allocation-light for the sizes we use.
	n := len(idx)
	buf := make([]int, n)
	for width := 1; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid := min(lo+width, n)
			hi := min(lo+2*width, n)
			i, j, k := lo, mid, lo
			for i < mid && j < hi {
				if keys[idx[i]] <= keys[idx[j]] {
					buf[k] = idx[i]
					i++
				} else {
					buf[k] = idx[j]
					j++
				}
				k++
			}
			for i < mid {
				buf[k] = idx[i]
				i++
				k++
			}
			for j < hi {
				buf[k] = idx[j]
				j++
				k++
			}
		}
		copy(idx, buf)
	}
}

// Permute returns a copy of g with locations reordered so that
// out.Pts[k] = g.Pts[perm[k]].
func (g *Geom) Permute(perm []int) *Geom {
	return g.Subset(perm)
}
