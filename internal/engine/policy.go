package engine

import (
	"math"
	"slices"

	"repro/internal/linalg"
	"repro/internal/tile"
)

// Policy is the per-tile adaptive representation rule: dense float64 on a
// band around the diagonal (the Cholesky pivots and their strongest
// couplings), and off the band either low rank — when the tile compresses
// well at the configured tolerance — or dense float32 — when it does not
// compress but its norm is small enough that single precision stays below
// the requested accuracy — falling back to dense float64 for large
// incompressible tiles.
//
// Whether probing can pay is decided once per factorization, from column 0.
// Its off-band tiles, one at each distance from the diagonal past the band,
// are probed first; they include the pairs any locality-preserving order
// makes most compressible. If every one of them is rejected, no later
// off-band tile is probed: each goes straight to the f32/f64 rule, exactly
// the tile a rejected probe would have left, so a Σ whose probes all reject
// gets the same factor bit for bit. The rule is the same for both probe
// kinds, ACA on a kernel and tile.CompressWithin on an in-memory Σ. A wrong
// verdict can only leave a compressible tile dense, which costs bytes and
// apply time, never accuracy.
type Policy struct {
	// Band is the number of sub-diagonals kept dense float64 (default 1).
	Band int
	// Tol is the low-rank compression tolerance (shared with recompression
	// during the factorization).
	Tol float64
	// MaxRank caps accepted low-rank tile ranks (0 = uncapped).
	MaxRank int
	// RankFrac accepts the low-rank representation when the compressed rank
	// is at most RankFrac·min(tile dims). The default, 0.25, is the measured
	// break-even, not the byte one (0.5): a low-rank tile costs one
	// compression more than a dense one to factor and repays it only through
	// cheaper (Y·V)·Uᵀ applies, which at half the tile side cost what the
	// dense apply does (table in README, "adaptive per-tile policy").
	RankFrac float64
	// F32Norm stores an incompressible off-band tile in float32 when its
	// Frobenius norm relative to the geometric mean of its diagonal blocks'
	// norms is at most F32Norm, so the f32 rounding (~1e-7 relative) stays
	// commensurate with the compression tolerance (default 0.1).
	F32Norm float64
}

// WithDefaults fills unset policy knobs. It is the single source of the
// adaptive defaults; the api.Config defaulting delegates here.
func (p Policy) WithDefaults() Policy {
	if p.Band <= 0 {
		p.Band = 1
	}
	if p.Tol <= 0 {
		p.Tol = 1e-6
	}
	if p.RankFrac <= 0 {
		p.RankFrac = 0.25
	}
	if p.F32Norm <= 0 {
		p.F32Norm = 0.1
	}
	return p
}

// RankLimit is the largest low-rank tile rank the policy accepts for an
// m×n tile.
func (p Policy) RankLimit(m, n int) int {
	limit := int(p.RankFrac * float64(min(m, n)))
	if p.MaxRank > 0 && limit > p.MaxRank {
		limit = p.MaxRank
	}
	return limit
}

// probe runs the compressibility test for the off-band r×c tile at
// (row0,col0) and returns the accepted low-rank tile, or the dense block the
// f32/f64 rule takes over from.
//
// A kernel is probed by ACA with a rank budget one past the acceptance limit:
// a probe that CONVERGES within the limit — the cross iteration stopped on
// its own and its sampled residual agrees — is accepted (and IS the tile — no
// recompute); anything else — budget exhausted, residual check failed, or
// rounding trimming an unconverged cross set under the limit — means the
// tile's numerical rank at Tol is not known to fit. Requiring the convergence
// flag (not just the rounded rank) is what stops a truncated slowly-decaying
// tile from vacuously passing the rank test with uncontrolled error. Probing
// by ACA evaluates O(k) runs instead of densify-then-SVD's full-tile
// spectrum. An inMemory source, where a run is a copy, is probed by
// tile.CompressWithin on the tile in hand, whose tail bound is measured
// against the tile itself where ACA stops on an estimate and only samples
// the residual. The caller owns a returned dense block and hands it back with
// putMat once it has built the tile from it.
func (p Policy) probe(g *Grid, r, c, row0, col0 int, fill RunFill, inMemory bool) (*tile.LowRank, *linalg.Matrix) {
	g.probes.Add(1)
	limit := p.RankLimit(r, c)
	if !inMemory {
		lr, converged := acaBlock(r, c, row0, col0, fill, p.Tol, limit+1)
		if converged && lr.Rank() <= limit {
			return lr, nil
		}
		discard(lr)
	}
	blk := denseBlock(r, c, row0, col0, fill)
	if inMemory {
		lr, ok := tile.CompressWithin(blk, p.Tol, limit)
		if ok {
			putMat(blk)
			return lr, nil
		}
		if lr == nil {
			g.probeRejectedEarly.Add(1)
		} else {
			discard(lr)
		}
	}
	g.probeRejected.Add(1)
	return nil, blk
}

// EntryAssembler returns an assembler applying the adaptive policy per tile,
// for PotrfStream or Assemble: band tiles dense float64, off-band tiles probed
// (see probe; after column 0's verdict, or skipped) with the dense f32/f64
// fallback, each tile built by its own task only when the factorization
// graph first touches it. DiagFirst routes the diagonal Frobenius norms
// (anchoring the f32 test) through the engine's norm handles, so off-band
// tiles always observe assembled, unfactored diagonals. Dense tiles draw from
// the workspace pool (the grid becomes engine-owned).
func (p Policy) EntryAssembler(g *Grid, fill RunFill, inMemory bool) *Assembler {
	p = p.WithDefaults()
	ts := g.TS
	diagNorm := make([]float64, g.NT)
	col0Accepted := make([]bool, g.NT) // written by tile (i,0) alone
	skip := false                      // set by the verdict
	return &Assembler{
		DiagFirst: true,
		verdict:   func() { skip = !slices.Contains(col0Accepted, true) },
		Tile: func(i, j int) tile.Tile {
			ri, rj := g.TileRows(i), g.TileRows(j)
			row0, col0 := i*ts, j*ts
			if i == j {
				d := denseBlock(ri, ri, row0, row0, fill)
				diagNorm[i] = d.FrobNorm()
				return &tile.DenseF64{D: d}
			}
			if i-j <= p.Band {
				return &tile.DenseF64{D: denseBlock(ri, rj, row0, col0, fill)}
			}
			var blk *linalg.Matrix
			if j > 0 && skip {
				g.probesSkipped.Add(1)
				blk = denseBlock(ri, rj, row0, col0, fill)
			} else {
				lr, rejected := p.probe(g, ri, rj, row0, col0, fill, inMemory)
				if lr != nil {
					if j == 0 {
						col0Accepted[i] = true
					}
					return lr
				}
				blk = rejected
			}
			scale := math.Sqrt(diagNorm[i] * diagNorm[j])
			if scale > 0 && blk.FrobNorm() <= p.F32Norm*scale {
				w := tile.GetMat32(ri, rj)
				tile.ToSingleInto(blk, w)
				putMat(blk)
				return &tile.DenseF32{D: w}
			}
			return &tile.DenseF64{D: blk}
		},
	}
}
