package engine

import (
	"math"
	"slices"

	"repro/internal/linalg"
	"repro/internal/tile"
)

// Policy is the one per-tile representation rule: dense float64 on a band
// around the diagonal (the Cholesky pivots and their strongest couplings),
// and off the band low rank when the tile compresses at Tol within the rank
// limit, dense float64 otherwise. The dense, TLR and adaptive layouts are
// presets of it: a band that covers every tile; no band and a rank limit of
// half the tile side; one sub-diagonal and a quarter.
//
// A tile is low rank only if its tolerance is met within the limit: an
// off-band tile is probed, and one whose probe does not converge there stays
// dense. After its Schur updates a low-rank tile is compressed once more,
// within its byte break-even (see finishTile), and stays dense if tol is not
// met there either. No tile is ever truncated past Tol.
//
// Whether probing can pay is decided once per factorization, from column 0.
// Its off-band tiles, one at each distance from the diagonal past the band,
// are probed first; they include the pairs any locality-preserving order
// makes most compressible. If every one of them is rejected, no later
// off-band tile is probed: each is built dense, exactly the tile a rejected
// probe would have left, so a Σ whose probes all reject gets the same factor
// bit for bit. The rule is the same for both probe kinds, ACA on a kernel
// and tile.CompressWithin on an in-memory Σ. A wrong verdict can only leave a
// compressible tile dense, which costs bytes and apply time, never accuracy.
type Policy struct {
	// Band is the number of sub-diagonals kept dense float64; a band of at
	// least NT−1 tiles makes every tile dense (the dense layout).
	Band int
	// Tol is the relative accuracy of every low-rank tile, at assembly and
	// at its recompression after the Schur updates.
	Tol float64
	// RankFrac accepts the low-rank representation when the compressed rank
	// is at most RankFrac·min(tile dims) (0: no tile is low rank).
	RankFrac float64
}

// Presets are the layouts a session builds, indexed as the facade's methods
// (dense, TLR, adaptive): every tile dense float64; no band and ranks up to
// half the tile side; one dense sub-diagonal and ranks up to a quarter of the
// side. The caller sets Tol. A finished low-rank tile is recompressed within
// its byte break-even, half the side, and no tile is truncated past Tol.
var Presets = [...]Policy{
	{Band: math.MaxInt},
	{RankFrac: 0.5},
	{Band: 1, RankFrac: 0.25},
}

// RankLimit is the largest low-rank tile rank the policy accepts for an
// m×n tile.
func (p Policy) RankLimit(m, n int) int {
	return int(p.RankFrac * float64(min(m, n)))
}

// offBand reports whether tile (i,j), j < i, lies outside the dense band.
func (p Policy) offBand(i, j int) bool { return i-j > p.Band }

// hasOffBand reports whether a grid of nt tile rows has any off-band tile.
func (p Policy) hasOffBand(nt int) bool { return p.Band < nt-1 }

// probe runs the compressibility test for the off-band r×c tile at
// (row0,col0) and returns the accepted low-rank tile, or the dense block the
// tile is built from instead.
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

// EntryAssembler returns the engine's assembler: the policy applied to every
// tile of the run evaluator, for PotrfStream or Assemble. Band tiles are
// dense float64; off-band tiles are probed (see probe; after column 0's
// verdict, or skipped) and built dense float64 where the probe rejects. Every
// tile is built by a task of the factorization graph only when the graph
// first needs it. Dense tiles draw from the workspace pool (the grid becomes
// engine-owned). The grid must be the one passed to PotrfStream or Assemble.
func (p Policy) EntryAssembler(g *Grid, fill RunFill, inMemory bool) *Assembler {
	ts := g.TS
	asm := &Assembler{Policy: p}
	col0Accepted := make([]bool, g.NT) // written by tile (i,0) alone
	skip := false                      // set by the verdict
	if p.hasOffBand(g.NT) {
		asm.verdict = func() { skip = !slices.Contains(col0Accepted, true) }
	}
	asm.Tile = func(i, j int) tile.Tile {
		ri, rj := g.TileRows(i), g.TileRows(j)
		row0, col0 := i*ts, j*ts
		if !p.offBand(i, j) {
			return &tile.DenseF64{D: denseBlock(ri, rj, row0, col0, fill)}
		}
		if j > 0 && skip {
			g.probesSkipped.Add(1)
			return &tile.DenseF64{D: denseBlock(ri, rj, row0, col0, fill)}
		}
		lr, rejected := p.probe(g, ri, rj, row0, col0, fill, inMemory)
		if lr == nil {
			return &tile.DenseF64{D: rejected}
		}
		if j == 0 {
			col0Accepted[i] = true
		}
		return lr
	}
	return asm
}
