package mvn

import (
	"math"

	"repro/internal/linalg"
	"repro/internal/qmc"
	"repro/internal/stats"
)

// The chain-blocked SOV path. One sample-tile column — a lane block of mc
// chains — runs through the whole factor in a single left-looking sweep:
// at row tile r all inter-tile conditioning contributions Σ_{t<r} Y_t·L(r,t)ᵀ
// are applied as lane-major GEMMs into one accumulator tile, and the diagonal
// kernel advances every lane through the tile's rows. Work tiles are laid out
// chain-major (mc × rows): the sample lanes run down the stride-1 axis, so
// the intra-tile conditioning at row i is stride-1 axpys across lanes and the
// Genz step of a row is one call over contiguous lane vectors.
//
// That step (paper Algorithm 3) is typed by the row, not by the lane: a row's
// limits are two scalars shared by every chain, so stats.GenzRow decides once
// which is infinite — one erfc per lane for the half-open rows of an excursion
// or prefix query, two for a two-sided row, none for a free one. A row walks
// its lane vector five times, four of them in AVX2 — shift into erfc
// arguments, erfc, combine into (dif, u), Φ⁻¹ (central and tail lanes) —
// and qmcKernelLanes' one scalar pass, which only applies the fix-ups.
//
// Compared to the seed's right-looking task graph (per-(row,column) QMC
// kernels with GEMM propagation tasks fanned between them), columns are now
// fully independent: no handles, no cross-column barriers, and a column
// whose lanes have all died (p == 0) stops sweeping — skipping every
// remaining propagation GEMM, QMC block generation and special-function row
// for that block. All working storage is pooled, so a warm query allocates
// nothing.

// getLaneWS carves the per-column lane scratch of the Genz step out of one
// pooled buffer. The second result is that buffer; callers return it with
// linalg.PutVec when the sweep finishes.
func getLaneWS(mc int) (stats.GenzLanes, []float64) {
	buf := linalg.GetVec(4 * mc)
	return stats.GenzLanes{
		A:   buf[0*mc : 1*mc],
		B:   buf[1*mc : 2*mc],
		Dif: buf[2*mc : 3*mc],
		U:   buf[3*mc : 4*mc],
	}, buf
}

// freeSpan reports whether rows row0..row0+rows-1 are all unconstrained
// ((-∞,+∞) limits): such rows contribute factor 1 and y = Φ⁻¹(w) regardless
// of the conditioning values, so whole free tiles skip their limit tiles and
// incoming propagation GEMMs entirely — the PrefixProb query shape
// constrains only a prefix of the locations and leaves most rows free.
func freeSpan(a, b []float64, row0, rows int) bool {
	for i := row0; i < row0+rows; i++ {
		if !math.IsInf(a[i], -1) || !math.IsInf(b[i], 1) {
			return false
		}
	}
	return true
}

// condBlock is the row sub-block of the diagonal kernel: rows condition on
// each other by lane axpys inside a sub-block and on all earlier sub-blocks
// through one GEMM per sub-block.
const condBlock = 32

// sweepColumn integrates the lane block of mc chains starting at global
// sample index kOff through the factor rows the trimmed limits a, b cover,
// reading its points from the lattice src, and returns Σ_lanes p. With nu > 0
// it computes the Student-t variant: the lattice's leading coordinate fixes
// each lane's χ² scale. Everything it touches is pooled or caller-owned;
// concurrent calls for disjoint columns are safe (the Factor and the lattice
// are only read).
//
// Finished conditioning values wait for the row tiles below them in yBuf as
// GEMM-ready panels (linalg.PackedA, one operand per row tile, tile t at
// offset mp·t·ts) and nowhere else: each tile is packed once, by the diagonal
// kernel that produces it, and every later row tile's propagation reads the
// panels in place.
//
// pre, when non-nil, receives Σ_lanes p after every row (PMVNPrefix); rows
// the sweep never reaches because every lane died stay exactly 0.
func sweepColumn(f *Factor, a, b []float64, src *qmc.Richtmyer, kOff, mc int, nu float64, pre prefixCol) float64 {
	ts := f.TS()
	nt := (len(a) + ts - 1) / ts
	mp := linalg.PackedLen(mc, 1)
	yBuf := linalg.GetVec(mp * len(a))
	yT := linalg.GetMat(mc, ts)
	p := ones(linalg.GetVec(mc))
	ws, wsBuf := getLaneWS(mc)
	clear(pre)
	d0Base := 0
	var s []float64
	if nu > 0 {
		// Leading QMC coordinate → per-lane scale s = √(χ²inv_ν(w₀)/ν).
		d0Base = 1
		s = linalg.GetVec(mc)
		w0 := linalg.GetMat(mc, 1)
		src.FillBlock(w0, kOff, 0)
		for l, w := range w0.Col(0) {
			s[l] = chiScale(w, nu)
		}
		linalg.PutMat(w0)
	}

	alive := mc
	for r := 0; r < nt && alive > 0; r++ {
		row0 := r * ts
		rows := min(f.TileRows(r), len(a)-row0)
		yOff := mp * row0
		yP := linalg.PackedOver(yBuf[yOff:], mc, rows)
		rT := linalg.GetMat(mc, rows)
		src.FillBlock(rT, kOff, d0Base+row0)
		if freeSpan(a, b, row0, rows) {
			// Unconstrained tile: y = Φ⁻¹(w) for the whole block, factors 1,
			// and no conditioning GEMMs into it at all.
			stats.PhiInvBatch(rT.Data[:mc*rows], yT.Data[:mc*rows])
			yP.Pack(yT, 0)
			pre.record(row0, rows, p)
		} else {
			// The A and B limits of Algorithm 2 are shifted by the SAME
			// conditioning sum, so one accumulator tile serves both — half the
			// propagation GEMMs of the seed's paired A/B updates. The first
			// apply overwrites (beta 0), so the pooled tile needs no zeroing.
			cond := linalg.GetMat(mc, f.TileRows(r))
			if r == 0 {
				clear(cond.Data)
			}
			for t := 0; t < r; t++ {
				beta := 1.0
				if t == 0 {
					beta = 0
				}
				f.ApplyOffDiagLanes(r, t, 1, linalg.PackedOver(yBuf[mp*t*ts:], mc, ts), beta, cond)
			}
			alive = qmcKernelLanes(f.Diag(r), rT, cond, yT, yP, a, b, row0, s, p, ws, alive, pre)
			linalg.PutMat(cond)
		}
		linalg.PutMat(rT)
	}

	sum := 0.0
	for _, v := range p {
		sum += v
	}
	if s != nil {
		linalg.PutVec(&s)
	}
	linalg.PutVec(&wsBuf)
	linalg.PutVec(&p)
	linalg.PutMat(yT)
	linalg.PutVec(&yBuf)
	return sum
}

// ones sets every element of v to 1 and returns it. The caller's variable is
// address-taken by its PutVec, so a loop over it there would keep a bounds
// check on every element.
func ones(v []float64) []float64 {
	for i := range v {
		v[i] = 1
	}
	return v
}

// qmcKernelLanes is Algorithm 3 over one lane block: it advances every lane
// (chain) of the block through the tile's first yP.K rows, multiplying the
// interval probability factors into p and leaving the conditioning values
// packed in yP (yT is the tile-sized scratch they pass through). cond holds
// the conditioning sums of the earlier row tiles (zeros for the first). The
// rows go in sub-blocks of condBlock: inside one, row i adds its
// predecessors' terms through the lower triangle of lkk by lane axpys; a
// finished sub-block is packed into yP and one GEMM from those panels adds
// its terms to every remaining column of cond, so all but 1/8 of the
// intra-tile conditioning runs on the micro-kernel. The (optionally
// χ²-scaled by s) limits are broadcast per row straight from a and b — no
// limit tiles exist. It returns the updated count of alive lanes and stops
// as soon as none remain (yP is then incomplete — the caller abandons the
// sweep). pre records Σ_lanes p after every row it completes.
//
// Rows with most lanes alive (4·alive ≥ 3·mc) run the batch arm: one
// stats.GenzRow over the contiguous lane vectors — typed by the row's scalar
// limits, so a half-open row pays one erfc per lane and nothing for its
// infinite side, and returns y on every lane but those whose u is not a
// normal number in (0,1) — then one scalar pass over the lanes that applies
// the fix-ups (dead lanes, empty intervals, the flagged lanes' scalar Φ⁻¹
// and its tail clamp) and multiplies the factors into p. Once most lanes are
// dead the sparse arm, the scalar chainStep over the survivors, is cheaper
// than full-width batches. The arms agree to stats.ErfcVecMaxRel, not bit for bit
// (the vector erfc is not math.Erfc), so a lane's value depends on which side
// of the threshold its block stood at that row; the guarantee is that the
// result is a deterministic function of the inputs, whatever the worker count.
func qmcKernelLanes(lkk, rT, cond, yT *linalg.Matrix, yP linalg.PackedA, a, b []float64, row0 int, s, p []float64, ws stats.GenzLanes, alive int, pre prefixCol) int {
	m := yP.K
	mc := len(p)
	for i0 := 0; i0 < m; i0 += condBlock {
		i1 := min(i0+condBlock, m)
		for i := i0; i < i1 && alive > 0; i++ {
			yCol := yT.Col(i)
			wCol := rT.Col(i)
			av, bv := a[row0+i], b[row0+i]
			if math.IsInf(av, -1) && math.IsInf(bv, 1) {
				// Free row inside a constrained tile: factor 1, y = Φ⁻¹(w); the
				// conditioning sum cancels out of the (-∞,+∞) interval entirely.
				stats.PhiInvBatch(wCol, yCol)
				pre.record(row0+i, 1, p)
				continue
			}
			// The sub-block's own terms accumulate directly on top of the
			// earlier rows' sums: cond's column i is consumed exactly once,
			// at this row.
			acc := cond.Col(i)
			linalg.AxpyCols(acc, lkk.Data[i+i0*lkk.Stride:], lkk.Stride, yT, i0, i-i0)
			d := lkk.At(i, i)
			if 4*alive >= 3*mc { // batch arm
				stats.GenzRow(av, bv, acc, d, s, wCol, yCol, ws)
				dif, u := ws.Dif[:mc], ws.U[:mc]
				yCol = yCol[:mc]
				for l := range p {
					switch {
					case p[l] == 0:
						yCol[l] = 0 // dead lane: keep Y finite
					case dif[l] <= 0:
						yCol[l] = emptyIntervalY(ws.Limits(av, bv, l))
						p[l] = 0
						alive--
					default:
						if math.IsNaN(yCol[l]) { // flagged by GenzRow
							y := stats.PhiInv(u[l])
							if math.IsInf(y, 0) || math.IsNaN(y) {
								aP, bP := ws.Limits(av, bv, l)
								y = clampTailY(y, aP, bP)
							}
							yCol[l] = y
						}
						p[l] *= dif[l]
						if p[l] == 0 {
							alive--
						}
					}
				}
				pre.record(row0+i, 1, p)
				continue
			}
			// Sparse arm: only the surviving lanes pay the special functions.
			for l := 0; l < mc; l++ {
				if p[l] == 0 {
					yCol[l] = 0
					continue
				}
				al, bl := av, bv
				if s != nil {
					al, bl = scaleLimit(av, s[l]), scaleLimit(bv, s[l])
				}
				factor, yi := chainStep(shiftLimit(al, acc[l], d), shiftLimit(bl, acc[l], d), wCol[l])
				p[l] *= factor
				yCol[l] = yi
				if p[l] == 0 {
					alive--
				}
			}
			pre.record(row0+i, 1, p)
		}
		if alive == 0 {
			return 0
		}
		sub := yP.Cols(i0, i1-i0)
		sub.Pack(yT, i0)
		if i1 < m {
			lv := linalg.GetMatView(lkk, i1, i0, m-i1, i1-i0)
			cv := linalg.GetMatView(cond, 0, i1, mc, m-i1)
			linalg.GemmPackedA(1, sub, true, lv, 1, cv)
			linalg.PutMatView(cv)
			linalg.PutMatView(lv)
		}
	}
	return alive
}
