package tile

import (
	"math"

	"repro/internal/linalg"
)

// LowRank is a low-rank tile A ≈ U·Vᵀ with U m×k and V n×k (HiCMA-style).
// A zero-rank tile (k = 0) represents an exactly-zero block. U and V may
// live on the linalg workspace pool: a tile owns its factors outright and
// recycles them when recompression replaces them.
type LowRank struct {
	U, V *linalg.Matrix
	M, N int // logical tile shape
}

// Rank returns the current rank k.
func (t *LowRank) Rank() int {
	if t.U == nil {
		return 0
	}
	return t.U.Cols
}

// Dense materializes U·Vᵀ as a dense m×n matrix.
func (t *LowRank) Dense() *linalg.Matrix {
	d := linalg.NewMatrix(t.M, t.N)
	if t.Rank() > 0 {
		linalg.Gemm(false, true, 1, t.U, t.V, 0, d)
	}
	return d
}

// DenseInto materializes U·Vᵀ into the preallocated t.M×t.N matrix dst, the
// form for a pooled destination: the factorization's updates densify an
// operand without allocating per task.
func (t *LowRank) DenseInto(dst *linalg.Matrix) {
	if dst.Rows != t.M || dst.Cols != t.N {
		panic("tile: DenseInto shape mismatch")
	}
	if t.Rank() == 0 {
		dst.Zero()
		return
	}
	linalg.Gemm(false, true, 1, t.U, t.V, 0, dst)
}

// Clone returns a deep copy.
func (t *LowRank) Clone() *LowRank {
	c := &LowRank{M: t.M, N: t.N}
	if t.U != nil {
		c.U, c.V = t.U.Clone(), t.V.Clone()
	}
	return c
}

// AddLowRank appends a second low-rank term αU₂V₂ᵀ to the tile
// (A ← U₁V₁ᵀ + α·U₂V₂ᵀ) by concatenating factors and recompressing to tol
// (capped at maxRank, 0 = uncapped) via the standard QR+SVD rounding — the
// per-update recompression of HiCMA and the paper. The engine no longer
// calls it (a low-rank tile accumulates its updates densely and is compressed
// once, engine.finishTile); it stays as the kernel bench/probes.go times as
// tile.addlowrank_us. The tile's previous factors are recycled onto the
// workspace pool, so a loop of updates is allocation-free at steady state.
//
// Updates that fall below the rounding floor are dropped without touching
// the factors: rounding at tol would truncate them anyway, and the skip
// test costs O(k·(m+n)) against RoundLR's O(k²·(m+n) + k³). The test uses
// the invariant RoundLR establishes — U's columns are orthogonal (the
// singular values folded in) and V's orthonormal — so ‖A‖_F is exactly the
// norm of U's column norms, while the update norm is bounded by the
// triangle inequality over its rank-1 terms. The safety factor keeps the
// sum of all drops across a factorization step sequence under tol. If the
// rounding's SVD fails to converge the tile keeps the unrounded sum, rank
// k₁+k₂.
func (t *LowRank) AddLowRank(alpha float64, u2, v2 *linalg.Matrix, tol float64, maxRank int) {
	k1, k2 := t.Rank(), u2.Cols
	if k2 == 0 {
		return
	}
	if k1 > 0 && tol > 0 {
		upd := 0.0
		for j := 0; j < k2; j++ {
			upd += linalg.Nrm2(u2.Col(j)) * linalg.Nrm2(v2.Col(j))
		}
		cur := 0.0
		for j := 0; j < k1; j++ {
			n := linalg.Nrm2(t.U.Col(j))
			cur += n * n
		}
		if math.Abs(alpha)*upd <= 0.05*tol*math.Sqrt(cur) {
			return
		}
	}
	concat := func() (bigU, bigV *linalg.Matrix) {
		bigU = linalg.GetMat(t.M, k1+k2)
		bigV = linalg.GetMat(t.N, k1+k2)
		for j := 0; j < k1; j++ {
			copy(bigU.Col(j), t.U.Col(j))
			copy(bigV.Col(j), t.V.Col(j))
		}
		for j := 0; j < k2; j++ {
			uc := bigU.Col(k1 + j)
			copy(uc, u2.Col(j))
			linalg.Scal(alpha, uc)
			copy(bigV.Col(k1+j), v2.Col(j))
		}
		return bigU, bigV
	}
	bigU, bigV := concat()
	u, v, ok := RoundLR(bigU, bigV, tol, maxRank)
	linalg.PutMat(bigU)
	linalg.PutMat(bigV)
	if !ok {
		// RoundLR overwrote the concatenation: rebuild it as the factors.
		u, v = concat()
	}
	linalg.PutMat(t.U)
	linalg.PutMat(t.V)
	t.U, t.V = u, v
}

// RoundLR recompresses the product bigU·bigVᵀ to the requested tolerance:
// QR both factors in place, SVD the small core Ru·Rvᵀ, truncate. The inputs
// are OVERWRITTEN (they hold the packed QR factors afterwards); the caller
// keeps ownership and may recycle them once the call returns. The returned
// factors are drawn from the workspace pool.
//
// At loose tolerances the panel orthogonalization runs as CholeskyQR —
// Gram, Cholesky, triangular solve — which is pure level-3 work on the
// packed vector kernels. CholQR loses ~cond(panel)²·ε of orthogonality, and
// the panels' spread is ~1/tol, so the path is gated to tol ≥ 1e-5 (error
// ≤ ~1e-6, far under the truncation) with Householder as the fallback
// whenever the Gram matrix is numerically semidefinite.
//
// ok is false when the core SVD fails to converge (essentially never); the
// inputs are overwritten then too, and no factors are returned.
func RoundLR(bigU, bigV *linalg.Matrix, tol float64, maxRank int) (u, v *linalg.Matrix, ok bool) {
	if tol >= 1e-5 {
		if core := cholQRCore(bigU, bigV); core != nil {
			return roundCore(core, tol, maxRank, func(x1, x2, u, v *linalg.Matrix) {
				linalg.Gemm(false, false, 1, bigU, x1, 0, u)
				linalg.Gemm(false, false, 1, bigV, x2, 0, v)
			}, bigU.Rows, bigV.Rows)
		}
	}
	m, n, ku := bigU.Rows, bigV.Rows, bigU.Cols
	p, q := min(m, ku), min(n, ku)
	tauU := linalg.GetVec(p)
	tauV := linalg.GetVec(q)
	qu := linalg.QRInPlace(bigU, tauU)
	qv := linalg.QRInPlace(bigV, tauV)
	ru := linalg.GetMat(p, ku)
	rv := linalg.GetMat(q, ku)
	qu.RInto(ru)
	qv.RInto(rv)
	core := linalg.GetMat(p, q)
	linalg.Gemm(false, true, 1, ru, rv, 0, core)
	linalg.PutMat(ru)
	linalg.PutMat(rv)
	u, v, ok = roundCore(core, tol, maxRank, func(x1, x2, u, v *linalg.Matrix) {
		qu.ApplyQInto(x1, u)
		qv.ApplyQInto(x2, v)
	}, m, n)
	linalg.PutVec(&tauU)
	linalg.PutVec(&tauV)
	return u, v, ok
}

// roundCore finishes RoundLR on the small core of the orthonormalized
// panels, which it recycles: a thin SVD truncated at tol (capped at maxRank),
// then apply maps x1 — the kept left vectors scaled by their singular
// values — and x2 — the kept right vectors — through the panels' bases into
// the m×k and n×k factors.
func roundCore(core *linalg.Matrix, tol float64, maxRank int, apply func(x1, x2, u, v *linalg.Matrix), m, n int) (u, v *linalg.Matrix, ok bool) {
	sv, ok := svdPooled(core)
	if !ok {
		linalg.PutMat(core)
		return nil, nil, false
	}
	if k := sv.truncate(tol, 0, maxRank); k > 0 {
		x1 := linalg.GetMat(core.Rows, k)
		x2 := linalg.GetMat(core.Cols, k)
		sv.leftScaledInto(x1, k)
		sv.rightInto(x2, k)
		u = linalg.GetMat(m, k)
		v = linalg.GetMat(n, k)
		apply(x1, x2, u, v)
		linalg.PutMat(x1)
		linalg.PutMat(x2)
	}
	sv.release()
	linalg.PutMat(core)
	return u, v, true
}

// shiftedChol factorizes the Gram matrix g after adding the standard
// shifted-CholQR regularization δ·I with δ = 1e-12·tr(G). Concatenated
// low-rank panels are routinely numerically rank-deficient (the Schur
// updates largely live in the span of the existing factors), so the plain
// Gram Cholesky breaks down; the shift keeps every pivot ≥ δ while the
// factorization identity B = (B·L̃⁻ᵀ)·L̃ᵀ stays EXACT for any nonsingular
// L̃ — the shift only injects spurious spectrum of size ~√(δ·tr) ≈
// 1e-6·‖B‖, far below the gated tolerances, which the core SVD truncates.
func shiftedChol(g *linalg.Matrix) bool {
	tr := 0.0
	for i := 0; i < g.Rows; i++ {
		tr += g.At(i, i)
	}
	shift := 1e-12 * tr
	for i := 0; i < g.Rows; i++ {
		g.Add(i, i, shift)
	}
	return linalg.PotrfUnblocked(g) == nil
}

// cholQRCore is the level-3 orthogonalization: B = Q̃·L̃ᵀ with
// L̃ = chol(BᵀB + δI), so Q̃ = B·L̃⁻ᵀ materializes via SYRK + TRSM in place of
// each panel, and the core Ru·Rvᵀ = L̃uᵀ·L̃v is returned, pooled. It returns
// nil — leaving the inputs intact — when a shifted Gram factorization still
// breaks down (essentially never) or the panels are too short for a
// nonsingular Gram.
func cholQRCore(bigU, bigV *linalg.Matrix) *linalg.Matrix {
	m, n, ku := bigU.Rows, bigV.Rows, bigU.Cols
	if ku > m || ku > n {
		return nil
	}
	gu := linalg.GetMat(ku, ku)
	linalg.Syrk(true, 1, bigU, 0, gu)
	if !shiftedChol(gu) {
		linalg.PutMat(gu)
		return nil
	}
	gv := linalg.GetMat(ku, ku)
	linalg.Syrk(true, 1, bigV, 0, gv)
	if !shiftedChol(gv) {
		linalg.PutMat(gv)
		linalg.PutMat(gu)
		return nil
	}
	// SYRK only writes the lower triangles; clear the junk above the
	// diagonal before level-3 ops touch the full matrices.
	gu.LowerFromFull()
	gv.LowerFromFull()
	core := linalg.GetMat(ku, ku)
	linalg.Gemm(true, false, 1, gu, gv, 0, core)
	// Orthonormalize the panels in place: Q = B·L⁻ᵀ.
	linalg.TrsmLower(linalg.Right, true, 1, gu, bigU)
	linalg.TrsmLower(linalg.Right, true, 1, gv, bigV)
	linalg.PutMat(gu)
	linalg.PutMat(gv)
	return core
}

// ApplyRightTransPacked computes c = alpha·b·(U·Vᵀ)ᵀ + beta·c = alpha·(b·V)·Uᵀ
// + beta·c without densifying the tile — the cheap level-3 form the TLR PMVN
// propagation applies (paper Algorithm 2, lines 11–12), in the lane-major
// (chains × rows) layout of the chain-blocked sweep. b is the sweep's packed
// Y tile: the tile-wide b·V product reads it in place and only the rank-wide
// W·Uᵀ product packs anything. A rank-0 tile still applies the beta scaling
// (beta = 0 fully defines c, even over uninitialized scratch).
func (t *LowRank) ApplyRightTransPacked(alpha float64, b linalg.PackedA, beta float64, c *linalg.Matrix) {
	k := t.Rank()
	if k == 0 {
		c.Scale(beta)
		return
	}
	w := linalg.GetMat(b.M, k)
	linalg.GemmPackedA(1, b, false, t.V, 0, w)
	linalg.Gemm(false, true, alpha, w, t.U, beta, c)
	linalg.PutMat(w)
}

// ApplyRightTrans is ApplyRightTransPacked for an unpacked b: it packs b into
// pooled scratch and applies.
func (t *LowRank) ApplyRightTrans(alpha float64, b *linalg.Matrix, beta float64, c *linalg.Matrix) {
	buf := linalg.GetVec(linalg.PackedLen(b.Rows, b.Cols))
	p := linalg.PackedOver(buf, b.Rows, b.Cols)
	p.Pack(b, 0)
	t.ApplyRightTransPacked(alpha, p, beta, c)
	linalg.PutVec(&buf)
}

// bench/probes.go times these by these signatures, and a change that claims
// a gain may not edit bench/: a refactor that moves one of them must fail
// here, at build time, not in the benchmark.
var (
	_ func(*LowRank, float64, *linalg.Matrix, float64, *linalg.Matrix)                   = (*LowRank).ApplyRightTrans
	_ func(*LowRank, float64, *linalg.Matrix, *linalg.Matrix, float64, int)              = (*LowRank).AddLowRank
	_ func(bool, bool, float64, *linalg.Matrix, *linalg.Matrix, float64, *linalg.Matrix) = linalg.Gemm
)
