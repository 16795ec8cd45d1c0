package linalg

// Cache-blocked, register-tiled BLAS-3 kernels in the GotoBLAS/BLIS style:
// operands are packed into contiguous panels drawn from the workspace pool,
// and the innermost computation is an mrReg×nrReg register micro-kernel that
// amortizes every packed load over nrReg (resp. mrReg) fused multiply-adds.
// This is the layer that plays the role of the optimized vendor BLAS under
// Chameleon and HiCMA in the paper: the tile kernels of every factorization
// and the propagation of every sweep route through it.
//
// One micro-kernel contract, three implementations. A micro-kernel computes
//
//	C[i, j] += alpha · Σ_l ap[l·mrReg + i] · bp[l·nrReg + j]
//
// for one full mrReg×nrReg tile, written straight into C: each element is one
// depth-ordered sum from zero, multiplied by alpha, then added to C — a
// multiply and an add, not a fused one, so that the three implementations and
// the masked loop of the ragged edges round alike. AVX-512 (12 ZMM
// accumulators), AVX2+FMA (the 8×6 YMM body over each half of the panel) and
// portable Go all read the SAME packed layout, so there is one packA, one
// macro-kernel and one PackedA whatever the host; kernelISA picks among them
// once, at start-up (kern_amd64.go).
//
// Packed layouts, and who owns them. A packed A block is a run of mrReg-row
// micro-panels, panel[l·mrReg + i] = op(A)[row0+i, l], rows past the operand
// zero; a packed B block is a run of nrReg-column micro-panels,
// panel[l·nrReg + j] = op(B)[l, col0+j], padded the same way. Gemm and its
// siblings own both for the duration of one call: gemmBlocked draws an
// mcBlk×kcBlk A buffer and a kcBlk×ncBlk B buffer from the workspace pool,
// refills them block by block and returns them. Two operands outlive a call
// instead, both in packed.go, both views over a buffer their CALLER owns.
// PackedA is the A layout over a whole m×k operand with the panel stride as
// a field: the SOV sweep (internal/mvn) keeps one per row tile of its
// conditioning values Y — written once by the diagonal kernel, sub-block by
// sub-block, then read in place by every later row tile's propagation —
// inside one pooled buffer per lane block. PackedB is the B layout of an
// operand Bᵀ over exactly B's own n·k elements, the ragged panel stored
// compact: a finished factor's dense off-diagonal tiles are re-laid into it
// once, in place (mvn.NewFactor), so the propagation (GemmPackedAB) reads
// both operands in micro-kernel order and packs neither, and the cached
// factor stays at its own size.
//
// Panel blocking parameters. A kcBlk×nrReg B micro-panel stays in L1 while
// the mrReg×kcBlk A micro-panels stream past it; an mcBlk×kcBlk packed A
// block is meant to stay L2-resident while the macro-kernel sweeps the packed
// B panels over it. kcBlk is also the length of one rounding chain: changing
// it moves the low bits of every product deeper than it.
const (
	mrReg = 16  // micro-kernel rows: one 128-byte depth step of a packed A panel
	nrReg = 6   // micro-kernel cols (register tile width)
	kcBlk = 256 // packed panel depth
	mcBlk = 128 // packed A block rows (multiple of mrReg)
	ncBlk = 504 // packed B block cols (multiple of nrReg)

	// gemmNaiveCutoff routes tiny products (rank-k cores of the low-rank
	// arithmetic, boundary slivers) to the unpacked kernel, whose constant
	// factor is smaller than pack-and-micro-kernel below ~20³ flops.
	gemmNaiveCutoff = 8192
)

// The micro-kernel implementations, in the order cpuKernelLevel counts them.
const (
	isaGo = iota
	isaAVX2
	isaAVX512
)

// HasVectorKernels reports whether the packed kernels run on a native
// vector micro-kernel (AVX2+FMA at least). When false, the public dispatchers
// keep the historical unpacked loops, which beat packing overhead without
// vector FMA underneath.
func HasVectorKernels() bool { return hasVectorKernels }

// gemmBlocked computes C += alpha·op(A)·op(B) for the already-validated,
// beta-scaled destination: the five-loop packed algorithm. m, n, k are the
// logical op() dimensions.
func gemmBlocked(transA, transB bool, alpha float64, a, b *Matrix, c *Matrix, m, n, k int) {
	apack := GetVec(mcBlk * kcBlk)
	bpack := GetVec(kcBlk * ncBlk)
	for jc := 0; jc < n; jc += ncBlk {
		nc := min(ncBlk, n-jc)
		for pc := 0; pc < k; pc += kcBlk {
			kcc := min(kcBlk, k-pc)
			packB(transB, b, bpack, pc, jc, kcc, nc)
			for ic := 0; ic < m; ic += mcBlk {
				mcc := min(mcBlk, m-ic)
				packA(transA, a, apack, ic, pc, mcc, kcc)
				macroKernel(kcc, apack, mrReg*kcc, bpack, c, ic, jc, mcc, nc, alpha)
			}
		}
	}
	PutVec(&bpack)
	PutVec(&apack)
}

// macroKernel sweeps the packed B panels of one (jc,pc) block over an
// mcc-row block of packed A: C[ic:ic+mcc, jc:jc+nc] += alpha·A·B. The A
// micro-panels sit aStride apart in ap — mrReg·kcc for a block packA just
// filled, the owner's panel stride for a resident PackedA.
func macroKernel(kcc int, ap []float64, aStride int, bpack []float64, c *Matrix, ic, jc, mcc, nc int, alpha float64) {
	for jr := 0; jr < nc; jr += nrReg {
		cols := min(nrReg, nc-jr)
		bp := bpack[jr*kcc:]
		for ir := 0; ir < mcc; ir += mrReg {
			rows := min(mrReg, mcc-ir)
			microKernel(kcc, ap[ir/mrReg*aStride:], bp, c, ic+ir, jc+jr, rows, cols, alpha)
		}
	}
}

// packA packs the mcc×kcc block of op(A) at (ic,pc) into mrReg-row
// micro-panels: dst[panel·(mrReg·kcc) + l·mrReg + i] = op(A)[ic+ip+i, pc+l].
// Ragged bottom panels are zero-padded so the micro-kernel never branches on
// the depth loop.
func packA(transA bool, a *Matrix, dst []float64, ic, pc, mcc, kcc int) {
	for ip := 0; ip < mcc; ip += mrReg {
		rows := min(mrReg, mcc-ip)
		panel := dst[ip*kcc : ip*kcc+mrReg*kcc]
		if !transA {
			if rows == mrReg {
				for l := 0; l < kcc; l++ {
					src := a.Col(pc + l)[ic+ip:]
					copy(panel[l*mrReg:l*mrReg+mrReg], src[:mrReg])
				}
			} else {
				for l := 0; l < kcc; l++ {
					src := a.Col(pc + l)[ic+ip:]
					o := l * mrReg
					for i := 0; i < rows; i++ {
						panel[o+i] = src[i]
					}
					for i := rows; i < mrReg; i++ {
						panel[o+i] = 0
					}
				}
			}
		} else {
			// op(A)[i,l] = A[l,i]: each micro-panel row i streams column
			// ic+ip+i of A, stride 1 along l.
			for i := 0; i < rows; i++ {
				src := a.Col(ic + ip + i)[pc:]
				for l := 0; l < kcc; l++ {
					panel[l*mrReg+i] = src[l]
				}
			}
			for i := rows; i < mrReg; i++ {
				for l := 0; l < kcc; l++ {
					panel[l*mrReg+i] = 0
				}
			}
		}
	}
}

// packB packs the kcc×nc block of op(B) at (pc,jc) into nrReg-column
// micro-panels: dst[panel·(nrReg·kcc) + l·nrReg + j] = op(B)[pc+l, jc+jp+j],
// zero-padding ragged right panels.
func packB(transB bool, b *Matrix, dst []float64, pc, jc, kcc, nc int) {
	if transB {
		packBTrans(b, dst, pc, jc, kcc, nc)
		return
	}
	for jp := 0; jp < nc; jp += nrReg {
		cols := min(nrReg, nc-jp)
		panel := dst[jp*kcc : jp*kcc+nrReg*kcc]
		for j := 0; j < cols; j++ {
			src := b.Data[(jc+jp+j)*b.Stride+pc:]
			for l := 0; l < kcc; l++ {
				panel[l*nrReg+j] = src[l]
			}
		}
		for j := cols; j < nrReg; j++ {
			for l := 0; l < kcc; l++ {
				panel[l*nrReg+j] = 0
			}
		}
	}
}

// packBGroup is how many micro-panels packBTrans fills in one pass over the
// source columns: 8 panels are 48 consecutive elements of a column, six whole
// cache lines, and few enough write streams to stay in L1 although the
// panels lie a multiple of the L1 way size apart.
const packBGroup = 8 * nrReg

// packBTrans is packB for op(B) = Bᵀ, op(B)[l,j] = B[j,l]: depth step l of
// every panel comes from column pc+l of B, rows jc…jc+nc−1 at stride 1. A
// group of panels is filled in one pass over the columns, so every source
// cache line is read once, whole — the factor tiles the sweep multiplies by
// arrive cache-cold, and a panel-at-a-time walk fetched each line again for
// the next panel.
func packBTrans(b *Matrix, dst []float64, pc, jc, kcc, nc int) {
	full := nc / nrReg * nrReg
	for g0 := 0; g0 < full; g0 += packBGroup {
		g1 := min(g0+packBGroup, full)
		for l := 0; l < kcc; l++ {
			src := b.Data[(pc+l)*b.Stride+jc:]
			o := l * nrReg
			for jp := g0; jp < g1; jp += nrReg {
				s := src[jp : jp+nrReg : jp+nrReg]
				d := dst[jp*kcc+o : jp*kcc+o+nrReg : jp*kcc+o+nrReg]
				d[0], d[1], d[2], d[3], d[4], d[5] = s[0], s[1], s[2], s[3], s[4], s[5]
			}
		}
	}
	if rem := nc - full; rem > 0 {
		for l := 0; l < kcc; l++ {
			src := b.Data[(pc+l)*b.Stride+jc+full:]
			o := full*kcc + l*nrReg
			d := dst[o : o+nrReg]
			for j := range d {
				if j < rem {
					d[j] = src[j]
				} else {
					d[j] = 0
				}
			}
		}
	}
}

// microKernel accumulates one register tile: C[i0:i0+rows, j0:j0+cols] +=
// alpha·Σ_l a_l·b_lᵀ over the packed micro-panels. A full tile is written by
// the micro-kernel itself, straight into C; only a full tile may be, because
// the native kernels store all mrReg×nrReg elements unmasked. A ragged edge
// tile (the packed operands are zero-padded there) runs the same kernel with
// alpha 1 into zeroed stack scratch — 0 + 1·t is t exactly — and the masked
// loop below does the mul-then-add, so an element's value does not depend on
// which side of an edge it lies.
func microKernel(kcc int, ap, bp []float64, c *Matrix, i0, j0, rows, cols int, alpha float64) {
	if rows == mrReg && cols == nrReg {
		microF64(kcc, ap, bp, c.Data[j0*c.Stride+i0:], c.Stride, alpha)
		return
	}
	var acc [mrReg * nrReg]float64
	microF64(kcc, ap, bp, acc[:], mrReg, 1)
	for j := 0; j < cols; j++ {
		cc := c.Col(j0 + j)[i0:]
		t := acc[j*mrReg:]
		for i := 0; i < rows; i++ {
			cc[i] += alpha * t[i]
		}
	}
}

// microF64Go is the portable micro-kernel: the same contract as the native
// ones (the tile of C at c, ldc between columns, += alpha·Σ_l a_l·b_lᵀ, one
// depth-ordered sum per element, then multiply, then add), two rows at a time
// to stay within scalar registers.
func microF64Go(kcc int, ap, bp, c []float64, ldc int, alpha float64) {
	for i := 0; i < mrReg; i += 2 {
		var c00, c01, c02, c03, c04, c05 float64
		var c10, c11, c12, c13, c14, c15 float64
		for l := 0; l < kcc; l++ {
			a0, a1 := ap[l*mrReg+i], ap[l*mrReg+i+1]
			ob := l * nrReg
			b0, b1, b2 := bp[ob], bp[ob+1], bp[ob+2]
			b3, b4, b5 := bp[ob+3], bp[ob+4], bp[ob+5]
			c00 += a0 * b0
			c10 += a1 * b0
			c01 += a0 * b1
			c11 += a1 * b1
			c02 += a0 * b2
			c12 += a1 * b2
			c03 += a0 * b3
			c13 += a1 * b3
			c04 += a0 * b4
			c14 += a1 * b4
			c05 += a0 * b5
			c15 += a1 * b5
		}
		t := [nrReg][2]float64{{c00, c10}, {c01, c11}, {c02, c12}, {c03, c13}, {c04, c14}, {c05, c15}}
		for j := range t {
			cc := c[j*ldc+i : j*ldc+i+2]
			cc[0] += alpha * t[j][0]
			cc[1] += alpha * t[j][1]
		}
	}
}

// syrkBlockSize partitions SYRK destinations: off-diagonal blocks go through
// the full blocked GEMM, diagonal blocks through a scratch product.
const syrkBlockSize = 64

// syrkBlocked computes the lower triangle of C += alpha·op(A)·op(A)ᵀ for the
// already beta-scaled destination, n the order of C and k the contraction
// depth. Off-diagonal blocks are plain blocked GEMMs; a diagonal block is
// formed fully into pooled scratch (its strict upper half is redundant work,
// bounded by the block size) and its lower triangle accumulated.
func syrkBlocked(trans bool, alpha float64, a *Matrix, c *Matrix, n, k int) {
	syrkBlockedTile(trans, alpha, a, c, n, k, 0, n, 0, n)
}

// syrkBlockedTile is syrkBlocked on its blocks within rows [i0, i1) and
// columns [j0, j1), all four on block boundaries (or at n). Every block is
// computed on its own, so the blocks of a tile get the whole call's bits.
// Off-diagonal blocks that would each take the packed kernel are run as one
// GEMM over their union: a packed element's bits do not depend on the block
// it is computed in, and the operands are packed once instead of per block.
func syrkBlockedTile(trans bool, alpha float64, a *Matrix, c *Matrix, n, k, i0, i1, j0, j1 int) {
	opView := func(i0, rows int) *Matrix {
		if trans {
			return a.View(0, i0, k, rows)
		}
		return a.View(i0, 0, rows, k)
	}
	ta, tb := false, true // op(A_I)·op(A_J)ᵀ = A_I·A_Jᵀ
	if trans {
		ta, tb = true, false // … = A_Iᵀ·A_J
	}
	// offDiag runs the blocks of rows [r0, r1) × columns [c0, c1), all below
	// the diagonal. The smallest block of a range is its ragged last one.
	offDiag := func(r0, r1, c0, c1 int) {
		if r0 >= r1 || c0 >= c1 {
			return
		}
		minBlock := func(lo, hi int) int {
			if r := (hi - lo) % syrkBlockSize; r != 0 {
				return r
			}
			return syrkBlockSize
		}
		if minBlock(r0, r1)*minBlock(c0, c1)*k > gemmNaiveCutoff {
			gemmBlocked(ta, tb, alpha, opView(r0, r1-r0), opView(c0, c1-c0), c.View(r0, c0, r1-r0, c1-c0), r1-r0, c1-c0, k)
			return
		}
		for jb := c0; jb < c1; jb += syrkBlockSize {
			jn := min(syrkBlockSize, n-jb)
			for ib := r0; ib < r1; ib += syrkBlockSize {
				in := min(syrkBlockSize, n-ib)
				gemmAny(ta, tb, alpha, opView(ib, in), opView(jb, jn), c.View(ib, jb, in, jn), in, jn, k, false)
			}
		}
	}
	if i0 >= j1 {
		offDiag(i0, i1, j0, j1)
		return
	}
	for jb := j0; jb < j1; jb += syrkBlockSize {
		jn := min(syrkBlockSize, n-jb)
		ib := max(jb, i0)
		if ib == jb && jb < i1 {
			// Diagonal block: full product into scratch, fold in the triangle.
			aj := opView(jb, jn)
			s := GetMat(jn, jn)
			gemmAny(ta, tb, alpha, aj, aj, s, jn, jn, k, true)
			cv := c.View(jb, jb, jn, jn)
			for j := 0; j < jn; j++ {
				sc, cc := s.Col(j), cv.Col(j)
				for i := j; i < jn; i++ {
					cc[i] += sc[i]
				}
			}
			PutMat(s)
			ib += jn
		}
		offDiag(ib, i1, jb, jb+jn)
	}
}

// gemmAny routes a validated C += alpha·op(A)·op(B) (or = when zero is set)
// to the packed or naive kernel by problem volume and kernel availability.
func gemmAny(transA, transB bool, alpha float64, a, b, c *Matrix, m, n, k int, zero bool) {
	if zero {
		c.Zero()
	}
	gemmPart(transA, transB, alpha, a, b, c, m, n, k)
}

// gemmPart is gemmAny's accumulation for c a part of the product of an
// m-row op(A) and an n-column op(B): the kernel is picked by that whole
// shape, so c's elements get the whole product's bits.
func gemmPart(transA, transB bool, alpha float64, a, b, c *Matrix, m, n, k int) {
	if alpha == 0 || k == 0 || c.Rows == 0 || c.Cols == 0 {
		return
	}
	if !hasVectorKernels || m*n*k <= gemmNaiveCutoff {
		gemmNaiveVec(transA, transB, alpha, a, b, c, c.Rows, c.Cols, k, vecLen(m))
		return
	}
	gemmBlocked(transA, transB, alpha, a, b, c, c.Rows, c.Cols, k)
}

// trsmBlockSize partitions blocked triangular solves; diagonal blocks run
// the unblocked substitution, off-diagonal updates are blocked GEMMs.
const trsmBlockSize = 32

// trsmLowerBlocked solves the four lower-triangular variants blockwise,
// right-looking: each diagonal block is an unblocked substitution, and the
// bulk of the work — the trailing updates — becomes level-3 GEMM calls.
// A part of a right-hand side of wr rows and wc columns passes them, so its
// GEMMs are picked as the whole solve's are.
func trsmLowerBlocked(side TrsmSide, trans bool, l, b *Matrix, wr, wc int) {
	n := l.Rows
	nb := trsmBlockSize
	switch {
	case side == Left && !trans:
		// L·X = B, forward: after solving block K, eliminate it from the
		// rows below.
		for kb := 0; kb < n; kb += nb {
			kn := min(nb, n-kb)
			xk := b.View(kb, 0, kn, b.Cols)
			trsmLowerUnblockedVec(Left, false, l.View(kb, kb, kn, kn), xk, vecLen(wr))
			if rem := n - kb - kn; rem > 0 {
				gemmPart(false, false, -1, l.View(kb+kn, kb, rem, kn), xk,
					b.View(kb+kn, 0, rem, b.Cols), rem, wc, kn)
			}
		}
	case side == Left && trans:
		// Lᵀ·X = B, backward: block K depends on the blocks below it.
		for kb := ((n - 1) / nb) * nb; kb >= 0; kb -= nb {
			kn := min(nb, n-kb)
			xk := b.View(kb, 0, kn, b.Cols)
			if rem := n - kb - kn; rem > 0 {
				gemmPart(true, false, -1, l.View(kb+kn, kb, rem, kn),
					b.View(kb+kn, 0, rem, b.Cols), xk, kn, wc, rem)
			}
			trsmLowerUnblockedVec(Left, true, l.View(kb, kb, kn, kn), xk, vecLen(wr))
		}
	case side == Right && !trans:
		// X·L = B: block column J depends on the columns right of it.
		for jb := ((n - 1) / nb) * nb; jb >= 0; jb -= nb {
			jn := min(nb, n-jb)
			xj := b.View(0, jb, b.Rows, jn)
			if rem := n - jb - jn; rem > 0 {
				gemmPart(false, false, -1, b.View(0, jb+jn, b.Rows, rem),
					l.View(jb+jn, jb, rem, jn), xj, wr, jn, rem)
			}
			trsmLowerUnblockedVec(Right, false, l.View(jb, jb, jn, jn), xj, vecLen(wr))
		}
	default: // side == Right && trans
		// X·Lᵀ = B: block column J depends on the columns left of it;
		// right-looking, eliminate X_J from the columns to its right.
		for jb := 0; jb < n; jb += nb {
			jn := min(nb, n-jb)
			xj := b.View(0, jb, b.Rows, jn)
			trsmLowerUnblockedVec(Right, true, l.View(jb, jb, jn, jn), xj, vecLen(wr))
			if rem := n - jb - jn; rem > 0 {
				gemmPart(false, true, -1, xj, l.View(jb+jn, jb, rem, jn),
					b.View(0, jb+jn, b.Rows, rem), wr, rem, jn)
			}
		}
	}
}
