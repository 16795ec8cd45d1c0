package linalg

import "fmt"

// PackedA is an m×k left GEMM operand kept in micro-kernel order for as long
// as its owner holds it, so that a matrix multiplied many times is packed
// once: ⌈m/mrReg⌉ row panels, panel p holding rows p·mrReg… of every depth
// step back to back,
//
//	Data[p·Stride + l·mrReg + i] = A[p·mrReg+i, l],
//
// rows past M zero. Panels lie Stride ≥ mrReg·K apart, so a depth range of a
// packed operand is a packed operand over the same storage (Cols). A PackedA
// is a view: whoever supplied the buffer owns it.
type PackedA struct {
	Data   []float64
	M, K   int
	Stride int
}

// PackedLen returns the buffer length an m×k PackedA needs.
func PackedLen(m, k int) int { return (m + mrReg - 1) / mrReg * mrReg * k }

// PackedOver lays an m×k PackedA over buf (len ≥ PackedLen(m, k)); its
// contents are whatever buf held until Pack fills them.
func PackedOver(buf []float64, m, k int) PackedA {
	return PackedA{Data: buf[:PackedLen(m, k)], M: m, K: k, Stride: mrReg * k}
}

// Cols returns depth steps l0…l0+k−1 of p as an operand sharing p's storage.
func (p PackedA) Cols(l0, k int) PackedA {
	if l0 < 0 || k < 0 || l0+k > p.K {
		panic(fmt.Sprintf("linalg: packed cols [%d,%d) out of %d", l0, l0+k, p.K))
	}
	return PackedA{Data: p.Data[l0*mrReg:], M: p.M, K: k, Stride: p.Stride}
}

// Pack fills p from columns j0…j0+K−1 of a (a.Rows == M).
func (p PackedA) Pack(a *Matrix, j0 int) {
	if a.Rows != p.M || j0 < 0 || j0+p.K > a.Cols {
		panic(fmt.Sprintf("linalg: Pack %dx%d from columns [%d,%d) of %dx%d", p.M, p.K, j0, j0+p.K, a.Rows, a.Cols))
	}
	for ip := 0; ip < p.M; ip += mrReg {
		packA(false, a, p.Data[ip/mrReg*p.Stride:], ip, j0, min(mrReg, p.M-ip), p.K)
	}
}

// GemmPackedA computes C = alpha·A·op(B) + beta·C with A already packed: Gemm
// without its packA pass. Every shape runs the packed kernel — on the
// portable micro-kernel when the vector one is off — because the unpacked
// loops need A's columns at stride 1, which a packed operand does not have.
func GemmPackedA(alpha float64, a PackedA, transB bool, b *Matrix, beta float64, c *Matrix) {
	m, k := a.M, a.K
	kb, n := b.Rows, b.Cols
	if transB {
		kb, n = n, kb
	}
	if k != kb || c.Rows != m || c.Cols != n {
		panic(fmt.Sprintf("linalg: GemmPackedA shape mismatch: A=%dx%d op(B)=%dx%d C=%dx%d", m, k, kb, n, c.Rows, c.Cols))
	}
	c.Scale(beta)
	if alpha == 0 || k == 0 {
		return
	}
	bpack := GetVec(kcBlk * ncBlk)
	for jc := 0; jc < n; jc += ncBlk {
		nc := min(ncBlk, n-jc)
		for pc := 0; pc < k; pc += kcBlk {
			kcc := min(kcBlk, k-pc)
			packB(transB, b, bpack, pc, jc, kcc, nc)
			for ic := 0; ic < m; ic += mcBlk {
				macroKernel(kcc, a.Data[ic/mrReg*a.Stride+pc*mrReg:], a.Stride, bpack, c, ic, jc, min(mcBlk, m-ic), nc, alpha)
			}
		}
	}
	PutVec(&bpack)
}

// PackedB is an n×k matrix B held as the right operand of C = A·Bᵀ in the
// micro-kernel order GemmPackedA(…, transB=true, B) would pack it into on
// every call, so an operand applied many times — a factor tile the sweep
// multiplies into every lane block — is packed once. The blocks follow that
// walk: jc over B's rows in ncBlk steps, pc over its columns in kcBlk steps,
// block (jc, pc) at offset jc·K + pc·nc (nc = min(ncBlk, N−jc), kcc =
// min(kcBlk, K−pc)). A block holds ⌊nc/nrReg⌋ full micro-panels,
//
//	Data[off + p·nrReg·kcc + l·nrReg + j] = B[jc+p·nrReg+j, pc+l],
//
// then the rem = nc mod nrReg rows left over, stored compact:
//
//	Data[off + full·kcc + l·rem + j] = B[jc+full+j, pc+l].
//
// The payload is exactly N·K whatever the shape; GemmPackedAB widens the
// ragged panel into zero-padded scratch per product. A PackedB is a view:
// whoever supplied the buffer owns it.
type PackedB struct {
	Data []float64
	N, K int
}

// PackBInto lays the n×k column-major matrix src (ld elements between
// columns) into dst[:n·k] in PackedB order.
func PackBInto(dst, src []float64, ld, n, k int) PackedB {
	p := PackedB{Data: dst[:n*k], N: n, K: k}
	for jc := 0; jc < n; jc += ncBlk {
		nc := min(ncBlk, n-jc)
		full := nc / nrReg * nrReg
		rem := nc - full
		for pc := 0; pc < k; pc += kcBlk {
			kcc := min(kcBlk, k-pc)
			blk := p.Data[jc*k+pc*nc : jc*k+pc*nc+nc*kcc]
			// packBTrans's grouping: a few panels per pass over the columns.
			for g0 := 0; g0 < full; g0 += packBGroup {
				g1 := min(g0+packBGroup, full)
				for l := 0; l < kcc; l++ {
					col := src[(pc+l)*ld+jc+g0 : (pc+l)*ld+jc+g1]
					for jp := g0; jp < g1; jp += nrReg {
						copy(blk[jp*kcc+l*nrReg:jp*kcc+l*nrReg+nrReg], col[jp-g0:jp-g0+nrReg])
					}
				}
			}
			for l := 0; l < kcc; l++ {
				copy(blk[full*kcc+l*rem:full*kcc+l*rem+rem], src[(pc+l)*ld+jc+full:(pc+l)*ld+jc+nc])
			}
		}
	}
	return p
}

// PackBInPlace re-lays b into PackedB order over b's own storage (its first
// Rows·Cols elements) and returns the operand; b must not be read as a
// matrix afterwards. The old layout passes through one pooled scratch copy.
func PackBInPlace(b *Matrix) PackedB {
	n, k := b.Rows, b.Cols
	tmp := GetVec(n * k)
	for j := 0; j < k; j++ {
		copy(tmp[j*n:j*n+n], b.Col(j))
	}
	p := PackBInto(b.Data, tmp, n, n, k)
	PutVec(&tmp)
	return p
}

// UnpackInto writes B back into the n×k matrix dst, column-major: the one
// way out of PackedB order.
func (p PackedB) UnpackInto(dst *Matrix) {
	if dst.Rows != p.N || dst.Cols != p.K {
		panic(fmt.Sprintf("linalg: UnpackInto %dx%d into %dx%d", p.N, p.K, dst.Rows, dst.Cols))
	}
	n, k := p.N, p.K
	for jc := 0; jc < n; jc += ncBlk {
		nc := min(ncBlk, n-jc)
		full := nc / nrReg * nrReg
		rem := nc - full
		for pc := 0; pc < k; pc += kcBlk {
			kcc := min(kcBlk, k-pc)
			blk := p.Data[jc*k+pc*nc : jc*k+pc*nc+nc*kcc]
			for l := 0; l < kcc; l++ {
				col := dst.Col(pc + l)[jc : jc+nc]
				for jp := 0; jp < full; jp += nrReg {
					copy(col[jp:jp+nrReg], blk[jp*kcc+l*nrReg:jp*kcc+l*nrReg+nrReg])
				}
				copy(col[full:], blk[full*kcc+l*rem:full*kcc+l*rem+rem])
			}
		}
	}
}

// GemmPackedAB computes C = alpha·A·Bᵀ + beta·C with both operands packed:
// GemmPackedA(alpha, a, true, B, beta, c) without its packB pass, and with
// its bits — the full micro-panels are read in place, and a ragged one is
// widened into pooled scratch holding what packBTrans would have written
// there, zeros included.
func GemmPackedAB(alpha float64, a PackedA, b PackedB, beta float64, c *Matrix) {
	m, k, n := a.M, a.K, b.N
	if b.K != k || c.Rows != m || c.Cols != n {
		panic(fmt.Sprintf("linalg: GemmPackedAB shape mismatch: A=%dx%d Bᵀ=%dx%d C=%dx%d", m, k, b.K, n, c.Rows, c.Cols))
	}
	c.Scale(beta)
	if alpha == 0 || k == 0 {
		return
	}
	var wide []float64
	if n%nrReg != 0 {
		wide = GetVec(nrReg * min(k, kcBlk))
	}
	for jc := 0; jc < n; jc += ncBlk {
		nc := min(ncBlk, n-jc)
		full := nc / nrReg * nrReg
		for pc := 0; pc < k; pc += kcBlk {
			kcc := min(kcBlk, k-pc)
			blk := b.Data[jc*k+pc*nc : jc*k+pc*nc+nc*kcc]
			if full < nc {
				widenPanel(wide[:nrReg*kcc], blk[full*kcc:], nc-full)
			}
			for ic := 0; ic < m; ic += mcBlk {
				mcc := min(mcBlk, m-ic)
				ap := a.Data[ic/mrReg*a.Stride+pc*mrReg:]
				macroKernel(kcc, ap, a.Stride, blk, c, ic, jc, mcc, full, alpha)
				if full < nc {
					macroKernel(kcc, ap, a.Stride, wide, c, ic, jc+full, mcc, nc-full, alpha)
				}
			}
		}
	}
	PutVec(&wide)
}

// widenPanel spreads a compact ragged panel (rem values a depth step) into
// the nrReg-wide micro-panel dst, zero past rem.
func widenPanel(dst, src []float64, rem int) {
	for l := 0; l < len(dst)/nrReg; l++ {
		d := dst[l*nrReg : l*nrReg+nrReg]
		s := src[l*rem : l*rem+rem]
		for j := range d {
			if j < len(s) {
				d[j] = s[j]
			} else {
				d[j] = 0
			}
		}
	}
}
