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
