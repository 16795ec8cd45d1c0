package tile

import "repro/internal/linalg"

// Matrix32 is a dense column-major float32 matrix (the single-precision
// mirror of linalg.Matrix), the storage behind DenseF32 tiles.
type Matrix32 struct {
	Rows, Cols int
	Data       []float32 // len Rows*Cols, column-major, stride = Rows
}

// NewMatrix32 returns a zeroed r×c float32 matrix.
func NewMatrix32(r, c int) *Matrix32 {
	return &Matrix32{Rows: r, Cols: c, Data: make([]float32, r*c)}
}

// At returns element (i,j).
func (m *Matrix32) At(i, j int) float32 { return m.Data[i+j*m.Rows] }

// Set assigns element (i,j).
func (m *Matrix32) Set(i, j int, v float32) { m.Data[i+j*m.Rows] = v }

// Col returns column j.
func (m *Matrix32) Col(j int) []float32 { return m.Data[j*m.Rows : (j+1)*m.Rows] }

// Gemm32 computes C += alpha·A·Bᵀ in float32, the one product the Cholesky
// update and the panel solve need. Large products run through linalg's
// packed single-precision micro-kernel when the platform has one.
func Gemm32(alpha float32, a, b, c *Matrix32) {
	if a.Cols != b.Cols || c.Rows != a.Rows || c.Cols != b.Rows {
		panic("tile: Gemm32 shape mismatch")
	}
	m, n, k := c.Rows, c.Cols, a.Cols
	if alpha == 0 || k == 0 || m == 0 || n == 0 {
		return
	}
	if linalg.HasVectorKernels() && m*n*k > 8192 {
		gemm32Blocked(alpha, a, b, c, m, n, k)
		return
	}
	gemm32Naive(alpha, a, b, c)
}

// gemm32Naive is the historical unpacked float32 kernel, the reference for
// the blocked path and the small-product fast path.
func gemm32Naive(alpha float32, a, b, c *Matrix32) {
	for l := 0; l < a.Cols; l++ {
		ac, bc := a.Col(l), b.Col(l)
		for j := 0; j < c.Cols; j++ {
			v := alpha * bc[j]
			if v == 0 {
				continue
			}
			cc := c.Col(j)
			for i := range cc {
				cc[i] += v * ac[i]
			}
		}
	}
}

// f32 packed-panel blocking; the micro-tile is linalg's (one layout under
// every ISA, as in float64).
const (
	mr32 = linalg.MrF32
	nr32 = linalg.NrF32
	kc32 = 256
	mc32 = 128
	nc32 = 504
)

// gemm32Blocked is the packed single-precision driver: identical structure
// to the float64 path in linalg (pack Bᵀ and A panels from pooled
// buffers; the micro-kernel writes full tiles straight into C, ragged edge
// tiles go through zeroed scratch and a masked write-back).
func gemm32Blocked(alpha float32, a, b, c *Matrix32, m, n, k int) {
	apack := getVec32(mc32 * kc32)
	bpack := getVec32(kc32 * nc32)
	for jc := 0; jc < n; jc += nc32 {
		nc := min(nc32, n-jc)
		for pc := 0; pc < k; pc += kc32 {
			kcc := min(kc32, k-pc)
			packB32(b, bpack, pc, jc, kcc, nc)
			for ic := 0; ic < m; ic += mc32 {
				mcc := min(mc32, m-ic)
				packA32(a, apack, ic, pc, mcc, kcc)
				for jr := 0; jr < nc; jr += nr32 {
					cols := min(nr32, nc-jr)
					bp := bpack[jr*kcc:]
					for ir := 0; ir < mcc; ir += mr32 {
						rows := min(mr32, mcc-ir)
						if rows == mr32 && cols == nr32 {
							linalg.MicroF32(kcc, apack[ir*kcc:], bp, c.Data[(jc+jr)*c.Rows+ic+ir:], c.Rows, alpha)
							continue
						}
						var acc [mr32 * nr32]float32
						linalg.MicroF32(kcc, apack[ir*kcc:], bp, acc[:], mr32, 1)
						for j := 0; j < cols; j++ {
							cc := c.Col(jc + jr + j)[ic+ir:]
							t := acc[j*mr32:]
							for i := 0; i < rows; i++ {
								cc[i] += alpha * t[i]
							}
						}
					}
				}
			}
		}
	}
	putVec32(&bpack)
	putVec32(&apack)
}

// packA32 packs the mcc×kcc block of A at (ic,pc) into mr32-row
// micro-panels, zero-padding ragged bottom panels.
func packA32(a *Matrix32, dst []float32, ic, pc, mcc, kcc int) {
	for ip := 0; ip < mcc; ip += mr32 {
		rows := min(mr32, mcc-ip)
		panel := dst[ip*kcc : ip*kcc+mr32*kcc]
		for l := 0; l < kcc; l++ {
			src := a.Col(pc + l)[ic+ip:]
			o := l * mr32
			for i := 0; i < rows; i++ {
				panel[o+i] = src[i]
			}
			for i := rows; i < mr32; i++ {
				panel[o+i] = 0
			}
		}
	}
}

// packB32 packs the kcc×nc block of Bᵀ at (pc,jc) into nr32-column
// micro-panels, zero-padding ragged right panels.
func packB32(b *Matrix32, dst []float32, pc, jc, kcc, nc int) {
	for jp := 0; jp < nc; jp += nr32 {
		cols := min(nr32, nc-jp)
		panel := dst[jp*kcc : jp*kcc+nr32*kcc]
		for l := 0; l < kcc; l++ {
			src := b.Col(pc + l)[jc+jp:]
			o := l * nr32
			for j := 0; j < cols; j++ {
				panel[o+j] = src[j]
			}
			for j := cols; j < nr32; j++ {
				panel[o+j] = 0
			}
		}
	}
}

// trsmBlock32 is the diagonal-block width of TrsmRightLowerTrans32: the part
// of the solve left to scalar code is nb/n of its flops.
const trsmBlock32 = 32

// TrsmRightLowerTrans32 solves X·Lᵀ = B in float32, overwriting b, for
// lower-triangular l (the panel update of the right-looking Cholesky). The
// solve is right-looking and blocked: a trsmBlock32-column block of X is
// solved against its diagonal block of L in place, then folded out of every
// column to its right by one Gemm32 on the packed micro-kernel. Matrix32
// carries no stride, so the rows of L under the diagonal block are copied
// into pooled scratch; the result is a function of l and b alone.
func TrsmRightLowerTrans32(l, b *Matrix32) {
	n := l.Rows
	if l.Cols != n || b.Cols != n {
		panic("tile: Trsm32 shape mismatch")
	}
	for j0 := 0; j0 < n; j0 += trsmBlock32 {
		j1 := min(j0+trsmBlock32, n)
		for k := j0; k < j1; k++ {
			xk := b.Col(k)
			for i := j0; i < k; i++ {
				v := l.At(k, i)
				if v == 0 {
					continue
				}
				xi := b.Col(i)
				for r := range xk {
					xk[r] -= v * xi[r]
				}
			}
			inv := 1 / l.At(k, k)
			for r := range xk {
				xk[r] *= inv
			}
		}
		if j1 == n {
			break
		}
		below := GetMat32(n-j1, j1-j0)
		for j := j0; j < j1; j++ {
			copy(below.Col(j-j0), l.Col(j)[j1:])
		}
		x, rest := GetMat32View(b, j0, j1-j0), GetMat32View(b, j1, n-j1)
		Gemm32(-1, x, below, rest)
		PutMat32View(rest)
		PutMat32View(x)
		PutMat32(below)
	}
}
