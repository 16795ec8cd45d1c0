package linalg

import (
	"fmt"
	"math"
	"testing"
)

// canary is a signaling NaN: reading it poisons a result, and any arithmetic
// on it — not just an overwrite — changes its bits (the quiet bit is set), so
// one pattern catches both a stray read and a stray accumulate.
var canary = math.Float64frombits(0x7FF0000000000001)

// caseMem hands out the operands of one kernel case from one reused buffer
// (the grid is thousands of cases of up to 256×300; fresh allocations made the
// garbage collector the test) and fills them from a cheap generator.
type caseMem struct {
	buf  []float64
	used int
	x    uint64
}

func (cm *caseMem) reset(seed uint64) { cm.used, cm.x = 0, seed }

func (cm *caseMem) vec(n int) []float64 {
	if cm.used+n > len(cm.buf) {
		panic("caseMem: buffer too small for the shape grid")
	}
	v := cm.buf[cm.used : cm.used+n : cm.used+n]
	cm.used += n
	return v
}

// next returns a value in [-1, 1).
func (cm *caseMem) next() float64 {
	cm.x = cm.x*6364136223846793005 + 1442695040888963407
	return float64(int64(cm.x)>>11) / (1 << 52)
}

// frame is a matrix view surrounded by canaries: rows above and below, and
// columns left and right, inside one allocation.
type frame struct {
	all, view *Matrix
}

// frame returns an r×c view of generated values inside a canary-filled
// (r+7)×(c+5) matrix.
func (cm *caseMem) frame(r, c int) frame {
	all := FromColMajor(r+7, c+5, cm.vec((r+7)*(c+5)))
	all.Fill(canary)
	v := all.View(3, 2, r, c)
	for j := 0; j < c; j++ {
		col := v.Col(j)
		for i := range col {
			col[i] = cm.next()
		}
	}
	return frame{all, v}
}

// clone copies m into the case's memory.
func (cm *caseMem) clone(m *Matrix) *Matrix {
	out := FromColMajor(m.Rows, m.Cols, cm.vec(m.Rows*m.Cols))
	out.CopyFrom(m)
	return out
}

// intact reports whether every element outside the view (and, with lower
// set, in the view's strict upper triangle) still holds the canary.
func (f frame) intact(lower bool) bool {
	for j := 0; j < f.all.Cols; j++ {
		for i, v := range f.all.Col(j) {
			vi, vj := i-3, j-2
			inside := vi >= 0 && vi < f.view.Rows && vj >= 0 && vj < f.view.Cols
			if inside && !(lower && vi < vj) {
				continue
			}
			if math.Float64bits(v) != math.Float64bits(canary) {
				return false
			}
		}
	}
	return true
}

// fillUpper puts canaries in the strict upper triangle of the view.
func (f frame) fillUpper() {
	for j := 1; j < f.view.Cols; j++ {
		col := f.view.Col(j)
		for i := 0; i < min(j, len(col)); i++ {
			col[i] = canary
		}
	}
}

var (
	gridMN    = []int{1, 15, 16, 17, 24, 250, 256}
	gridK     = []int{1, 30, 256, 300}
	gridAlpha = []float64{1, -1, 0.37}
	gridBeta  = []float64{0, 1}
)

// kernelCase is one public product on operands framed by canaries. run
// builds the operands afresh from the case's seed, so two runs (under two
// micro-kernels) see identical inputs; it returns the destination view, a
// naive reference for it and whether every canary survived — all three valid
// until the next run. lower marks results of which only the lower triangle is
// defined.
type kernelCase struct {
	name  string
	lower bool
	run   func() (got *Matrix, want func() *Matrix, intact bool)
}

// kernelCases visits every shape class of the packed kernels — sub-tile,
// exact, ragged and multi-block m and n around mrReg = 16 and nrReg = 6,
// depth 1, sub-panel, exact and past kcBlk — through Gemm (four transpose
// cases), GemmPackedA (both B orientations), Syrk and TrsmLower, overwrite
// and accumulate. alpha only scales the write-back, so it rotates with the
// case number instead of multiplying the grid: every (m, n, k) meets every
// alpha.
func kernelCases(visit func(kernelCase)) {
	cm := &caseMem{buf: make([]float64, 1<<19)}
	num := uint64(0)
	add := func(lower bool, name string, body func(alpha float64) (*Matrix, func() *Matrix, bool)) {
		num++
		seed, alpha := num, gridAlpha[num%uint64(len(gridAlpha))]
		visit(kernelCase{
			name:  fmt.Sprintf("%s/alpha=%g", name, alpha),
			lower: lower,
			run: func() (*Matrix, func() *Matrix, bool) {
				cm.reset(seed)
				return body(alpha)
			},
		})
	}
	for _, k := range gridK {
		k := k
		for _, m := range gridMN {
			m := m
			for _, n := range gridMN {
				n := n
				for _, beta := range gridBeta {
					beta := beta
					for tr := 0; tr < 4; tr++ {
						transA, transB := tr&1 != 0, tr&2 != 0
						add(false, fmt.Sprintf("Gemm/m=%d/n=%d/k=%d/beta=%g/tA=%v/tB=%v", m, n, k, beta, transA, transB),
							func(alpha float64) (*Matrix, func() *Matrix, bool) {
								a, b := cm.frame(m, k), cm.frame(k, n)
								if transA {
									a = cm.frame(k, m)
								}
								if transB {
									b = cm.frame(n, k)
								}
								c := cm.frame(m, n)
								c0 := cm.clone(c.view)
								Gemm(transA, transB, alpha, a.view, b.view, beta, c.view)
								want := func() *Matrix {
									c0.Scale(beta)
									gemmNaive(transA, transB, alpha, a.view, b.view, c0, m, n, k)
									return c0
								}
								return c.view, want, a.intact(false) && b.intact(false) && c.intact(false)
							})
					}
					for _, transB := range []bool{false, true} {
						transB := transB
						add(false, fmt.Sprintf("GemmPackedA/m=%d/n=%d/k=%d/beta=%g/tB=%v", m, n, k, beta, transB),
							func(alpha float64) (*Matrix, func() *Matrix, bool) {
								a, b, c := cm.frame(m, k), cm.frame(k, n), cm.frame(m, n)
								if transB {
									b = cm.frame(n, k)
								}
								// The packed operand sits between canaries too.
								buf := cm.vec(PackedLen(m, k) + 10)
								for i := range buf {
									buf[i] = canary
								}
								pa := PackedOver(buf[5:], m, k)
								pa.Pack(a.view, 0)
								c0 := cm.clone(c.view)
								GemmPackedA(alpha, pa, transB, b.view, beta, c.view)
								want := func() *Matrix {
									c0.Scale(beta)
									gemmNaive(false, transB, alpha, a.view, b.view, c0, m, n, k)
									return c0
								}
								ok := a.intact(false) && b.intact(false) && c.intact(false)
								for i := 0; i < 5; i++ {
									ok = ok && math.Float64bits(buf[i]) == math.Float64bits(canary) &&
										math.Float64bits(buf[len(buf)-1-i]) == math.Float64bits(canary)
								}
								return c.view, want, ok
							})
					}
				}
			}
			// The triangular kernels take a square operand: m is its order.
			n := m
			for _, beta := range gridBeta {
				beta := beta
				for _, trans := range []bool{false, true} {
					trans := trans
					add(true, fmt.Sprintf("Syrk/n=%d/k=%d/beta=%g/trans=%v", n, k, beta, trans),
						func(alpha float64) (*Matrix, func() *Matrix, bool) {
							a := cm.frame(n, k)
							if trans {
								a = cm.frame(k, n)
							}
							c := cm.frame(n, n)
							c.fillUpper()
							c0 := cm.clone(c.view)
							Syrk(trans, alpha, a.view, beta, c.view)
							want := func() *Matrix {
								for j := 0; j < n; j++ {
									Scal(beta, c0.Col(j)[j:])
								}
								syrkNaive(trans, alpha, a.view, c0, n, k)
								return c0
							}
							return c.view, want, a.intact(false) && c.intact(true)
						})
				}
			}
			for tr := 0; tr < 4; tr++ {
				side, trans := Left, tr&2 != 0
				if tr&1 != 0 {
					side = Right
				}
				add(false, fmt.Sprintf("Trsm/n=%d/other=%d/side=%d/trans=%v", n, k, side, trans),
					func(alpha float64) (*Matrix, func() *Matrix, bool) {
						l := cm.frame(n, n)
						// Well conditioned at every order: a small strict lower
						// part under a diagonal in [1, 2).
						for j := 0; j < n; j++ {
							col := l.view.Col(j)
							for i := j + 1; i < n; i++ {
								col[i] /= math.Sqrt(float64(n))
							}
							col[j] = 1.5 + cm.next()/2
						}
						l.fillUpper()
						b := cm.frame(n, k)
						if side == Right {
							b = cm.frame(k, n)
						}
						b0 := cm.clone(b.view)
						TrsmLower(side, trans, alpha, l.view, b.view)
						want := func() *Matrix {
							for j := 0; j < b0.Cols; j++ {
								Scal(alpha, b0.Col(j))
							}
							trsmLowerUnblocked(side, trans, l.view, b0)
							return b0
						}
						return b.view, want, l.intact(true) && b.intact(false)
					})
			}
		}
	}
}

// lowerOnly zeroes the strict upper triangle of a copy when lower is set, so
// triangular results compare on what they define.
func lowerOnly(m *Matrix, lower bool) *Matrix {
	if !lower {
		return m
	}
	m = m.Clone()
	for j := 1; j < m.Cols; j++ {
		clear(m.Col(j)[:min(j, m.Rows)])
	}
	return m
}

// TestGemmCanaries: the micro-kernels store a full register tile unmasked, so
// every public product runs here on views inside canary-filled allocations —
// destination, both operands and the packed operand — over every shape class:
// the result matches the naive reference and not one element outside the
// destination view (or, for Syrk, in its strict upper triangle) changes.
func TestGemmCanaries(t *testing.T) {
	kernelCases(func(kc kernelCase) {
		got, want, intact := kc.run()
		if !intact {
			t.Errorf("%s: an element outside the destination view changed", kc.name)
		}
		if d := relDiff(lowerOnly(got, kc.lower), lowerOnly(want(), kc.lower)); !(d <= 1e-12) {
			t.Errorf("%s: rel diff %g against the naive kernel", kc.name, d)
		}
	})
}

// TestKernelsBitIdentical: which micro-kernel ran must not show in an answer.
// The AVX-512 and AVX2 kernels run the same FMA chain per element in the same
// depth order and the same multiply-then-add write-back, so they are held to
// bit equality on every shape; the portable kernel has no FMA and is held to
// the reference tolerance. It flips the package's kernel selection, which
// nothing outside tests does.
func TestKernelsBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("single-goroutine arithmetic, two to three passes over the grid: CI runs it in its own step, not under -race -short")
	}
	best, bestName := kernelISA, KernelISA()
	if best == isaGo {
		t.Skip("no vector micro-kernel on this host (or REPRO_NOASM set)")
	}
	defer func() { kernelISA = best }()
	if best == isaAVX2 {
		t.Log("no AVX-512 here: comparing the portable kernel against AVX2 only")
	}
	kernelCases(func(kc kernelCase) {
		kernelISA = best
		ref, _, _ := kc.run()
		ref = lowerOnly(ref.Clone(), kc.lower)
		for isa := best - 1; isa >= isaGo; isa-- {
			kernelISA = isa
			got, _, intact := kc.run()
			got = lowerOnly(got, kc.lower)
			if !intact {
				t.Errorf("%s on %s: an element outside the destination view changed", kc.name, KernelISA())
			}
			if isa == isaGo {
				if d := relDiff(got, ref); !(d <= 1e-12) {
					t.Errorf("%s: portable kernel rel diff %g against %s", kc.name, d, bestName)
				}
				continue
			}
			for j := 0; j < got.Cols; j++ {
				rc := ref.Col(j)
				for i, v := range got.Col(j) {
					if math.Float64bits(v) != math.Float64bits(rc[i]) {
						t.Fatalf("%s: (%d,%d) = %x on avx2, %x on avx512", kc.name, i, j, math.Float64bits(v), math.Float64bits(rc[i]))
					}
				}
			}
		}
	})
}
