package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// packMat packs all of a into a fresh operand.
func packMat(a *Matrix) PackedA {
	p := PackedOver(make([]float64, PackedLen(a.Rows, a.Cols)), a.Rows, a.Cols)
	p.Pack(a, 0)
	return p
}

// TestGemmPackedAMatchesGemm pins the packed-A entry against Gemm over the
// shapes the sweep produces and the ones that stress the blocking: ragged and
// sub-panel m, depth 1 and depth past kcBlk, ragged and sub-panel n, products
// under gemmNaiveCutoff, both B orientations, overwrite and accumulate. It
// runs on whichever micro-kernel the build and REPRO_NOASM select.
func TestGemmPackedAMatchesGemm(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, m := range []int{1, 8, 15, 16, 17, 31, 33, 244, 256} {
		for _, k := range []int{1, 32, 256, 320} {
			a := randMat(m, k, rng)
			pa := packMat(a)
			for _, n := range []int{1, 5, 6, 7, 256} {
				for _, transB := range []bool{false, true} {
					b := randMat(k, n, rng)
					if transB {
						b = randMat(n, k, rng)
					}
					for _, beta := range []float64{0, 1} {
						want := randMat(m, n, rng)
						got := want.Clone()
						if beta == 0 {
							// beta 0 must define C whatever it held.
							got.Fill(math.NaN())
						}
						Gemm(false, transB, -0.75, a, b, beta, want)
						GemmPackedA(-0.75, pa, transB, b, beta, got)
						if d := relDiff(got, want); !(d <= 1e-13) {
							t.Errorf("m=%d k=%d n=%d transB=%v beta=%g: packed vs Gemm rel diff %g", m, k, n, transB, beta, d)
						}
					}
				}
			}
		}
	}
}

// TestPackedAColsAndOffsets: a depth range of a packed operand multiplies
// like the matching column view of the matrix, and Pack's column offset and a
// sub-block-at-a-time fill (the diagonal kernel's use) give the same panels
// as packing the whole matrix at once.
func TestPackedAColsAndOffsets(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const m, k, n = 50, 90, 17
	a := randMat(m, k, rng)
	whole := packMat(a)

	piecewise := PackedOver(make([]float64, PackedLen(m, k)), m, k)
	for l0 := 0; l0 < k; l0 += 32 {
		piecewise.Cols(l0, min(32, k-l0)).Pack(a, l0)
	}
	for i, v := range whole.Data {
		if piecewise.Data[i] != v {
			t.Fatalf("sub-block fill differs from whole-matrix pack at %d: %v vs %v", i, piecewise.Data[i], v)
		}
	}

	for _, r := range [][2]int{{0, k}, {0, 32}, {32, 32}, {64, 26}, {89, 1}, {40, 0}} {
		l0, kk := r[0], r[1]
		b := randMat(n, kk, rng)
		want := randMat(m, n, rng)
		got := want.Clone()
		Gemm(false, true, 1, a.View(0, l0, m, kk), b, 1, want)
		GemmPackedA(1, whole.Cols(l0, kk), true, b, 1, got)
		if d := relDiff(got, want); d > 1e-13 {
			t.Errorf("cols [%d,%d): rel diff %g", l0, l0+kk, d)
		}
	}
}

// TestPackedAShapePanics: mismatched shapes are bugs and must not compute.
func TestPackedAShapePanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	a := NewMatrix(8, 4)
	p := packMat(a)
	mustPanic("depth mismatch", func() { GemmPackedA(1, p, false, NewMatrix(5, 3), 0, NewMatrix(8, 3)) })
	mustPanic("C shape", func() { GemmPackedA(1, p, false, NewMatrix(4, 3), 0, NewMatrix(7, 3)) })
	mustPanic("Cols range", func() { p.Cols(2, 3) })
	mustPanic("Pack rows", func() { p.Pack(NewMatrix(9, 4), 0) })
	mustPanic("Pack columns", func() { p.Pack(a, 1) })
}
