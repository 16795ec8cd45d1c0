package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func randMat(r, c int, rng *rand.Rand) *Matrix {
	m := NewMatrix(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// relDiff returns max|a−b| scaled by the magnitude of b (elementwise norms).
func relDiff(a, b *Matrix) float64 {
	d := a.MaxAbsDiff(b)
	scale := math.Max(b.FrobNorm(), 1)
	return d / scale
}

// TestGemmBlockedMatchesNaive pins the packed register-blocked GEMM against
// the historical unpacked kernel across all four transpose cases, empty
// dimensions, k=0 and sizes that are not multiples of the micro-kernel or
// panel blocking.
func TestGemmBlockedMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sizes := []struct{ m, n, k int }{
		{0, 5, 3}, {5, 0, 3}, {4, 4, 0}, {1, 1, 1}, {3, 5, 7},
		{4, 4, 4}, {47, 31, 5}, {48, 48, 48}, {96, 96, 96},
		{65, 33, 129}, {130, 70, 258}, {257, 19, 40},
	}
	for _, sz := range sizes {
		for _, transA := range []bool{false, true} {
			for _, transB := range []bool{false, true} {
				ar, ac := sz.m, sz.k
				if transA {
					ar, ac = ac, ar
				}
				br, bc := sz.k, sz.n
				if transB {
					br, bc = bc, br
				}
				a := randMat(ar, ac, rng)
				b := randMat(br, bc, rng)
				c0 := randMat(sz.m, sz.n, rng)
				want := c0.Clone()
				got := c0.Clone()
				if sz.m > 0 && sz.n > 0 && sz.k > 0 {
					gemmNaive(transA, transB, 0.75, a, b, want, sz.m, sz.n, sz.k)
					gemmBlocked(transA, transB, 0.75, a, b, got, sz.m, sz.n, sz.k)
				}
				if d := relDiff(got, want); d > 1e-13*float64(sz.k+1) {
					t.Errorf("m=%d n=%d k=%d tA=%v tB=%v: blocked vs naive diff %g",
						sz.m, sz.n, sz.k, transA, transB, d)
				}
			}
		}
	}
}

// TestGemmPublicBetaAndDispatch checks the public Gemm entry point (which
// routes to either kernel by size) handles beta=0, beta≠1 and accumulation
// identically to an elementwise reference.
func TestGemmPublicBetaAndDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{6, 50} {
		a := randMat(n, n, rng)
		b := randMat(n, n, rng)
		for _, beta := range []float64{0, 1, 0.5} {
			c := randMat(n, n, rng)
			want := NewMatrix(n, n)
			for j := 0; j < n; j++ {
				for i := 0; i < n; i++ {
					s := beta * c.At(i, j)
					for l := 0; l < n; l++ {
						s += 2 * a.At(i, l) * b.At(l, j)
					}
					want.Set(i, j, s)
				}
			}
			Gemm(false, false, 2, a, b, beta, c)
			if d := relDiff(c, want); d > 1e-12 {
				t.Errorf("n=%d beta=%g: Gemm diff %g", n, beta, d)
			}
		}
	}
}

// TestSyrkBlockedMatchesNaive pins the blocked SYRK against the unpacked
// kernel for both trans cases and checks the strict upper triangle is never
// touched.
func TestSyrkBlockedMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sizes := []struct{ n, k int }{
		{1, 1}, {5, 3}, {48, 48}, {64, 40}, {96, 96}, {130, 67}, {65, 129},
	}
	const sentinel = 1e300
	for _, sz := range sizes {
		for _, trans := range []bool{false, true} {
			ar, ac := sz.n, sz.k
			if trans {
				ar, ac = ac, ar
			}
			a := randMat(ar, ac, rng)
			c0 := randMat(sz.n, sz.n, rng)
			for j := 1; j < sz.n; j++ {
				for i := 0; i < j; i++ {
					c0.Set(i, j, sentinel)
				}
			}
			want := c0.Clone()
			got := c0.Clone()
			syrkNaive(trans, -1, a, want, sz.n, sz.k)
			syrkBlocked(trans, -1, a, got, sz.n, sz.k)
			for j := 0; j < sz.n; j++ {
				for i := 0; i < sz.n; i++ {
					if i < j {
						if got.At(i, j) != sentinel {
							t.Fatalf("n=%d k=%d trans=%v: upper triangle (%d,%d) written", sz.n, sz.k, trans, i, j)
						}
						continue
					}
					diff := math.Abs(got.At(i, j) - want.At(i, j))
					if diff > 1e-12*float64(sz.k+1) {
						t.Errorf("n=%d k=%d trans=%v: (%d,%d) diff %g", sz.n, sz.k, trans, i, j, diff)
					}
				}
			}
		}
	}
}

// TestTrsmBlockedMatchesUnblocked pins the blocked triangular solves against
// the unblocked substitution for all four side/trans variants, including
// sizes that are not multiples of the block size.
func TestTrsmBlockedMatchesUnblocked(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{1, 5, 32, 33, 80, 130} {
		l := randMat(n, n, rng)
		for i := 0; i < n; i++ {
			l.Set(i, i, 4+math.Abs(l.At(i, i))) // well-conditioned diagonal
		}
		for _, side := range []TrsmSide{Left, Right} {
			for _, trans := range []bool{false, true} {
				br, bc := 37, n
				if side == Left {
					br, bc = n, 37
				}
				b0 := randMat(br, bc, rng)
				want := b0.Clone()
				got := b0.Clone()
				trsmLowerUnblocked(side, trans, l, want)
				trsmLowerBlocked(side, trans, l, got, got.Rows, got.Cols)
				if d := relDiff(got, want); d > 1e-12 {
					t.Errorf("n=%d side=%v trans=%v: blocked vs unblocked diff %g", n, side, trans, d)
				}
			}
		}
	}
}

// TestNrm2 checks the allocation-free norm against the matrix Frobenius norm
// and pins overflow/underflow guarding.
func TestNrm2(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := make([]float64, 1000)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want := FromColMajor(len(x), 1, x).FrobNorm()
	if got := Nrm2(x); math.Abs(got-want) > 1e-12*want {
		t.Errorf("Nrm2 = %g, want %g", got, want)
	}
	huge := []float64{1e300, 1e300}
	if got := Nrm2(huge); math.IsInf(got, 0) || math.Abs(got-1e300*math.Sqrt2) > 1e285 {
		t.Errorf("overflow guard failed: %g", got)
	}
	tiny := []float64{1e-300, 1e-300}
	if got := Nrm2(tiny); got == 0 || math.Abs(got-1e-300*math.Sqrt2) > 1e-315 {
		t.Errorf("underflow guard failed: %g", got)
	}
	if got := Nrm2(nil); got != 0 {
		t.Errorf("Nrm2(nil) = %g", got)
	}
	if testing.AllocsPerRun(10, func() { Nrm2(x) }) != 0 {
		t.Error("Nrm2 allocates")
	}
}

// FuzzGemmBlocked cross-checks the blocked kernel against the naive one on
// fuzzer-chosen shapes.
func FuzzGemmBlocked(f *testing.F) {
	f.Add(uint8(5), uint8(7), uint8(9), false, true)
	f.Add(uint8(48), uint8(48), uint8(48), true, false)
	f.Add(uint8(1), uint8(130), uint8(3), true, true)
	f.Fuzz(func(t *testing.T, m8, n8, k8 uint8, transA, transB bool) {
		m, n, k := int(m8), int(n8), int(k8)
		if m == 0 || n == 0 || k == 0 {
			return
		}
		rng := rand.New(rand.NewSource(int64(m)<<16 | int64(n)<<8 | int64(k)))
		ar, ac := m, k
		if transA {
			ar, ac = ac, ar
		}
		br, bc := k, n
		if transB {
			br, bc = bc, br
		}
		a := randMat(ar, ac, rng)
		b := randMat(br, bc, rng)
		want := NewMatrix(m, n)
		got := NewMatrix(m, n)
		gemmNaive(transA, transB, 1, a, b, want, m, n, k)
		gemmBlocked(transA, transB, 1, a, b, got, m, n, k)
		if d := relDiff(got, want); d > 1e-12*float64(k+1) {
			t.Errorf("m=%d n=%d k=%d tA=%v tB=%v: diff %g", m, n, k, transA, transB, d)
		}
	})
}

// sink defeats dead-code elimination in benchmarks.
var sink float64

// gemmSeedScalar is a pinned copy of the seed's GEMM kernel (the
// !transA && transB case): scalar axpy panels with no vector dispatch
// underneath. It is the historical baseline BenchmarkKernels measures the
// blocked-kernel speedups against; the live gemmNaive now sits on the
// vectorized level-1 kernels and is no longer that baseline.
func gemmSeedScalar(alpha float64, a, b, c *Matrix, n, k int) {
	for l := 0; l < k; l++ {
		ac, bc := a.Col(l), b.Col(l)
		for j := 0; j < n; j++ {
			if bl := alpha * bc[j]; bl != 0 {
				cc := c.Col(j)
				for i, v := range ac {
					cc[i] += bl * v
				}
			}
		}
	}
}

// BenchmarkKernels measures the blocked kernels against the historical
// unpacked ones at the tile sizes the factorizations actually use.
func BenchmarkKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	// The ceiling every packed product chases: one full register tile over
	// L1-resident micro-panels at full panel depth.
	b.Run(fmt.Sprintf("MicroKernel/k=%d", kcBlk), func(b *testing.B) {
		ap, bp := randMat(mrReg, kcBlk, rng).Data, randMat(nrReg, kcBlk, rng).Data
		c := make([]float64, mrReg*nrReg)
		if b.N == 1 { // the first call of the ramp: one line per run, which CI greps
			b.Logf("micro-kernel ISA: %s", KernelISA())
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			microF64(kcBlk, ap, bp, c, mrReg, 1e-3)
		}
		b.ReportMetric(2*mrReg*nrReg*kcBlk*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
	})
	for _, n := range []int{48, 64, 96, 192} {
		a := randMat(n, n, rng)
		bb := randMat(n, n, rng)
		c := NewMatrix(n, n)
		b.Run(fmt.Sprintf("GemmBlocked/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				gemmBlocked(false, true, -1, a, bb, c, n, n, n)
			}
		})
		b.Run(fmt.Sprintf("GemmNaive/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				gemmNaive(false, true, -1, a, bb, c, n, n, n)
			}
		})
		b.Run(fmt.Sprintf("GemmSeedScalar/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				gemmSeedScalar(-1, a, bb, c, n, n)
			}
		})
		b.Run(fmt.Sprintf("SyrkBlocked/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				syrkBlocked(false, -1, a, c, n, n)
			}
		})
		b.Run(fmt.Sprintf("SyrkNaive/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				syrkNaive(false, -1, a, c, n, n)
			}
		})
	}
	l := randMat(96, 96, rng)
	for i := 0; i < 96; i++ {
		l.Set(i, i, 8+math.Abs(l.At(i, i)))
	}
	x := randMat(96, 96, rng)
	b.Run("TrsmBlocked/n=96", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			trsmLowerBlocked(Right, true, l, x, x.Rows, x.Cols)
		}
	})
	b.Run("TrsmUnblocked/n=96", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			trsmLowerUnblocked(Right, true, l, x)
		}
	})
	v := make([]float64, 4096)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	b.Run("Nrm2/n=4096", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink = Nrm2(v)
		}
	})
}
