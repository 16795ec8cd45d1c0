package linalg

import (
	"math"
	"math/rand"
	"testing"
)

func randMatrix(r, c int, rng *rand.Rand) *Matrix {
	m := NewMatrix(r, c)
	for j := 0; j < c; j++ {
		col := m.Col(j)
		for i := range col {
			col[i] = rng.NormFloat64()
		}
	}
	return m
}

// randSPD returns a well-conditioned random symmetric positive definite
// matrix A = GᵀG + n·I.
func randSPD(n int, rng *rand.Rand) *Matrix {
	g := randMatrix(n, n, rng)
	a := NewMatrix(n, n)
	Gemm(true, false, 1, g, g, 0, a)
	for i := 0; i < n; i++ {
		a.Add(i, i, float64(n))
	}
	return a
}

func TestMatrixAtSetView(t *testing.T) {
	m := NewMatrix(4, 5)
	m.Set(2, 3, 7.5)
	if m.At(2, 3) != 7.5 {
		t.Fatal("At/Set roundtrip failed")
	}
	v := m.View(1, 2, 3, 3)
	if v.At(1, 1) != 7.5 {
		t.Errorf("view should alias (2,3): got %v", v.At(1, 1))
	}
	v.Set(0, 0, -1)
	if m.At(1, 2) != -1 {
		t.Error("view write did not propagate")
	}
}

func TestMatrixViewBounds(t *testing.T) {
	m := NewMatrix(3, 3)
	for _, c := range [][4]int{{-1, 0, 1, 1}, {0, 0, 4, 1}, {2, 2, 2, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("View%v should panic", c)
				}
			}()
			m.View(c[0], c[1], c[2], c[3])
		}()
	}
}

func TestTransposeCloneCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randMatrix(4, 6, rng)
	mt := m.Transpose()
	for i := 0; i < 4; i++ {
		for j := 0; j < 6; j++ {
			if m.At(i, j) != mt.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
	c := m.Clone()
	if c.MaxAbsDiff(m) != 0 {
		t.Error("clone differs")
	}
	c.Set(0, 0, 99)
	if m.At(0, 0) == 99 {
		t.Error("clone shares storage")
	}
	d := NewMatrix(4, 6)
	d.CopyFrom(m)
	if d.MaxAbsDiff(m) != 0 {
		t.Error("CopyFrom differs")
	}
}

func TestFrobNorm(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 3)
	m.Set(1, 1, 4)
	if got := m.FrobNorm(); math.Abs(got-5) > 1e-14 {
		t.Errorf("FrobNorm = %v, want 5", got)
	}
	// Overflow guard: huge entries should not produce +Inf.
	h := NewMatrix(2, 1)
	h.Set(0, 0, 1e300)
	h.Set(1, 0, 1e300)
	if got := h.FrobNorm(); math.IsInf(got, 1) {
		t.Error("FrobNorm overflowed")
	}
}

func TestLowerFromFullAndSymmetrize(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := randMatrix(4, 4, rng)
	l := m.Clone()
	l.LowerFromFull()
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := m.At(i, j)
			if i < j {
				want = 0
			}
			if l.At(i, j) != want {
				t.Fatalf("LowerFromFull wrong at (%d,%d)", i, j)
			}
		}
	}
	s := m.Clone()
	s.SymmetrizeFromLower()
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if s.At(i, j) != s.At(j, i) {
				t.Fatalf("not symmetric at (%d,%d)", i, j)
			}
		}
	}
}

// naiveGemm is the O(mnk) reference used to validate the kernel variants.
func naiveGemm(transA, transB bool, alpha float64, a, b *Matrix, beta float64, c *Matrix) *Matrix {
	opA := a
	if transA {
		opA = a.Transpose()
	}
	opB := b
	if transB {
		opB = b.Transpose()
	}
	out := NewMatrix(c.Rows, c.Cols)
	for i := 0; i < c.Rows; i++ {
		for j := 0; j < c.Cols; j++ {
			s := 0.0
			for k := 0; k < opA.Cols; k++ {
				s += opA.At(i, k) * opB.At(k, j)
			}
			out.Set(i, j, alpha*s+beta*c.At(i, j))
		}
	}
	return out
}

func TestGemmAllVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct{ ta, tb bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
		m, n, k := 5, 7, 4
		var a, b *Matrix
		if tc.ta {
			a = randMatrix(k, m, rng)
		} else {
			a = randMatrix(m, k, rng)
		}
		if tc.tb {
			b = randMatrix(n, k, rng)
		} else {
			b = randMatrix(k, n, rng)
		}
		c := randMatrix(m, n, rng)
		want := naiveGemm(tc.ta, tc.tb, 1.7, a, b, 0.3, c)
		Gemm(tc.ta, tc.tb, 1.7, a, b, 0.3, c)
		if d := c.MaxAbsDiff(want); d > 1e-12 {
			t.Errorf("Gemm(%v,%v) max diff %v", tc.ta, tc.tb, d)
		}
	}
}

func TestGemmBetaZeroClearsNaN(t *testing.T) {
	// beta=0 must overwrite even NaN-poisoned C.
	rng := rand.New(rand.NewSource(4))
	a, b := randMatrix(3, 3, rng), randMatrix(3, 3, rng)
	c := NewMatrix(3, 3)
	c.Fill(math.NaN())
	Gemm(false, false, 1, a, b, 0, c)
	want := naiveGemm(false, false, 1, a, b, 0, NewMatrix(3, 3))
	if d := c.MaxAbsDiff(want); d > 1e-12 || math.IsNaN(c.At(0, 0)) {
		t.Errorf("beta=0 did not clear: diff %v", d)
	}
}

func TestGemmOnViews(t *testing.T) {
	// Kernels must work on strided views, not just compact matrices.
	rng := rand.New(rand.NewSource(5))
	big := randMatrix(10, 10, rng)
	a := big.View(1, 1, 4, 3)
	b := big.View(5, 2, 3, 4)
	c := NewMatrix(4, 4)
	want := naiveGemm(false, false, 1, a.Clone(), b.Clone(), 0, c)
	Gemm(false, false, 1, a, b, 0, c)
	if d := c.MaxAbsDiff(want); d > 1e-12 {
		t.Errorf("view Gemm diff %v", d)
	}
}

func TestGemvBothVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randMatrix(4, 3, rng)
	x := []float64{1, -2, 0.5}
	y := []float64{0.1, 0.2, 0.3, 0.4}
	want := make([]float64, 4)
	for i := 0; i < 4; i++ {
		s := 0.0
		for j := 0; j < 3; j++ {
			s += a.At(i, j) * x[j]
		}
		want[i] = 2*s + 0.5*y[i]
	}
	Gemv(false, 2, a, x, 0.5, y)
	for i := range y {
		if math.Abs(y[i]-want[i]) > 1e-13 {
			t.Fatalf("Gemv notrans y[%d]=%v want %v", i, y[i], want[i])
		}
	}
	yt := []float64{1, 1, 1}
	wantT := make([]float64, 3)
	xt := []float64{1, 2, 3, 4}
	for j := 0; j < 3; j++ {
		s := 0.0
		for i := 0; i < 4; i++ {
			s += a.At(i, j) * xt[i]
		}
		wantT[j] = s + yt[j]
	}
	Gemv(true, 1, a, xt, 1, yt)
	for j := range yt {
		if math.Abs(yt[j]-wantT[j]) > 1e-13 {
			t.Fatalf("Gemv trans y[%d]=%v want %v", j, yt[j], wantT[j])
		}
	}
}

func TestSyrkMatchesGemm(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, trans := range []bool{false, true} {
		a := randMatrix(5, 3, rng)
		n := 5
		if trans {
			n = 3
		}
		c := randMatrix(n, n, rng)
		c.SymmetrizeFromLower()
		want := naiveGemm(trans, !trans, -1, a, a, 1, c)
		got := c.Clone()
		Syrk(trans, -1, a, 1, got)
		// Only the lower triangle is touched.
		for j := 0; j < n; j++ {
			for i := j; i < n; i++ {
				if math.Abs(got.At(i, j)-want.At(i, j)) > 1e-12 {
					t.Fatalf("Syrk(trans=%v) mismatch at (%d,%d)", trans, i, j)
				}
			}
		}
	}
}

// TestSyrkBetaZeroOverwrites: beta = 0 defines the lower triangle of C whatever
// it held — pooled scratch can hold NaN or ±Inf (0·NaN is NaN; a NaN Gram
// matrix used to push tile.RoundLR off its CholQR path, which made TLR
// factors depend on what the pool handed out).
func TestSyrkBetaZeroOverwrites(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, sz := range [][2]int{{5, 3}, {80, 70}} { // naive and blocked kernels
		a := randMatrix(sz[0], sz[1], rng)
		for _, trans := range []bool{false, true} {
			n := sz[0]
			if trans {
				n = sz[1]
			}
			want := NewMatrix(n, n)
			Syrk(trans, 1, a, 0, want)
			got := NewMatrix(n, n)
			got.Fill(math.NaN())
			got.Set(n-1, 0, math.Inf(1))
			Syrk(trans, 1, a, 0, got)
			for j := 0; j < n; j++ {
				for i := j; i < n; i++ {
					if got.At(i, j) != want.At(i, j) {
						t.Fatalf("n=%d trans=%v: C(%d,%d) = %v over NaN scratch, %v over zeros", n, trans, i, j, got.At(i, j), want.At(i, j))
					}
				}
			}
		}
	}
}

func TestTrsmAllVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 6
	spd := randSPD(n, rng)
	l, err := Cholesky(spd)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		side  TrsmSide
		trans bool
	}{{Left, false}, {Left, true}, {Right, false}, {Right, true}} {
		var b *Matrix
		if tc.side == Left {
			b = randMatrix(n, 4, rng)
		} else {
			b = randMatrix(4, n, rng)
		}
		x := b.Clone()
		TrsmLower(tc.side, tc.trans, 1, l, x)
		// Multiply back: op(L)·X or X·op(L) must reproduce B.
		check := NewMatrix(b.Rows, b.Cols)
		if tc.side == Left {
			Gemm(tc.trans, false, 1, l, x, 0, check)
		} else {
			Gemm(false, tc.trans, 1, x, l, 0, check)
		}
		if d := check.MaxAbsDiff(b); d > 1e-10 {
			t.Errorf("Trsm side=%v trans=%v residual %v", tc.side, tc.trans, d)
		}
	}
}

func TestTrsmAlphaScaling(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	l, _ := Cholesky(randSPD(4, rng))
	b := randMatrix(4, 2, rng)
	x1 := b.Clone()
	TrsmLower(Left, false, 2, l, x1)
	x2 := b.Clone()
	TrsmLower(Left, false, 1, l, x2)
	for j := 0; j < 2; j++ {
		for i := 0; i < 4; i++ {
			if math.Abs(x1.At(i, j)-2*x2.At(i, j)) > 1e-12 {
				t.Fatal("alpha scaling incorrect")
			}
		}
	}
}

// FromColMajor wraps an existing column-major slice (no copy).
func FromColMajor(r, c int, data []float64) *Matrix {
	if len(data) < r*c {
		panic("linalg: slice too short for dimensions")
	}
	return &Matrix{Rows: r, Cols: c, Stride: max(r, 1), Data: data}
}
