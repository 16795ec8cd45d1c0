package tile

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

func TestConversionRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := linalg.NewMatrix(7, 5)
	for j := 0; j < 5; j++ {
		col := a.Col(j)
		for i := range col {
			col[i] = rng.NormFloat64()
		}
	}
	back := ToSingle(a).ToDouble()
	if d := back.MaxAbsDiff(a); d > 1e-6 {
		t.Errorf("f32 roundtrip error %v", d)
	}
}

func TestGemm32MatchesDouble(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	mk := func(r, c int) *linalg.Matrix {
		m := linalg.NewMatrix(r, c)
		for j := 0; j < c; j++ {
			col := m.Col(j)
			for i := range col {
				col[i] = rng.NormFloat64()
			}
		}
		return m
	}
	a, b, c := mk(6, 4), mk(5, 4), mk(6, 5)
	want := c.Clone()
	linalg.Gemm(false, true, -1, a, b, 1, want)
	c32 := ToSingle(c)
	Gemm32(true, -1, ToSingle(a), ToSingle(b), c32)
	if d := c32.ToDouble().MaxAbsDiff(want); d > 1e-5 {
		t.Errorf("Gemm32 transB diff %v", d)
	}
	// No-transpose variant.
	b2 := mk(4, 5)
	want2 := c.Clone()
	linalg.Gemm(false, false, 2, a, b2, 1, want2)
	c322 := ToSingle(c)
	Gemm32(false, 2, ToSingle(a), ToSingle(b2), c322)
	if d := c322.ToDouble().MaxAbsDiff(want2); d > 1e-5 {
		t.Errorf("Gemm32 notrans diff %v", d)
	}
}

func TestSyrk32MatchesDouble(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := linalg.NewMatrix(5, 3)
	for j := 0; j < 3; j++ {
		col := a.Col(j)
		for i := range col {
			col[i] = rng.NormFloat64()
		}
	}
	c := linalg.NewMatrix(5, 5)
	for i := 0; i < 5; i++ {
		c.Set(i, i, 10)
	}
	want := c.Clone()
	linalg.Syrk(false, -1, a, 1, want)
	c32 := ToSingle(c)
	Syrk32(-1, ToSingle(a), c32)
	got := c32.ToDouble()
	for j := 0; j < 5; j++ {
		for i := j; i < 5; i++ {
			if math.Abs(got.At(i, j)-want.At(i, j)) > 1e-5 {
				t.Fatalf("Syrk32 mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestPotrf32Reconstructs(t *testing.T) {
	_, sigma := covGrid(5, 0.2)
	s := ToSingle(sigma)
	if err := Potrf32(s); err != nil {
		t.Fatal(err)
	}
	l := s.ToDouble()
	l.LowerFromFull()
	rec := linalg.NewMatrix(25, 25)
	linalg.Gemm(false, true, 1, l, l, 0, rec)
	if d := rec.MaxAbsDiff(sigma); d > 1e-4 {
		t.Errorf("f32 LLᵀ residual %v", d)
	}
}

func TestPotrf32RejectsIndefinite(t *testing.T) {
	a := linalg.Eye(4)
	a.Set(2, 2, -1)
	if err := Potrf32(ToSingle(a)); err == nil {
		t.Error("want error for indefinite matrix")
	}
}
