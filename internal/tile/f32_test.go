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
	Gemm32(-1, ToSingle(a), ToSingle(b), c32)
	if d := c32.ToDouble().MaxAbsDiff(want); d > 1e-5 {
		t.Errorf("Gemm32 diff %v", d)
	}
	// A second B and a positive alpha.
	b2 := mk(5, 4)
	want2 := c.Clone()
	linalg.Gemm(false, true, 2, a, b2, 1, want2)
	c322 := ToSingle(c)
	Gemm32(2, ToSingle(a), ToSingle(b2), c322)
	if d := c322.ToDouble().MaxAbsDiff(want2); d > 1e-5 {
		t.Errorf("Gemm32 alpha=2 diff %v", d)
	}
}

// TestTrsm32Blocked: the blocked single-precision panel solve against the
// float64 one over shapes around its 32-column block and the 32×6 micro-tile.
// L's upper triangle is NaN (the solve must not read it) and b sits between
// canaries (the trailing GEMM stores full micro-tiles unmasked). It runs on
// the vector kernels and, under REPRO_NOASM=1, on the unpacked loops.
func TestTrsm32Blocked(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	nan, canary := float32(math.NaN()), math.Float32frombits(canary32Bits)
	const pad = 40
	for _, n := range []int{1, 31, 32, 33, 100, 256} {
		l := NewMatrix32(n, n)
		for j := 0; j < n; j++ {
			col := l.Col(j)
			for i := range col {
				switch {
				case i < j:
					col[i] = nan
				case i == j:
					col[i] = 1 + rng.Float32()
				default:
					col[i] = float32(rng.NormFloat64()) / float32(n)
				}
			}
		}
		l64 := l.ToDouble()
		l64.LowerFromFull()
		for _, m := range []int{1, 17, 256} {
			buf := make([]float32, m*n+2*pad)
			for i := range buf {
				buf[i] = canary
			}
			b := &Matrix32{Rows: m, Cols: n, Data: buf[pad : pad+m*n]}
			for i := range b.Data {
				b.Data[i] = float32(rng.NormFloat64())
			}
			want := b.ToDouble()
			linalg.TrsmLower(linalg.Right, true, 1, l64, want)
			TrsmRightLowerTrans32(l, b)
			if d := b.ToDouble().MaxAbsDiff(want); !(d <= 2e-6*float64(n+4)) {
				t.Errorf("n=%d m=%d: differs from the float64 solve by %g", n, m, d)
			}
			for i := 0; i < pad; i++ {
				if math.Float32bits(buf[i]) != canary32Bits || math.Float32bits(buf[len(buf)-1-i]) != canary32Bits {
					t.Fatalf("n=%d m=%d: an element outside b changed", n, m)
				}
			}
		}
	}
}

// ToSingle converts a float64 matrix to float32.
func ToSingle(a *linalg.Matrix) *Matrix32 {
	out := NewMatrix32(a.Rows, a.Cols)
	for j := 0; j < a.Cols; j++ {
		src := a.Col(j)
		dst := out.Col(j)
		for i, v := range src {
			dst[i] = float32(v)
		}
	}
	return out
}

// ToDouble converts back to float64.
func (m *Matrix32) ToDouble() *linalg.Matrix {
	out := linalg.NewMatrix(m.Rows, m.Cols)
	for j := 0; j < m.Cols; j++ {
		src := m.Col(j)
		dst := out.Col(j)
		for i, v := range src {
			dst[i] = float64(v)
		}
	}
	return out
}
