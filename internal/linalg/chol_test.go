package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func cholReconstructs(t *testing.T, a *Matrix, factor func(*Matrix) error) {
	t.Helper()
	l := a.Clone()
	if err := factor(l); err != nil {
		t.Fatal(err)
	}
	l.LowerFromFull()
	llt := NewMatrix(a.Rows, a.Rows)
	Gemm(false, true, 1, l, l, 0, llt)
	// Compare on the lower triangle (upper of a may hold anything symmetric).
	for j := 0; j < a.Cols; j++ {
		for i := j; i < a.Rows; i++ {
			if math.Abs(llt.At(i, j)-a.At(i, j)) > 1e-9*math.Max(1, math.Abs(a.At(i, j))) {
				t.Fatalf("LLᵀ mismatch at (%d,%d): %v vs %v", i, j, llt.At(i, j), a.At(i, j))
			}
		}
	}
}

func TestPotrfUnblockedReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, n := range []int{1, 2, 3, 8, 17, 40} {
		cholReconstructs(t, randSPD(n, rng), PotrfUnblocked)
	}
}

func TestPotrfBlockedMatchesUnblocked(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, nb := range []int{1, 3, 8, 16, 100} {
		a := randSPD(25, rng)
		l1 := a.Clone()
		if err := PotrfUnblocked(l1); err != nil {
			t.Fatal(err)
		}
		l2 := a.Clone()
		if err := PotrfBlocked(l2, nb); err != nil {
			t.Fatal(err)
		}
		l1.LowerFromFull()
		l2.LowerFromFull()
		if d := l1.MaxAbsDiff(l2); d > 1e-9 {
			t.Errorf("nb=%d: blocked vs unblocked diff %v", nb, d)
		}
	}
}

func TestPotrfRejectsIndefinite(t *testing.T) {
	a := Eye(3)
	a.Set(2, 2, -1)
	if err := PotrfUnblocked(a.Clone()); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Errorf("want ErrNotPositiveDefinite, got %v", err)
	}
	b := NewMatrix(2, 2) // all-zero: first pivot is 0
	if err := PotrfBlocked(b, 1); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Errorf("want ErrNotPositiveDefinite, got %v", err)
	}
}

func TestCholeskyDoesNotModifyInput(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	a := randSPD(6, rng)
	orig := a.Clone()
	if _, err := Cholesky(a); err != nil {
		t.Fatal(err)
	}
	if a.MaxAbsDiff(orig) != 0 {
		t.Error("Cholesky modified its input")
	}
}

func TestCholeskyPropertySPD(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		a := randSPD(n, rng)
		l, err := Cholesky(a)
		if err != nil {
			return false
		}
		llt := NewMatrix(n, n)
		Gemm(false, true, 1, l, l, 0, llt)
		for j := 0; j < n; j++ {
			for i := j; i < n; i++ {
				if math.Abs(llt.At(i, j)-a.At(i, j)) > 1e-8*math.Max(1, math.Abs(a.At(i, j))) {
					return false
				}
			}
		}
		// Diagonal of L must be strictly positive.
		for i := 0; i < n; i++ {
			if l.At(i, i) <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSolveSPD(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	a := randSPD(12, rng)
	xTrue := randMatrix(12, 3, rng)
	b := NewMatrix(12, 3)
	Gemm(false, false, 1, a, xTrue, 0, b)
	x, err := SolveSPD(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d := x.MaxAbsDiff(xTrue); d > 1e-8 {
		t.Errorf("SolveSPD residual %v", d)
	}
}

func TestInvSPD(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	a := randSPD(10, rng)
	inv, err := InvSPD(a)
	if err != nil {
		t.Fatal(err)
	}
	prod := NewMatrix(10, 10)
	Gemm(false, false, 1, a, inv, 0, prod)
	if d := prod.MaxAbsDiff(Eye(10)); d > 1e-8 {
		t.Errorf("A·A⁻¹ differs from I by %v", d)
	}
	// The in-place form is the same arithmetic on the caller's storage: the
	// same bits out, a left holding its own Cholesky factor.
	l, _ := Cholesky(a)
	inPlace, err := InvSPDInPlace(a)
	if err != nil {
		t.Fatal(err)
	}
	if inPlace.MaxAbsDiff(inv) != 0 || a.MaxAbsDiff(l) != 0 {
		t.Errorf("InvSPDInPlace: inverse differs by %v, a from its factor by %v", inPlace.MaxAbsDiff(inv), a.MaxAbsDiff(l))
	}
}

// SolveSPD solves A·X = B for symmetric positive definite A, returning X.
// B is not modified.
func SolveSPD(a, b *Matrix) (*Matrix, error) { return solveInPlace(a.Clone(), b.Clone()) }

// InvSPD returns the inverse of a symmetric positive definite matrix.
func InvSPD(a *Matrix) (*Matrix, error) { return solveInPlace(a.Clone(), Eye(a.Rows)) }

// InvSPDInPlace is InvSPD overwriting a with its factor: one n×n allocation, not two.
func InvSPDInPlace(a *Matrix) (*Matrix, error) { return solveInPlace(a, Eye(a.Rows)) }

// solveInPlace overwrites a with its Cholesky factor and x with A⁻¹·x.
func solveInPlace(a, x *Matrix) (*Matrix, error) {
	if _, err := CholeskyInPlace(a); err != nil {
		return nil, err
	}
	TrsmLower(Left, false, 1, a, x)
	TrsmLower(Left, true, 1, a, x)
	return x, nil
}
