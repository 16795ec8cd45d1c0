package cov

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/geo"
	"repro/internal/linalg"
	"repro/internal/taskrt"
)

// taskWorkers are the pool sizes the task forms are checked at: the bits
// must not depend on it.
var taskWorkers = []int{1, 2, 4}

// mirrorSerial is the element-wise mirror of the lower triangle.
func mirrorSerial(m *linalg.Matrix) {
	for j := 0; j < m.Cols; j++ {
		for i := j + 1; i < m.Rows; i++ {
			m.Set(j, i, m.At(i, j))
		}
	}
}

// matrixSerial is Matrix as one serial column loop.
func matrixSerial(g *geo.Geom, k Kernel) *linalg.Matrix {
	n := g.Len()
	sigma := linalg.NewMatrix(n, n)
	for j := 0; j < n; j++ {
		Fill(k, sigma.Col(j)[j:], g.Pts[j:], g.Pts[j])
	}
	mirrorSerial(sigma)
	return sigma
}

// posteriorSerial is Posterior as one serial composition of the linalg
// kernels: the form the task graph must reproduce bit for bit.
func posteriorSerial(sigma *linalg.Matrix, mu []float64, obsIdx []int, y []float64, tau2 float64) (*linalg.Matrix, []float64, error) {
	n, m := sigma.Rows, len(obsIdx)
	post := sigma.Clone()
	muPost := append([]float64(nil), mu...)
	w := linalg.NewMatrix(m, n+1)
	for j := 0; j < n; j++ {
		sj, wj := sigma.Col(j), w.Col(j)
		for k, i := range obsIdx {
			wj[k] = sj[i]
		}
	}
	r := w.Col(n)
	for k, i := range obsIdx {
		r[k] = y[k] - mu[i]
	}
	s := linalg.NewMatrix(m, m)
	for l, i := range obsIdx {
		copy(s.Col(l), w.Col(i))
		s.Add(l, l, tau2)
	}
	l, err := linalg.CholeskyInPlace(s)
	if err != nil {
		return nil, nil, err
	}
	linalg.TrsmLower(linalg.Left, false, 1, l, w)
	wo := w.View(0, 0, m, n)
	linalg.Syrk(true, -1, wo, 1, post)
	mirrorSerial(post)
	linalg.Gemv(true, 1, wo, r, 1, muPost)
	return post, muPost, nil
}

func sameMatrixBits(t *testing.T, what string, got, want *linalg.Matrix) {
	t.Helper()
	for j := 0; j < want.Cols; j++ {
		g, w := got.Col(j), want.Col(j)
		for i := range w {
			if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
				t.Fatalf("%s: (%d,%d) = %v, serial %v", what, i, j, g[i], w[i])
			}
		}
	}
}

// The task form of Matrix is the serial column loop bit for bit, on the
// vector closed form (exponential, Matérn 3/2) and the scalar one (Matérn
// 1.3), at every pool size.
func TestMatrixTasksMatchSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 63, 300, 777} {
		g := uniformRandom(n, rng)
		for _, k := range []Kernel{&Exponential{Sigma2: 1, Range: 0.1}, NewMatern(1.5, 0.2, 1.5), NewMatern(1, 0.1, 1.3)} {
			want := matrixSerial(g, k)
			for _, w := range taskWorkers {
				rt := taskrt.New(w)
				got := matrix(rt, g, k)
				rt.Shutdown()
				sameMatrixBits(t, fmt.Sprintf("n=%d %T, %d workers", n, k, w), got, want)
			}
		}
	}
}

// The task form of Posterior is the serial composition bit for bit: no
// observation (a zero-row W), one, fewer sites than one Cholesky step, and
// shapes whose solve and update cut into parts whose own shape would pick
// other kernels than the whole (33 observations: a 1-row remainder after one
// substitution block; 512 sites: a 1-column last part of W).
func TestPosteriorTasksMatchSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, c := range []struct{ n, m int }{
		{40, 0}, {40, 1}, {40, 25}, {600, 0}, {600, 1}, {512, 33}, {600, 300},
	} {
		g := uniformRandom(c.n, rng)
		sigma := matrixSerial(g, &Exponential{Sigma2: 1, Range: 0.1})
		mu := make([]float64, c.n)
		for i := range mu {
			mu[i] = rng.NormFloat64()
		}
		obs := rng.Perm(c.n)[:c.m]
		y := make([]float64, c.m)
		for k := range y {
			y[k] = rng.NormFloat64()
		}
		wantPost, wantMu, err := posteriorSerial(sigma, mu, obs, y, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range taskWorkers {
			rt := taskrt.New(w)
			post, muPost, err := posterior(rt, sigma, mu, obs, y, 0.25)
			rt.Shutdown()
			what := fmt.Sprintf("n=%d m=%d, %d workers", c.n, c.m, w)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			sameMatrixBits(t, what, post, wantPost)
			for i := range wantMu {
				if math.Float64bits(muPost[i]) != math.Float64bits(wantMu[i]) {
					t.Fatalf("%s: mean[%d] = %v, serial %v", what, i, muPost[i], wantMu[i])
				}
			}
		}
	}
}

// A NaN or infinite observation or prior mean is an error naming its index,
// not a NaN posterior mean.
func TestPosteriorRejectsNonFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	sigma := Matrix(uniformRandom(6, rng), &Exponential{Sigma2: 1, Range: 0.2})
	obs := []int{1, 4}
	for _, c := range []struct {
		mu, y []float64
		want  string
	}{
		{make([]float64, 6), []float64{0.5, math.NaN()}, "y[1]"},
		{make([]float64, 6), []float64{math.Inf(1), 0.5}, "y[0]"},
		{[]float64{0, 0, 0, math.NaN(), 0, 0}, []float64{0.5, 0.5}, "mu[3]"},
		{[]float64{0, math.Inf(-1), 0, 0, 0, 0}, []float64{0.5, 0.5}, "mu[1]"},
	} {
		_, _, err := Posterior(sigma, c.mu, obs, c.y, 0.25)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("mu %v, y %v: err = %v, want one naming %s", c.mu, c.y, err, c.want)
		}
	}
}
