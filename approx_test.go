package parmvn

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"
)

// approxRows is the end-to-end accuracy budget of the approximate methods:
// five kernels on the n = 1024 grid at tile 64 — the API's default family,
// smoother and rougher Matérn fields, a short range and a near-singular
// smooth one — each under TLR and the adaptive preset at three tolerances,
// assembled from the kernel and from an explicit Σ.
var approxRows = []struct {
	name   string
	kernel KernelSpec
}{
	{"exponential/r0.1", KernelSpec{Family: "exponential", Range: 0.1}},
	{"matern1.5/r0.1", KernelSpec{Family: "matern", Range: 0.1, Nu: 1.5}},
	{"matern2.5/r0.1", KernelSpec{Family: "matern", Range: 0.1, Nu: 2.5}},
	{"matern1.5/r0.03", KernelSpec{Family: "matern", Range: 0.03, Nu: 1.5}},
	{"matern2.5/r0.3+nugget1e-4", KernelSpec{Family: "matern", Range: 0.3, Nu: 2.5, Nugget: 1e-4}},
}

// approxIndefinite names the rows of TestApproximationsMatchDense whose
// approximate factor is indefinite: the smoothest fields (Matérn ν 2.5),
// whose covariances are the worst conditioned, at the loosest tolerances,
// where the tile errors a tolerance allows reach the smallest eigenvalues —
// a conditioning limit of the approximation, not an engine fault. A row that joins or leaves this set
// fails the test until the set is edited and the cause named.
var approxIndefinite = map[string]bool{
	"matern2.5/r0.1/kernel/tlr/tol0.0001":                 true,
	"matern2.5/r0.1/sigma/tlr/tol0.0001":                  true,
	"matern2.5/r0.1/sigma/adaptive/tol0.0001":             true,
	"matern2.5/r0.3+nugget1e-4/kernel/tlr/tol0.0001":      true,
	"matern2.5/r0.3+nugget1e-4/kernel/tlr/tol1e-06":       true,
	"matern2.5/r0.3+nugget1e-4/kernel/adaptive/tol0.0001": true,
	"matern2.5/r0.3+nugget1e-4/sigma/tlr/tol0.0001":       true,
	"matern2.5/r0.3+nugget1e-4/sigma/tlr/tol1e-06":        true,
	"matern2.5/r0.3+nugget1e-4/sigma/adaptive/tol0.0001":  true,
	"matern2.5/r0.3+nugget1e-4/sigma/adaptive/tol1e-06":   true,
}

// TestApproximationsMatchDense: every approxRows row answers the box [−3, 3]
// within 1e-4 relative of the dense factor's answer at the same QMC shifts,
// or — exactly the rows approxIndefinite names — fails with
// ErrApproximationIndefinite: never a silently truncated factor's answer,
// never an untyped failure. The shared shifts cancel most of
// the sampling error, not all of it: the worst row's gap to dense reads
// 4.1e-5 at N = 4000 on one replicate and at 2000 on four, but 1.1e-4 at
// 2000 on one and 2.7e-4 at 1000 on two, so N stays where the gap has
// converged.
func TestApproximationsMatchDense(t *testing.T) {
	const tile, relTol = 64, 1e-4
	locs := Grid(32, 32)
	n := len(locs)
	a, b := make([]float64, n), make([]float64, n)
	for i := range a {
		a[i], b[i] = -3, 3
	}
	query := func(cfg Config, k KernelSpec, sigma [][]float64) (Result, error) {
		cfg.Workers, cfg.TileSize, cfg.QMCSize = 2, tile, 4000
		s := NewSession(cfg)
		defer s.Close()
		if sigma != nil {
			return s.MVNProbCov(sigma, a, b)
		}
		return s.MVNProb(locs, k, a, b)
	}
	start := time.Now()
	indefinite, worst := 0, 0.0
	for _, row := range approxRows {
		sigma := CovarianceMatrix(locs, row.kernel)
		for _, src := range []string{"kernel", "sigma"} {
			var in [][]float64
			if src == "sigma" {
				in = sigma
			}
			dense, err := query(Config{Method: Dense}, row.kernel, in)
			if err != nil {
				t.Fatalf("%s/%s: dense: %v", row.name, src, err)
			}
			for _, m := range []Method{TLR, MethodAdaptive} {
				for _, tol := range []float64{1e-4, 1e-6, 1e-8} {
					name := fmt.Sprintf("%s/%s/%v/tol%g", row.name, src, m, tol)
					res, err := query(Config{Method: m, TLRTol: tol}, row.kernel, in)
					switch {
					case errors.Is(err, ErrApproximationIndefinite):
						indefinite++
						if !approxIndefinite[name] {
							t.Errorf("%s: indefinite, and not a row approxIndefinite names: %v", name, err)
						}
					case err != nil:
						t.Errorf("%s: untyped failure: %v", name, err)
					case approxIndefinite[name]:
						t.Errorf("%s: answered %.10g, but approxIndefinite names it as indefinite", name, res.Prob)
					default:
						rel := math.Abs(res.Prob-dense.Prob) / dense.Prob
						worst = math.Max(worst, rel)
						if !(rel <= relTol) {
							t.Errorf("%s: %.10g, dense %.10g: %.2e relative, want ≤ %g", name, res.Prob, dense.Prob, rel, relTol)
						}
					}
				}
			}
		}
	}
	if indefinite != len(approxIndefinite) {
		t.Errorf("%d rows indefinite, approxIndefinite names %d", indefinite, len(approxIndefinite))
	}
	t.Logf("%d rows indefinite, worst %.2e relative, %v", indefinite, worst, time.Since(start))
}
