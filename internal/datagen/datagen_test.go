package datagen

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cov"
	"repro/internal/geo"
	"repro/internal/linalg"
)

func TestSimulateMomentsMatchKernel(t *testing.T) {
	// Across many realizations, the sample variance at each point matches
	// σ² and the lag-1 correlation matches the kernel.
	rng := rand.New(rand.NewSource(1))
	g := geo.RegularGrid(6, 6)
	k := &cov.Exponential{Sigma2: 2, Range: 0.3}
	const reps = 3000
	n := g.Len()
	sum2 := make([]float64, n)
	cross := 0.0
	for r := 0; r < reps; r++ {
		f, err := Simulate(g, k, rng)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range f.Values {
			sum2[i] += v * v
		}
		cross += f.Values[0] * f.Values[1]
	}
	for i := 0; i < n; i++ {
		if v := sum2[i] / reps; math.Abs(v-2) > 0.25 {
			t.Errorf("variance at %d = %v, want 2", i, v)
		}
	}
	wantCov := k.Cov(g.Dist(0, 1))
	if got := cross / reps; math.Abs(got-wantCov) > 0.2 {
		t.Errorf("lag-1 covariance %v, want %v", got, wantCov)
	}
}

func TestSyntheticDatasetShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ds, err := NewSyntheticDataset(8, 20, "medium", rng)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Field.Geom.Len() != 64 {
		t.Errorf("field size %d", ds.Field.Geom.Len())
	}
	if len(ds.ObsIdx) != 20 || len(ds.Y) != 20 {
		t.Errorf("obs sizes %d,%d", len(ds.ObsIdx), len(ds.Y))
	}
	if ds.PostCov.Rows != 64 || len(ds.PostMu) != 64 {
		t.Errorf("posterior sizes %dx%d, %d", ds.PostCov.Rows, ds.PostCov.Cols, len(ds.PostMu))
	}
	// Posterior variance at observed locations is below the prior variance.
	for _, i := range ds.ObsIdx {
		if ds.PostCov.At(i, i) >= 1 {
			t.Errorf("posterior variance %v at observed location %d", ds.PostCov.At(i, i), i)
		}
	}
}

func TestSyntheticDatasetUnknownLevel(t *testing.T) {
	if _, err := NewSyntheticDataset(4, 4, "extreme", rand.New(rand.NewSource(1))); err == nil {
		t.Error("want error for unknown correlation level")
	}
}

func TestSyntheticDatasetLevels(t *testing.T) {
	// All three paper levels must build successfully.
	for level := range PaperSyntheticRanges {
		rng := rand.New(rand.NewSource(7))
		if _, err := NewSyntheticDataset(6, 10, level, rng); err != nil {
			t.Errorf("level %s: %v", level, err)
		}
	}
}

// nearPairKernel is not a covariance: sites closer than 0.011 covary by 1.5
// against a variance of 1, so any such pair makes Σ indefinite.
type nearPairKernel struct{}

func (nearPairKernel) Cov(h float64) float64 {
	switch {
	case h == 0:
		return 1
	case h < 0.011:
		return 1.5
	}
	return 0
}
func (nearPairKernel) Variance() float64 { return 1 }
func (nearPairKernel) Params() []float64 { return nil }

// An indefinite Σ is refused as "covariance not PD" wrapping
// linalg.ErrNotPositiveDefinite, also when the failing pivot lies in a late
// step of the factorization (the pair at sites 298 and 299).
func TestSimulateNotPositiveDefinite(t *testing.T) {
	g := &geo.Geom{Pts: make([]geo.Point, 300)}
	for i := range g.Pts {
		g.Pts[i] = geo.Point{X: 0.02 * float64(i)}
	}
	g.Pts[299] = geo.Point{X: g.Pts[298].X, Y: 0.01}
	_, err := Simulate(g, nearPairKernel{}, rand.New(rand.NewSource(1)))
	if !errors.Is(err, linalg.ErrNotPositiveDefinite) || !strings.Contains(err.Error(), "covariance not PD") {
		t.Fatalf("err = %v, want covariance not PD", err)
	}
}
