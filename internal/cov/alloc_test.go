package cov

import (
	"math"
	"testing"
)

// TestFillZeroAllocs: a run of every kernel family — the half-integer closed
// form, the Bessel form, the scalar loop, under a nugget or not — allocates
// nothing. The streaming assemblers call Fill O(rank) times per tile from
// every assembly task.
func TestFillZeroAllocs(t *testing.T) {
	g := scatteredWithDuplicates(256, 3)
	dst := make([]float64, g.Len())
	for name, k := range fillKernels() {
		run := func() { Fill(k, dst, g.Pts, g.Pts[4]) }
		if got := testing.AllocsPerRun(10, run); got != 0 {
			t.Errorf("%s: Fill allocated %v times per run, want 0", name, got)
		}
		if math.IsNaN(dst[0]) {
			t.Errorf("%s: Fill wrote NaN", name)
		}
	}
}
