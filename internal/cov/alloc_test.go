package cov

import (
	"math"
	"testing"
)

// TestFillZeroAllocs: a run of every kernel family — the half-integer closed
// form, the Bessel form, the scalar loop, under a nugget or not — allocates
// nothing, on the scalar loop and on the vector body. The streaming
// assemblers call Fill O(rank) times per tile from every assembly task.
func TestFillZeroAllocs(t *testing.T) {
	g := scatteredWithDuplicates(256, 3)
	dst := make([]float64, g.Len())
	paths := []bool{false}
	if fillVec {
		paths = append(paths, true)
	}
	for _, vec := range paths {
		for name, k := range fillKernels() {
			var got float64
			withFillVec(vec, func() {
				got = testing.AllocsPerRun(10, func() { Fill(k, dst, g.Pts, g.Pts[4]) })
			})
			if got != 0 {
				t.Errorf("%s (vector %v): Fill allocated %v times per run, want 0", name, vec, got)
			}
			if math.IsNaN(dst[0]) {
				t.Errorf("%s (vector %v): Fill wrote NaN", name, vec)
			}
		}
	}
}
