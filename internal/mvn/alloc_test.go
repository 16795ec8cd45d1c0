//go:build !race

package mvn

import (
	"math"
	"runtime/debug"
	"testing"
)

// TestWarmPrefixZeroAllocs: PMVNPrefix allocates its result and nothing per
// row or per lane block — the per-replicate row sums, the estimator's column,
// Prob, and StdErr when there is a spread — so its count is the same at two
// dimensions; the integration under it is PMVN's pooled one, which allocates
// only the math/rand shift source of a replicated fixed-N query
// (waveState.open). (The race detector drops sync.Pool puts, hence the build
// tag.)
func TestWarmPrefixZeroAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	factors := map[int]*Factor{}
	for _, n := range []int{40, 100} {
		factors[n] = denseFactor(t, equicorrMatrix(n, 0.5), 16)
	}
	for _, reps := range []int{1, 3} {
		want := 3.0 // acc, col, Prob
		if reps >= 2 {
			want += 2 // StdErr and the shift source
		}
		for n, f := range factors {
			a, b := make([]float64, n), posInf(n)
			for i := range a {
				a[i] = -1 + 0.5*math.Sin(float64(i))
			}
			opt := Options{N: 96, Replicates: reps}
			run := func() { PMVNPrefix(nil, f, a, b, opt) }
			run()
			run()
			if got := testing.AllocsPerRun(10, run); got != want {
				t.Errorf("n=%d reps=%d: PMVNPrefix allocated %v times per call, want %v (its result slices)",
					n, reps, got, want)
			}
		}
	}
}
