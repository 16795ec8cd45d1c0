package mvn

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/linalg"
	"repro/internal/taskrt"
)

// leadingBlock returns the limits of the query PMVNPrefix entry k-1 stands
// for: rows 0…k-1 as given, everything after them free.
func leadingBlock(a, b []float64, k int) (ak, bk []float64) {
	ak, bk = append([]float64(nil), a...), append([]float64(nil), b...)
	for i := k; i < len(a); i++ {
		ak[i], bk[i] = math.Inf(-1), math.Inf(1)
	}
	return ak, bk
}

// relClose is |got − want| ≤ tol·|want| (exact equality at want = 0).
func relClose(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol*math.Abs(want)
}

// TestPrefixMatchesLeadingBlocks: one PMVNPrefix sweep equals n separate
// leading-block PMVN calls on the same lattice — on all three layouts,
// with a ragged last tile (45 = 5·8 + 5), N not a multiple of the lane width,
// free rows inside the prefix and a free tail, one replicate and three (the
// per-prefix StdErr is then the replicate spread of the separate calls),
// inline and as column tasks.
func TestPrefixMatchesLeadingBlocks(t *testing.T) {
	const n, ts, N = 45, 8, 150
	rt := taskrt.New(3)
	defer rt.Shutdown()
	rng := rand.New(rand.NewSource(21))
	sigma := randomSPD(n, rng)
	a, b := randomLimits(n, rng)
	a[n-1], b[n-1] = math.Inf(-1), math.Inf(1) // free tail: trimFree cuts it
	a[n-2], b[n-2] = math.Inf(-1), math.Inf(1)
	free := 0
	for i := range a {
		if math.IsInf(a[i], -1) && math.IsInf(b[i], 1) {
			free++
		}
	}
	if free < 5 {
		t.Fatalf("only %d free rows: the box no longer exercises the free-row paths", free)
	}
	dense := denseFactorOn(t, rt, sigma, ts)
	for name, f := range map[string]*Factor{
		"dense": dense, "tlr": tlrFactorOn(t, rt.NewGroup(), sigma, ts, 1e-13), "grid": gridFromDense(dense),
	} {
		for _, reps := range []int{1, 3} {
			opt := Options{N: N, Replicates: reps}
			got := PMVNPrefix(rt, f, a, b, opt)
			inline := PMVNPrefix(nil, f, a, b, opt)
			if (got.StdErr != nil) != (reps >= 2) || len(got.Prob) != n {
				t.Fatalf("%s reps=%d: %d probs, StdErr nil = %v", name, reps, len(got.Prob), got.StdErr == nil)
			}
			for k := 1; k <= n; k++ {
				ak, bk := leadingBlock(a, b, k)
				want := PMVN(rt, f, ak, bk, opt)
				if !relClose(got.Prob[k-1], want.Prob, 1e-13) {
					t.Errorf("%s reps=%d prefix %d: %v, separate call %v", name, reps, k, got.Prob[k-1], want.Prob)
				}
				if reps >= 2 && !relClose(got.StdErr[k-1], want.StdErr, 1e-9) {
					t.Errorf("%s reps=%d prefix %d: StdErr %v, separate call %v", name, reps, k, got.StdErr[k-1], want.StdErr)
				}
				if inline.Prob[k-1] != got.Prob[k-1] || (reps >= 2 && inline.StdErr[k-1] != got.StdErr[k-1]) {
					t.Errorf("%s reps=%d prefix %d: inline %v != tasks %v", name, reps, k, inline.Prob[k-1], got.Prob[k-1])
				}
				if k > 1 && got.Prob[k-1] > got.Prob[k-2] {
					t.Errorf("%s reps=%d: prefix %d increases: %v > %v", name, reps, k, got.Prob[k-1], got.Prob[k-2])
				}
			}
			// The plain query is untouched by the accumulator next to it.
			if full := PMVN(rt, f, a, b, opt); full.Prob != got.Prob[n-1] {
				t.Errorf("%s reps=%d: PMVN %v != last prefix %v", name, reps, full.Prob, got.Prob[n-1])
			}
		}
	}
}

// TestPrefixAllLanesDie: once every lane of every column is dead the sweep
// stops, and the prefixes it never reached are exactly 0 — not whatever the
// pooled column buffers held.
func TestPrefixAllLanesDie(t *testing.T) {
	const n, ts, N, dead = 60, 16, 96, 21 // row 21 is inside tile 1
	rng := rand.New(rand.NewSource(5))
	f := denseFactor(t, randomSPD(n, rng), ts)
	a, b := make([]float64, n), posInf(n)
	for i := range a {
		a[i] = -1
	}
	a[dead], b[dead] = 2, 1 // empty interval: kills every lane
	// Dirty the pool classes the column buffers come from.
	for _, sz := range []int{n, 2 * n, 3 * n} {
		v := linalg.GetVec(sz)
		for i := range v {
			v[i] = 7
		}
		linalg.PutVec(&v)
	}
	for _, reps := range []int{1, 2} {
		got := PMVNPrefix(nil, f, a, b, Options{N: N, Replicates: reps})
		for i, p := range got.Prob {
			switch {
			case i < dead && !(p > 0 && p <= 1):
				t.Errorf("reps=%d prefix %d: %v, want in (0,1]", reps, i+1, p)
			case i >= dead && p != 0:
				t.Errorf("reps=%d prefix %d: %v after every lane died, want exactly 0", reps, i+1, p)
			}
			if reps >= 2 && i >= dead && got.StdErr[i] != 0 {
				t.Errorf("reps=%d prefix %d: StdErr %v, want 0", reps, i+1, got.StdErr[i])
			}
		}
	}
}

// TestPrefixIgnoresBudgets: the options PMVNPrefix documents as ignored
// change nothing, bit for bit.
func TestPrefixIgnoresBudgets(t *testing.T) {
	const n, ts = 40, 8
	rng := rand.New(rand.NewSource(8))
	f := denseFactor(t, randomSPD(n, rng), ts)
	a, b := randomLimits(n, rng)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	want := PMVNPrefix(nil, f, a, b, Options{N: 128})
	got := PMVNPrefix(nil, f, a, b, Options{N: 128, MaxRelErr: 0.5, Deadline: time.Now().Add(-time.Hour), Ctx: ctx})
	for i := range want.Prob {
		if got.Prob[i] != want.Prob[i] {
			t.Fatalf("prefix %d: %v with MaxRelErr/Deadline/Ctx set, %v without", i+1, got.Prob[i], want.Prob[i])
		}
	}
	if want.Prob[0] <= 0 {
		t.Fatalf("first prefix %v: vacuous", want.Prob[0])
	}
}

// TestPrefixAllFree: nothing constrained — every prefix is 1 and no sweep runs.
func TestPrefixAllFree(t *testing.T) {
	const n = 12
	f := denseFactor(t, randomSPD(n, rand.New(rand.NewSource(2))), 4)
	a, b := make([]float64, n), posInf(n)
	for i := range a {
		a[i] = math.Inf(-1)
	}
	for _, reps := range []int{1, 2} {
		got := PMVNPrefix(nil, f, a, b, Options{N: 32, Replicates: reps})
		for i, p := range got.Prob {
			if p != 1 {
				t.Errorf("reps=%d prefix %d: %v, want 1", reps, i+1, p)
			}
		}
	}
}

// TestPrefixMostlyDeadLanes: the sparse path (most lanes dead after row 1,
// see TestBlockedSweepMostlyDeadLanes) records the same sums.
func TestPrefixMostlyDeadLanes(t *testing.T) {
	const n, ts, N = 100, 40, 512
	sigma := linalg.NewMatrix(n, n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			sigma.Set(i, j, 0.999)
		}
		sigma.Set(j, j, 1)
	}
	a, b := make([]float64, n), posInf(n)
	a[0] = math.Inf(-1)
	for i := 1; i < n; i++ {
		a[i] = 1
	}
	f := denseFactor(t, sigma, ts)
	opt := Options{N: N}
	got := PMVNPrefix(nil, f, a, b, opt)
	if last := got.Prob[n-1]; last <= 0 || last >= 0.5 {
		t.Fatalf("full-dimension estimate %v: the box no longer kills most lanes but not all", last)
	}
	for _, k := range []int{1, 2, 3, 40, 41, 77, n} {
		ak, bk := leadingBlock(a, b, k)
		if want := PMVN(nil, f, ak, bk, opt).Prob; !relClose(got.Prob[k-1], want, 1e-13) {
			t.Errorf("prefix %d: %v, separate call %v", k, got.Prob[k-1], want)
		}
	}
}
