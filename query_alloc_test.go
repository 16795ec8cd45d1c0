package parmvn

import (
	"hash/fnv"
	"math"
	"runtime/debug"
	"testing"
	"time"
)

// TestWarmQueryZeroAllocs pins the warm serving path: once the factor cache
// holds the Cholesky factor, a whole MVNProb — content hash, cache hit,
// pooled chain-blocked integration — performs zero heap allocations. A
// single worker forces the inline sweep (the same evaluation the batch
// fan-out runs per query); GC is paused so sync.Pool contents survive the
// measurement.
func TestWarmQueryZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under the race detector")
	}
	s := NewSession(Config{Workers: 1, TileSize: 16, QMCSize: 200})
	defer s.Close()
	locs := Grid(8, 8)
	n := len(locs)
	kernel := KernelSpec{Family: "exponential", Range: 0.2}
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = -1
		b[i] = math.Inf(1)
	}
	warm := func() {
		if _, err := s.MVNProb(locs, kernel, a, b); err != nil {
			t.Fatal(err)
		}
	}
	warm() // factorize once; later calls hit the cache
	warm() // settle the workspace pools
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if allocs := testing.AllocsPerRun(20, warm); allocs != 0 {
		t.Errorf("warm MVNProb allocated %.1f times per query, want 0", allocs)
	}
}

// TestWarmQueryZeroAllocsEarlyStop: a warm budgeted query — accuracy target
// plus deadline, so the integration loop runs several waves and its stop test
// — must also be allocation-free: the wave state, the pooled shifted
// generators and the replicate accumulators all come from pools.
func TestWarmQueryZeroAllocsEarlyStop(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under the race detector")
	}
	s := NewSession(Config{Workers: 1, TileSize: 16, QMCSize: 200})
	defer s.Close()
	locs := Grid(8, 8)
	n := len(locs)
	kernel := KernelSpec{Family: "exponential", Range: 0.2}
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = -1
		b[i] = math.Inf(1)
	}
	opts := QueryOpts{MaxRelErr: 1e-2, Budget: time.Second}
	warm := func() {
		if _, err := s.MVNProbOpts(locs, kernel, a, b, opts); err != nil {
			t.Fatal(err)
		}
	}
	warm() // factorize once; later calls hit the cache
	warm() // settle the workspace and wave-state pools
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if allocs := testing.AllocsPerRun(20, warm); allocs != 0 {
		t.Errorf("warm budgeted MVNProbOpts allocated %.1f times per query, want 0", allocs)
	}
}

// TestWarmQueryZeroAllocsSweepF32: the f32 sweep's shadow factor is built
// lazily on the first query; once it exists, the warm path — one atomic
// load plus the pooled f32 conditioning buffers — must also be
// allocation-free.
func TestWarmQueryZeroAllocsSweepF32(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under the race detector")
	}
	s := NewSession(Config{Workers: 1, TileSize: 16, QMCSize: 200, SweepF32: true})
	defer s.Close()
	locs := Grid(8, 8)
	n := len(locs)
	kernel := KernelSpec{Family: "exponential", Range: 0.2}
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = -1
		b[i] = math.Inf(1)
	}
	warm := func() {
		if _, err := s.MVNProb(locs, kernel, a, b); err != nil {
			t.Fatal(err)
		}
	}
	warm() // factorize once and build the f32 shadow
	warm() // settle the workspace pools
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if allocs := testing.AllocsPerRun(20, warm); allocs != 0 {
		t.Errorf("warm f32-sweep MVNProb allocated %.1f times per query, want 0", allocs)
	}
}

// TestWarmMVTQueryZeroAllocs: the Student-t path shares the pooled sweep
// (plus its per-lane χ² scales) and must stay allocation-free too.
func TestWarmMVTQueryZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under the race detector")
	}
	s := NewSession(Config{Workers: 1, TileSize: 16, QMCSize: 200})
	defer s.Close()
	locs := Grid(6, 6)
	n := len(locs)
	kernel := KernelSpec{Family: "exponential", Range: 0.2}
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = -1.5
		b[i] = 1
	}
	warm := func() {
		if _, err := s.MVTProb(locs, kernel, 5, a, b); err != nil {
			t.Fatal(err)
		}
	}
	warm()
	warm()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if allocs := testing.AllocsPerRun(20, warm); allocs != 0 {
		t.Errorf("warm MVTProb allocated %.1f times per query, want 0", allocs)
	}
}

// TestFNV128aMatchesStdlib pins the inline allocation-free FNV-1a/128
// implementation the cache keys use against hash/fnv byte for byte.
func TestFNV128aMatchesStdlib(t *testing.T) {
	vals := []float64{0, 1, -1, math.Pi, 1e300, -1e-300, math.Inf(1), 0.5}
	ref := fnv.New128a()
	var buf [8]byte
	h := newFNV128a()
	for _, v := range vals {
		u := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			buf[i] = byte(u >> (8 * i))
		}
		ref.Write(buf[:])
		h.writeFloat(v)
	}
	var want [2]uint64
	for i, c := range ref.Sum(nil) {
		want[i/8] = want[i/8]<<8 | uint64(c)
	}
	if got := h.sum(); got != want {
		t.Errorf("fnv128a = %x, stdlib %x", got, want)
	}
}
