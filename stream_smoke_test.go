package parmvn

import (
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// streamSmokeHeapCeiling is the checked-in peak-heap budget for the n=4096
// streaming TLR factorization below. The dense covariance alone would be
// 8·4096² = 128 MiB; the streaming path (kernel-direct ACA assembly fused
// into the task graph, windowed submission) must stay far under it. The
// ceiling carries slack over the observed peak so kernel-level churn does
// not flake CI, while still catching any regression that re-materializes
// the dense matrix.
const streamSmokeHeapCeiling = 64 << 20

// TestStreamingMemorySmoke is the CI guard for the out-of-core-shaped
// factorization path: build the TLR factor for n = 4096 directly from the
// kernel while sampling the Go heap, and require the peak to stay under the
// checked-in ceiling. Runs in short mode by design.
func TestStreamingMemorySmoke(t *testing.T) {
	const side = 64 // n = 4096
	s := NewSession(Config{Method: TLR, TileSize: 256, TLRTol: 1e-4, QMCSize: 200, Replicates: 1})
	defer s.Close()
	locs := Grid(side, side)
	n := len(locs)
	kernel := KernelSpec{Family: "exponential", Range: 0.1}

	runtime.GC()
	var peak atomic.Uint64
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peak.Load() {
				peak.Store(ms.HeapAlloc)
			}
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	fp, err := s.FactorFootprint(locs, kernel)
	close(stop)
	<-done
	if err != nil {
		t.Fatal(err)
	}

	if fp.LowRank == 0 {
		t.Errorf("no low-rank tiles in the streamed TLR factor: %+v", fp)
	}
	denseLower := 8 * int64(n) * int64(n+s.Config().TileSize) / 2
	if fp.Bytes >= denseLower/2 {
		t.Errorf("factor footprint %d bytes, want well under the %d-byte dense lower triangle", fp.Bytes, denseLower)
	}
	got := peak.Load()
	t.Logf("peak HeapAlloc %.1f MiB (ceiling %d MiB), factor %.1f MiB, mix %d/%d",
		float64(got)/(1<<20), streamSmokeHeapCeiling>>20,
		float64(fp.Bytes)/(1<<20), fp.Dense64, fp.LowRank)
	if raceEnabled {
		// The race detector's shadow memory and its intentional sync.Pool
		// put-dropping inflate the heap; the ceiling is only meaningful on
		// uninstrumented builds.
		return
	}
	if got > streamSmokeHeapCeiling {
		t.Errorf("peak HeapAlloc %d exceeds the streaming ceiling %d", got, streamSmokeHeapCeiling)
	}
}

// TestClosedSessionMemorySmoke: a *Session held past Close pins no factor.
// Two sessions share one cache; closing the first keeps its counters and
// leaves the cache whole for the second, which still hits. Closing the
// second, the last sharer, makes the factor collectable while both *Session
// values stay reachable: after a GC the heap has fallen by at least the
// factor's payload.
func TestClosedSessionMemorySmoke(t *testing.T) {
	cfg := Config{Method: Dense, TileSize: 64, QMCSize: 200}
	s, peer := NewSession(cfg), NewSession(cfg)
	peer.ShareCache(s)
	locs := Grid(32, 32) // n = 1024: a 4.4 MB dense factor
	kernel := KernelSpec{Family: "exponential", Range: 0.1}
	a, b := make([]float64, len(locs)), make([]float64, len(locs))
	for i := range a {
		a[i], b[i] = -1, math.Inf(1)
	}
	fp, err := s.FactorFootprint(locs, kernel)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.MVNProb(locs, kernel, a, b); err != nil {
		t.Fatal(err)
	}
	hits, misses := s.Cache().Stats()
	waits := s.Cache().Waits()

	s.Close()
	if h, m := s.Cache().Stats(); h != hits || m != misses || s.Cache().Waits() != waits {
		t.Errorf("closed session's cache reads %d hits, %d misses, %d waits; before Close %d, %d, %d",
			h, m, s.Cache().Waits(), hits, misses, waits)
	}
	if n := s.Cache().Len(); n != 0 {
		t.Errorf("closed session still holds %d factors", n)
	}
	if _, err := peer.MVNProb(locs, kernel, a, b); err != nil {
		t.Fatal(err)
	}
	if h, m := peer.Cache().Stats(); h != hits+1 || m != misses {
		t.Errorf("sharer after the first Close: %d hits, %d misses, want %d and %d (a hit)", h, m, hits+1, misses)
	}

	var ms runtime.MemStats
	runtime.GC()
	runtime.GC() // and the pools' victim caches
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	peer.Close()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	freed := int64(before) - int64(ms.HeapAlloc)
	t.Logf("heap %.1f → %.1f MiB after the last Close, factor %.1f MiB",
		float64(before)/(1<<20), float64(ms.HeapAlloc)/(1<<20), float64(fp.Bytes)/(1<<20))
	if freed < fp.Bytes {
		t.Errorf("closing the last sharer freed %d bytes, want at least the factor's %d", freed, fp.Bytes)
	}
	runtime.KeepAlive(s)
	runtime.KeepAlive(peer)
}
