package serve

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// TestServeConcurrentMixedLoad hammers one Server from 32 goroutines with a
// mixed workload over overlapping problem keys — four kernels × two methods,
// MVN and MVT, all racing through the shared cold-key builds and session
// caches — and pins the serving invariants:
//
//   - exactly-once factorization per key: the aggregated session cache
//     misses and the admitted factorizations both equal the number of
//     distinct problem keys touched (each key is built once, no matter how
//     many clients collided on it cold, MVN and MVT alike);
//   - no lost or duplicated responses: every request returns exactly one
//     result, and all results for one (problem, ν) tuple are identical
//     (the engine is deterministic, so any cross-request state bleed would
//     show up as a mismatch).
//
// The test is race-gated: it exists to put the race detector (as CI runs
// it) over the build/shard/cache interleavings, not to re-test
// single-threaded behavior.
func TestServeConcurrentMixedLoad(t *testing.T) {
	if !raceEnabled {
		t.Skip("stress test is race-gated: run with -race")
	}
	cfg := testConfig()
	cfg.Session.FactorCacheCap = 16 // no eviction: makes miss counts exact
	// This test pins coalescing and response integrity, not admission: all
	// 8 keys can lead cold builds at once, so give them headroom that the
	// default queue depth does not.
	cfg.MaxInflightFactor = 4
	cfg.FactorQueueDepth = 64
	srv := New(cfg)
	defer srv.Close()

	ranges := []float64{0.1, 0.2, 0.3, 0.4}
	methods := []string{"dense", "tlr"}
	nus := []float64{0, 5} // 0 = MVN
	type tuple struct {
		ri, mi, ni int
	}

	const (
		goroutines = 32
		iters      = 12
	)
	var (
		mu     sync.Mutex
		seen   = map[tuple]float64{}
		gotN   int
		wg     sync.WaitGroup
		gate   = make(chan struct{})
		failed = make(chan string, goroutines*iters)
	)
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 1))
			<-gate
			for it := 0; it < iters; it++ {
				tp := tuple{rng.Intn(len(ranges)), rng.Intn(len(methods)), rng.Intn(len(nus))}
				req := testRequest(6, ranges[tp.ri])
				req.Method = methods[tp.mi]
				req.Nu = nus[tp.ni]
				resp, err := srv.Do(context.Background(), req)
				if err != nil {
					failed <- err.Error()
					continue
				}
				if resp.Prob < 0 || resp.Prob > 1 || math.IsNaN(resp.Prob) {
					failed <- "prob out of [0,1]"
					continue
				}
				mu.Lock()
				gotN++
				if prev, ok := seen[tp]; ok && prev != resp.Prob {
					mu.Unlock()
					failed <- "mismatched result for one problem tuple"
					continue
				}
				seen[tp] = resp.Prob
				mu.Unlock()
			}
		}(g)
	}
	close(gate)
	wg.Wait()
	close(failed)
	for msg := range failed {
		t.Fatal(msg)
	}
	if gotN != goroutines*iters {
		t.Fatalf("responses = %d, want %d (lost or duplicated)", gotN, goroutines*iters)
	}

	st := srv.Snapshot()
	// Distinct factorization problems = kernels × methods (ν shares the
	// factor). Not every tuple is necessarily drawn, so count what was.
	keys := map[[2]int]bool{}
	for tp := range seen {
		keys[[2]int{tp.ri, tp.mi}] = true
	}
	if st.CacheMisses != len(keys) {
		t.Fatalf("cache misses = %d, want exactly %d (one build per distinct key)", st.CacheMisses, len(keys))
	}
	if int(st.Factorizations) != st.CacheMisses {
		t.Fatalf("factorizations = %d, want exactly the %d cache misses (one lead per key)", st.Factorizations, st.CacheMisses)
	}
	if st.Requests != goroutines*iters {
		t.Fatalf("requests = %d, want %d", st.Requests, goroutines*iters)
	}
}

// TestServeConcurrentColdKeysUnderPressure mixes admission control with the
// mixed load: many goroutines race distinct cold keys through one
// factorization slot with a small queue, and every request must end in
// exactly one of (valid result, ErrOverloaded) — overload must shed, never
// wedge or corrupt.
func TestServeConcurrentColdKeysUnderPressure(t *testing.T) {
	if !raceEnabled {
		t.Skip("stress test is race-gated: run with -race")
	}
	cfg := testConfig()
	cfg.MaxInflightFactor = 1
	cfg.FactorQueueDepth = 2
	srv := New(cfg)
	defer srv.Close()

	const goroutines = 24
	var (
		wg        sync.WaitGroup
		succeeded atomic.Int64
		rejected  atomic.Int64
	)
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			req := testRequest(7, 0.05+0.007*float64(g)) // distinct cold keys
			resp, err := srv.Do(context.Background(), req)
			switch {
			case err == nil && resp.Prob >= 0 && resp.Prob <= 1:
				succeeded.Add(1)
			case err == ErrOverloaded:
				rejected.Add(1)
			default:
				t.Errorf("goroutine %d: unexpected outcome: %v", g, err)
			}
		}(g)
	}
	wg.Wait()
	if got := succeeded.Load() + rejected.Load(); got != goroutines {
		t.Fatalf("outcomes = %d, want %d", got, goroutines)
	}
	if succeeded.Load() == 0 {
		t.Fatal("every request was rejected; admission control is wedged")
	}
	st := srv.Snapshot()
	if st.Rejected != uint64(rejected.Load()) {
		t.Fatalf("rejected counter = %d, want %d", st.Rejected, rejected.Load())
	}
}
