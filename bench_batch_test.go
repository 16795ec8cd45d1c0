// Benchmarks for the batched MVN query path: one factorization amortized
// over a batch of queries (the session factor cache) plus parallel fan-out
// across the task runtime, against the pre-batching baseline of independent
// sequential MVNProb calls that each re-assemble and re-factorize Σ.
//
// The headline comparison at n=1024:
//
//	go test -bench BenchmarkBatchVsSequential -benchtime 3x
package parmvn

import (
	"fmt"
	"math"
	"testing"
)

const (
	batchBenchSide    = 32 // n = 1024
	batchBenchQueries = 10
)

func batchBenchInputs() ([]Point, KernelSpec, []Bounds) {
	locs := Grid(batchBenchSide, batchBenchSide)
	kernel := KernelSpec{Family: "exponential", Range: 0.1}
	n := len(locs)
	queries := make([]Bounds, batchBenchQueries)
	for q := range queries {
		lo := -1.0 + 1.2*float64(q)/float64(batchBenchQueries-1)
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = lo
			b[i] = math.Inf(1)
		}
		queries[q] = Bounds{A: a, B: b}
	}
	return locs, kernel, queries
}

// batchBenchConfig uses the paper's TLR method, where the amortized work —
// covariance assembly, TLR compression and TLR Cholesky — dominates a
// single query's QMC integration, so caching the factor pays off even on
// one core; with more workers the parallel query fan-out compounds it.
func batchBenchConfig() Config {
	return Config{Method: TLR, QMCSize: 500, TileSize: 64}
}

// BenchmarkBatchVsSequential is the acceptance benchmark: Sequential is 10
// independent MVNProb calls, the factor cache purged before each (every call
// pays assembly + compression + factorization, the seed behavior); BatchWarm is
// one MVNProbBatch against a session whose factor cache already holds the
// factor. Compare ns/op directly — both do the same 10 queries per op.
func BenchmarkBatchVsSequential(b *testing.B) {
	locs, kernel, queries := batchBenchInputs()

	b.Run("Sequential", func(b *testing.B) {
		s := NewSession(batchBenchConfig())
		defer s.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, q := range queries {
				s.Cache().Purge()
				if _, err := s.MVNProb(locs, kernel, q.A, q.B); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("BatchWarm", func(b *testing.B) {
		s := NewSession(batchBenchConfig())
		defer s.Close()
		// Warm the factor cache, then measure steady-state batches.
		if _, err := s.MVNProbBatch(locs, kernel, queries[:1]); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.MVNProbBatch(locs, kernel, queries); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBatchScaling shows how one warm-cache batch scales with the
// number of queries sharing the factor.
func BenchmarkBatchScaling(b *testing.B) {
	locs, kernel, queries := batchBenchInputs()
	for _, nq := range []int{1, 4, 10} {
		nq := nq
		b.Run(fmt.Sprintf("queries=%d", nq), func(b *testing.B) {
			s := NewSession(batchBenchConfig())
			defer s.Close()
			if _, err := s.MVNProbBatch(locs, kernel, queries[:1]); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.MVNProbBatch(locs, kernel, queries[:nq]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFactorCache isolates the cache itself: a cache hit versus a full
// assemble + factorize miss at n=1024.
func BenchmarkFactorCache(b *testing.B) {
	locs, kernel, queries := batchBenchInputs()
	single := queries[:1]

	b.Run("Miss", func(b *testing.B) {
		s := NewSession(batchBenchConfig())
		defer s.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Cache().Purge()
			if _, err := s.MVNProbBatch(locs, kernel, single); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Hit", func(b *testing.B) {
		s := NewSession(batchBenchConfig())
		defer s.Close()
		if _, err := s.MVNProbBatch(locs, kernel, single); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.MVNProbBatch(locs, kernel, single); err != nil {
				b.Fatal(err)
			}
		}
	})
}
