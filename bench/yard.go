package main

import (
	"sync"
	"time"

	"repro/internal/linalg"
)

// The yardstick is a fixed computation timed at the start of every round, on
// both workers at once. The reference host runs in phases that last from
// seconds to minutes: over 400 s a 256² GEMM took between 9.1 and 14.7 ms
// and a batch of vector erfc moved with it to within 3 %, while scalar
// floating point slowed by 1.27 where they slowed by 1.6. A run that falls
// wholly into a slow phase has no fast round for op_ms to pick; its fastest
// yardstick reading shows that, and the run's timings are divided by that
// reading's excess over yardNominalMs. In the host's normal state the
// fastest reading of a run is 10.7 to 14.2 ms, below the nominal one, and
// nothing is corrected: two-sided scaling by the reading was tried and
// doubled the spread of calm runs, because the reading's own noise is as
// large as theirs.
//
// The workloads are part vector kernels (GEMM, the special functions, the
// sweep's updates), part scalar Go, so a reading is one pass of each kind:
// eight scalar multiply-add chains, and ten chains of 4-wide fused
// multiply-adds from yard_amd64.s where the library uses its vector kernels
// (linalg.HasVectorKernels; elsewhere the scalar pass runs twice). Both are
// the benchmark's own code: no change to the repository moves them.
const (
	yardScalarSteps = 3000000
	yardVectorSteps = 4000000
	// yardNominalMs is the reading the reference host stays under whenever
	// it is in its normal state for part of a run.
	yardNominalMs = 14.5
)

func yardScalar() {
	a0, a1, a2, a3, a4, a5, a6, a7 := 1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7
	const m, c = 0.9999999, 1e-9
	for i := 0; i < yardScalarSteps; i++ {
		a0 = a0*m + c
		a1 = a1*m + c
		a2 = a2*m + c
		a3 = a3*m + c
		a4 = a4*m + c
		a5 = a5*m + c
		a6 = a6*m + c
		a7 = a7*m + c
	}
	sink += a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7
}

func yardVector() {
	if !linalg.HasVectorKernels() {
		yardScalar()
		return
	}
	x := [4]float64{1, 1.1, 1.2, 1.3}
	fmaChains(yardVectorSteps, &x)
	sink += x[0]
}

// yardstick takes one reading, in milliseconds: each pass on every worker at
// once, timed until the last worker is done.
func yardstick() float64 {
	t0 := time.Now()
	for _, pass := range []func(){yardScalar, yardVector} {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				pass()
			}()
		}
		wg.Wait()
	}
	return float64(time.Since(t0)) / 1e6
}
