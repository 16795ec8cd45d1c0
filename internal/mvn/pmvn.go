package mvn

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/taskrt"
)

// Options configures a PMVN integration.
type Options struct {
	// N is the QMC sample size (number of chains). Default 1000. The chains
	// run in lane blocks as wide as the factor's tiles (the m of Algorithm 3
	// along the sample axis), or N if that is smaller.
	N int
	// Replicates is the number of randomized-shift replicates of the
	// Richtmyer lattice (the paper's QMC point set) used for the error
	// estimate. Default 1 (no error estimate). Replicate 0 is the unshifted
	// lattice; the shifts are deterministic (see replicateShift).
	Replicates int
	// MaxRelErr > 0 is an accuracy budget. Any budget (this, Deadline or Ctx)
	// adds a stop test to the integration loop (see wave.go): samples accrue
	// one lane block per replicate per wave, and the loop stops at the first
	// wave boundary where the streaming relative-error estimate — the
	// replicate spread over the waves seen so far, relative to the running
	// estimate — is down to MaxRelErr. Under a budget N is the TOTAL across
	// replicates (so an unreachable target never costs more than the same
	// query without one), and Replicates below 2 is raised to 4 (the error
	// estimate needs a spread).
	MaxRelErr float64
	// Deadline, when nonzero, is a wall-clock budget: it is checked between
	// waves and the running estimate is returned (Converged false) once it
	// has passed. At least one wave always runs, so a blown deadline still
	// yields an estimate with an error bar.
	Deadline time.Time
	// Ctx, when non-nil, is a budget too: it is checked between waves, and on
	// cancellation the integration returns the partial estimate with its error
	// bar and the Canceled flag instead of discarding the completed waves.
	Ctx context.Context
}

func (o Options) withDefaults() Options {
	if o.N <= 0 {
		o.N = 1000
	}
	if o.Replicates <= 0 {
		o.Replicates = 1
	}
	return o
}

// laneWidth is the number of chains per lane block of a defaulted query on
// f: the tile size, capped by N.
func laneWidth(f *Factor, o Options) int { return min(f.TS(), o.N) }

// Result is a PMVN probability estimate with its randomized-QMC error
// estimate (zero when Replicates < 2).
type Result struct {
	Prob   float64
	StdErr float64
	// RelErr is the achieved relative-error estimate StdErr/|Prob| (0 when
	// the spread is exactly zero, +Inf for a zero estimate with nonzero
	// spread, and 0 when no replicate spread was computed at all).
	RelErr float64
	// Samples is the total number of QMC samples evaluated across all
	// replicates — under early stopping, the cost actually paid.
	Samples int
	// Converged reports that early stopping met the requested MaxRelErr; a
	// false value on a budgeted query means the estimate was capped by the
	// sample budget, the deadline or cancellation.
	Converged bool
	// Canceled reports that Options.Ctx was canceled mid-integration; Prob
	// and StdErr still hold the estimate from the waves that completed.
	Canceled bool
}

// PMVN evaluates Φn(a,b;0,Σ) = E[Π factors] given a Cholesky factor of Σ
// (dense tiled, TLR or adaptive), running the paper's Algorithm 2 with the
// chain-blocked SOV sweep: every sample-tile column is an independent lane
// block swept left-looking through the factor, parallel across columns and
// across randomized-QMC replicates. A nil or one-worker runtime runs the
// columns inline on the calling goroutine, with the same bits. PMVN is safe to
// call from multiple goroutines on one runtime (the Factor is only read).
func PMVN(rt *taskrt.Runtime, f *Factor, a, b []float64, opt Options) Result {
	n := f.N()
	if len(a) != n || len(b) != n {
		panic(fmt.Sprintf("mvn: limits length %d,%d != dimension %d", len(a), len(b), n))
	}
	o := opt.withDefaults()
	return integrate(rt, f, a, b, o, laneWidth(f, o), 0, nil)
}

// trimFree cuts the limit vectors after the last constrained row. Rows past
// it multiply the probability by 1 and nobody reads their Y, so the sweep
// stops there — no QMC block, Φ⁻¹ or propagation is spent on them — and the
// result is bit-identical. The generator keeps the factor's full dimension.
func trimFree(a, b []float64) ([]float64, []float64) {
	n := len(a)
	for n > 0 && math.IsInf(a[n-1], -1) && math.IsInf(b[n-1], 1) {
		n--
	}
	return a[:n], b[:n]
}

func clampProb(p float64) float64 { return math.Min(1, math.Max(0, p)) }
