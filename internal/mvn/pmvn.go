package mvn

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"repro/internal/linalg"
	"repro/internal/qmc"
	"repro/internal/taskrt"
)

// Options configures a PMVN integration.
type Options struct {
	// N is the QMC sample size (number of chains). Default 1000.
	N int
	// SampleTile is the number of chains per lane block (the m of
	// Algorithm 3 along the sample axis). Default: the factor tile size.
	SampleTile int
	// NewGen builds the point generator for a replicate given its shift;
	// nil means the Richtmyer lattice (the paper's QMC choice), drawn from a
	// pool so warm queries allocate nothing. Generators implementing
	// qmc.BlockGenerator feed the lane blocks by random access; others are
	// pre-expanded once per replicate.
	NewGen func(dim int, shift []float64) qmc.Generator
	// Replicates is the number of randomized-shift replicates used for the
	// error estimate. Default 1 (no error estimate).
	Replicates int
	// Rng drives the replicate shifts. Default: deterministic seed 1.
	Rng *rand.Rand
	// Inline runs the integration on the calling goroutine instead of
	// fanning sample-tile columns out as runtime tasks. Batched callers set
	// it so each query occupies exactly one worker; a warm (cached-factor)
	// inline query runs allocation-free. It is implied when the runtime is
	// nil or has a single worker, where task submission is pure overhead.
	// Results are bit-identical either way.
	Inline bool
	// SweepF32 runs the inter-tile propagation in float32: finished Y tiles
	// are kept narrowed and the off-diagonal GEMMs read the factor's f32
	// shadow (see sweepColumn). The diagonal kernel, the QMC points, special
	// functions and probability accumulation stay float64, so the estimate
	// differs from the f64 sweep by well under the QMC error bar — and not
	// at all when the factor has a single row tile.
	SweepF32 bool
	// MaxRelErr > 0 enables wave-structured early stopping: the integration
	// runs replicate-stratified incremental sample waves (see wave.go) and
	// stops as soon as the streaming relative-error estimate — the replicate
	// spread across the waves seen so far, relative to the running estimate —
	// drops to MaxRelErr. With early stopping active, N is the TOTAL sample
	// budget across replicates (so an unreachable target never costs more
	// than the fixed-N path), and Replicates below 2 is raised to a small
	// default (the error estimate needs a spread).
	MaxRelErr float64
	// Deadline, when nonzero, caps the wall clock of the integration: the
	// budget is checked between waves and the running estimate is returned
	// (Converged false) once it expires. At least one wave always runs, so a
	// blown deadline still yields an estimate with an error bar. Setting
	// Deadline alone (MaxRelErr 0) routes the query through the wave path.
	Deadline time.Time
	// WaveSize is the number of samples appended to each replicate per wave,
	// rounded up to whole lane blocks (SampleTile). Default: one lane block.
	WaveSize int
	// Ctx, when non-nil, is checked between waves: on cancellation the
	// integration stops and returns the partial estimate with its error bar
	// and the Canceled flag, instead of discarding the completed waves. Like
	// Deadline, a non-nil Ctx routes the query through the wave path.
	Ctx context.Context
}

// earlyStop reports whether the wave-structured path serves this query: any
// accuracy target, latency budget or cancelable context engages it. With all
// three unset the fixed-N path runs unchanged (bit-identical results).
//repro:noalloc
func (o Options) earlyStop() bool {
	return o.MaxRelErr > 0 || !o.Deadline.IsZero() || o.Ctx != nil
}

//repro:noalloc
func (o Options) withDefaults(ts int) Options {
	if o.N <= 0 {
		o.N = 1000
	}
	if o.SampleTile <= 0 {
		o.SampleTile = ts
	}
	if o.SampleTile > o.N {
		o.SampleTile = o.N
	}
	if o.Replicates <= 0 {
		o.Replicates = 1
	}
	return o
}

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
// across randomized-QMC replicates. PMVN is safe to call from multiple
// goroutines on one runtime (the Factor is only read).
//repro:noalloc
func PMVN(rt *taskrt.Runtime, f *Factor, a, b []float64, opt Options) Result {
	n := f.N()
	if len(a) != n || len(b) != n {
		//repro:alloc-ok shape-mismatch panic path
		panic(fmt.Sprintf("mvn: limits length %d,%d != dimension %d", len(a), len(b), n))
	}
	return integrate(rt, f, a, b, opt.withDefaults(f.TS()), 0, nil)
}

// integrate runs the replicated integration behind PMVN (nu = 0) and PMVT
// (nu > 0) on defaulted options. A non-nil pre (PMVNPrefix, which clears the
// early-stopping options) additionally receives every replicate's estimate
// after every row.
//repro:noalloc
func integrate(rt *taskrt.Runtime, f *Factor, a, b []float64, o Options, nu float64, pre prefixAcc) Result {
	genDim := f.N()
	if nu > 0 {
		genDim++
	}
	inline := o.Inline || rt == nil || rt.Workers() == 1
	a, b = trimFree(a, b)

	// Accuracy/latency-budgeted queries run the incremental wave path; the
	// unconstrained paths below are untouched (bit-identical results).
	if o.earlyStop() {
		return integrateWaves(rt, f, a, b, o, nu, genDim, inline)
	}

	// Warm fast path: one replicate, default generator — a pooled lattice
	// and pooled workspaces end to end, so a cached-factor query allocates
	// nothing.
	if o.Replicates == 1 && o.NewGen == nil {
		g := qmc.GetRichtmyer(genDim, nil)
		p := runReplicate(rt, f, a, b, g, o, nu, inline, pre.row(0, len(a)))
		qmc.PutRichtmyer(g)
		return Result{Prob: clampProb(p), Samples: o.N}
	}
	//repro:alloc-ok replicated/custom-generator queries build one generator per replicate
	return integrateReplicated(rt, f, a, b, o, nu, genDim, inline, pre)
}

// trimFree cuts the limit vectors after the last constrained row. Rows past
// it multiply the probability by 1 and nobody reads their Y, so the sweep
// stops there — no QMC block, Φ⁻¹ or propagation is spent on them — and the
// result is bit-identical. The generator keeps the factor's full dimension.
//repro:noalloc
func trimFree(a, b []float64) ([]float64, []float64) {
	n := len(a)
	for n > 0 && math.IsInf(a[n-1], -1) && math.IsInf(b[n-1], 1) {
		n--
	}
	return a[:n], b[:n]
}

// integrateReplicated runs the replicated (or custom-generator) integration:
// all shifts are pre-drawn from the (shared, not goroutine-safe) Rng up
// front, then the replicates run concurrently unless inline. This path
// allocates by design — one generator per replicate — and is kept out of the
// //repro:noalloc-certified integrate above.
func integrateReplicated(rt *taskrt.Runtime, f *Factor, a, b []float64, o Options, nu float64, genDim int, inline bool, pre prefixAcc) Result {
	rng := o.Rng
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	gens := make([]qmc.Generator, o.Replicates)
	for rep := range gens {
		var shift []float64
		if rep > 0 {
			shift = qmc.RandomShift(genDim, rng)
		}
		if o.NewGen != nil {
			gens[rep] = o.NewGen(genDim, shift)
		} else {
			gens[rep] = qmc.NewRichtmyerShifted(genDim, shift)
		}
	}
	probs := make([]float64, len(gens))
	if inline || len(gens) == 1 {
		for rep, gen := range gens {
			probs[rep] = runReplicate(rt, f, a, b, gen, o, nu, inline, pre.row(rep, len(a)))
		}
		return reduceReplicates(probs, o.N)
	}
	var wg sync.WaitGroup
	for rep := range gens {
		rep := rep
		wg.Add(1)
		go func() {
			defer wg.Done()
			probs[rep] = runReplicate(rt, f, a, b, gens[rep], o, nu, false, pre.row(rep, len(a)))
		}()
	}
	wg.Wait()
	return reduceReplicates(probs, o.N)
}

// runReplicate evaluates one replicate: the sample-tile columns are
// independent lane blocks, swept inline on the calling goroutine or fanned
// out as one task each in their own runtime group. The per-column sums land
// in fixed slots, so the estimate is deterministic regardless of scheduling.
// A non-nil pre (one entry per row of the trimmed limits) receives the
// replicate's estimate after every row: each column records into its own
// buffer and the buffers are summed in column order, like the scalars.
//repro:noalloc
func runReplicate(rt *taskrt.Runtime, f *Factor, a, b []float64, gen qmc.Generator, o Options, nu float64, inline bool, pre []float64) float64 {
	if gen.Dim() != genDimFor(f, nu) {
		//repro:alloc-ok dimension-mismatch panic path
		panic(fmt.Sprintf("mvn: generator dim %d, want %d", gen.Dim(), genDimFor(f, nu)))
	}
	n, mc := o.N, o.SampleTile
	kt := (n + mc - 1) / mc
	sums := linalg.GetVec(kt)
	var cols []float64
	if pre != nil {
		cols = linalg.GetVec(kt * len(a))
	}
	// The f32 shadow is resolved once per replicate, before any column runs
	// (its one-time build is the only allocating step; warm loads are an
	// atomic read). nil propagates in f64.
	var sh *ShadowF32
	if o.SweepF32 {
		sh = f.Shadow32()
	}
	if inline || kt == 1 {
		// Kept free of the task path's closures so the block source stays
		// on the stack: the warm inline query allocates nothing.
		src := newBlockSource(gen, n)
		for k := 0; k < kt; k++ {
			sums[k] = sweepColumn(f, sh, a, b, &src, k*mc, min(mc, n-k*mc), nu, prefixColOf(cols, k, len(a)))
		}
		src.release()
	} else {
		//repro:alloc-ok task fan-out closes over the column index; the warm batched path runs inline
		runColumnTasks(rt, f, sh, a, b, gen, sums, cols, n, mc, nu)
	}
	sum := 0.0
	for _, v := range sums {
		sum += v
	}
	linalg.PutVec(sums)
	if cols != nil {
		reducePrefixCols(pre, cols, n)
		linalg.PutVec(cols)
	}
	return sum / float64(n)
}

// runColumnTasks fans the sample-tile columns out as one task each in their
// own runtime group (the block source and shadow are read-only across them).
func runColumnTasks(rt *taskrt.Runtime, f *Factor, sh *ShadowF32, a, b []float64, gen qmc.Generator, sums, cols []float64, n, mc int, nu float64) {
	src := newBlockSource(gen, n)
	g := rt.NewGroup()
	for k := range sums {
		k := k
		g.Submit("qmc", 0, func() {
			sums[k] = sweepColumn(f, sh, a, b, &src, k*mc, min(mc, n-k*mc), nu, prefixColOf(cols, k, len(a)))
		})
	}
	g.Wait()
	src.release()
}

//repro:noalloc
func genDimFor(f *Factor, nu float64) int {
	if nu > 0 {
		return f.N() + 1
	}
	return f.N()
}

// reduceReplicates averages the replicate estimates and, with ≥2 replicates,
// attaches the randomized-QMC standard error; n is the per-replicate sample
// count (the total cost is len(probs)·n).
func reduceReplicates(probs []float64, n int) Result {
	mean := 0.0
	for _, p := range probs {
		mean += p
	}
	mean /= float64(len(probs))
	res := Result{Prob: clampProb(mean), Samples: len(probs) * n}
	if len(probs) >= 2 {
		ss := 0.0
		for _, p := range probs {
			ss += (p - mean) * (p - mean)
		}
		res.StdErr = math.Sqrt(ss / float64(len(probs)-1) / float64(len(probs)))
		res.RelErr = relErrOf(mean, res.StdErr)
	}
	return res
}

//repro:noalloc
func clampProb(p float64) float64 { return math.Min(1, math.Max(0, p)) }
