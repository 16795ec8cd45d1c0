package mvn

import (
	"math"
	"math/rand"
	"sync"
	"time"

	"repro/internal/linalg"
	"repro/internal/qmc"
	"repro/internal/taskrt"
)

// The wave-structured early-stopping integration. A budgeted query — any
// Options with MaxRelErr, Deadline or Ctx set — runs its QMC samples as
// incremental waves instead of one fixed-N pass: every wave appends WaveSize
// samples (whole chain-blocked lane blocks, the PR 4 sweep unit) to each of
// a small set of randomized-shift replicates, and between waves the
// replicate spread of the running per-replicate means gives a streaming
// standard-error estimate. The integration stops at the first wave boundary
// where the requested relative error is met, the deadline or sample budget
// is exhausted, or the context is canceled — and reports the achieved
// error, the samples actually paid and the converged/capped flags.
//
// Determinism: which samples are included is decided by the wave boundary
// alone. Each replicate's generator is a random-access BlockGenerator (or a
// sequential generator pre-expanded over the whole budget), so lane blocks
// are pure functions of their sample indices; per-wave column sums land in
// fixed slots and reduce in index order. Fixed seeds therefore produce
// bit-identical estimates and stopping points at any worker count — only
// the wall-clock checks (Deadline, Ctx) are time-dependent by design.
//
// Cost: with early stopping active, Options.N is the TOTAL sample budget
// across replicates (ceil(N/reps) per replicate), so a query whose accuracy
// target is unreachable costs no more than the fixed-N path it replaces.

// maxWaveReps bounds the wave path's replicate count so the per-replicate
// generator and block-source state fits the pooled waveState arrays.
const maxWaveReps = 16

// defaultWaveReps is the replicate count used when the caller left
// Replicates below 2: the streaming error estimate needs a spread, and four
// replicates buy one at a quarter of the per-replicate budget each.
const defaultWaveReps = 4

// waveState is the pooled per-query state of a wave integration: one
// generator and block source per replicate. Pooling it (rather than stack
// arrays) keeps the warm path allocation-free even though the task fan-out
// closures capture it.
type waveState struct {
	gens [maxWaveReps]*qmc.Richtmyer // pooled default generators (nil for custom)
	srcs [maxWaveReps]blockSource
}

var waveStatePool = sync.Pool{New: func() any { return new(waveState) }}

// waveParams resolves the wave-path shape from defaulted Options: the
// replicate count, the per-replicate sample cap and the per-replicate wave
// length (both in whole lane blocks of mc chains).
//repro:noalloc
func waveParams(o Options) (reps, perRep, wave int) {
	reps = o.Replicates
	if reps < 2 {
		reps = defaultWaveReps
	}
	if reps > maxWaveReps {
		reps = maxWaveReps
	}
	mc := o.SampleTile
	wave = o.WaveSize
	if wave <= 0 {
		wave = mc
	}
	wave = (wave + mc - 1) / mc * mc
	perRep = (o.N + reps - 1) / reps
	perRep = (perRep + mc - 1) / mc * mc
	if wave > perRep {
		wave = perRep
	}
	return reps, perRep, wave
}

// integrateWaves runs the replicate-stratified wave integration behind every
// budgeted PMVN/PMVT query. All working state is pooled — the generators,
// the block sources, the replicate sums and the per-wave column slots — so a
// warm budgeted query with the default generator allocates nothing.
//repro:noalloc
func integrateWaves(rt *taskrt.Runtime, f *Factor, a, b []float64, o Options, nu float64, genDim int, inline bool) Result {
	reps, perRep, wave := waveParams(o)
	mc := o.SampleTile

	ws := waveStatePool.Get().(*waveState)
	if o.NewGen == nil && o.Rng == nil {
		// Default generators: pooled shifted Richtmyer lattices, shifts from
		// the deterministic splitmix recurrence (replicate 0 unshifted).
		shift := linalg.GetVec(genDim)
		for rep := 0; rep < reps; rep++ {
			var sh []float64
			if rep > 0 {
				qmc.FillShiftSeeded(shift, uint64(rep))
				sh = shift
			}
			ws.gens[rep] = qmc.GetRichtmyer(genDim, sh)
			ws.srcs[rep] = blockSource{bg: ws.gens[rep]}
		}
		linalg.PutVec(shift)
	} else {
		//repro:alloc-ok custom-generator / caller-Rng replicates build one generator each
		buildWaveGens(ws, o, genDim, reps, perRep)
	}
	var sh *ShadowF32
	if o.SweepF32 {
		sh = f.Shadow32()
	}

	repSum := linalg.GetVecZero(reps)
	slots := linalg.GetVec(reps * ((wave + mc - 1) / mc))
	off := 0
	var res Result
	for {
		wlen := wave
		if off+wlen > perRep {
			wlen = perRep - off
		}
		cols := (wlen + mc - 1) / mc
		if inline {
			for rep := 0; rep < reps; rep++ {
				for c := 0; c < cols; c++ {
					cm := min(mc, wlen-c*mc)
					slots[rep*cols+c] = sweepColumn(f, sh, a, b, &ws.srcs[rep], off+c*mc, cm, nu, nil)
				}
			}
		} else {
			//repro:alloc-ok per-wave task fan-out closes over indices; warm batched queries run inline
			runWaveTasks(rt, f, sh, a, b, ws, slots, reps, cols, off, wlen, mc, nu)
		}
		for rep := 0; rep < reps; rep++ {
			s := 0.0
			for c := 0; c < cols; c++ {
				s += slots[rep*cols+c]
			}
			repSum[rep] += s
		}
		off += wlen

		mean, stderr := waveEstimate(repSum[:reps], float64(off))
		res = Result{
			Prob: clampProb(mean), StdErr: stderr,
			RelErr: relErrOf(mean, stderr), Samples: reps * off,
		}
		if o.MaxRelErr > 0 && res.RelErr <= o.MaxRelErr {
			res.Converged = true
			break
		}
		if o.Ctx != nil && o.Ctx.Err() != nil {
			res.Canceled = true
			break
		}
		if off >= perRep {
			break
		}
		if !o.Deadline.IsZero() && !time.Now().Before(o.Deadline) {
			break
		}
	}

	linalg.PutVec(slots)
	linalg.PutVec(repSum)
	for rep := 0; rep < reps; rep++ {
		if ws.gens[rep] != nil {
			qmc.PutRichtmyer(ws.gens[rep])
			ws.gens[rep] = nil
		}
		ws.srcs[rep].release()
		ws.srcs[rep] = blockSource{}
	}
	waveStatePool.Put(ws)
	return res
}

// buildWaveGens builds the wave replicate sources for a custom generator or
// a caller-supplied shift Rng. Shifts are pre-drawn sequentially from the
// (not goroutine-safe) Rng, exactly like integrateReplicated; sequential
// custom generators are pre-expanded over the whole per-replicate budget
// once, so waves still address samples by index. This path allocates by
// design and is kept out of the noalloc-certified fast path above.
func buildWaveGens(ws *waveState, o Options, genDim, reps, perRep int) {
	rng := o.Rng
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	for rep := 0; rep < reps; rep++ {
		var shift []float64
		if rep > 0 {
			shift = qmc.RandomShift(genDim, rng)
		}
		if o.NewGen != nil {
			ws.srcs[rep] = newBlockSource(o.NewGen(genDim, shift), perRep)
		} else {
			ws.gens[rep] = qmc.GetRichtmyer(genDim, shift)
			ws.srcs[rep] = blockSource{bg: ws.gens[rep]}
		}
	}
}

// runWaveTasks fans one wave out as one task per (replicate, lane-block)
// pair in its own runtime group. Slot placement is fixed by the indices, so
// the reduction order — and therefore the estimate — is independent of task
// scheduling.
func runWaveTasks(rt *taskrt.Runtime, f *Factor, sh *ShadowF32, a, b []float64, ws *waveState, slots []float64, reps, cols, off, wlen, mc int, nu float64) {
	g := rt.NewGroup()
	for rep := 0; rep < reps; rep++ {
		for c := 0; c < cols; c++ {
			rep, c := rep, c
			g.Submit("qmc", 0, func() {
				cm := min(mc, wlen-c*mc)
				slots[rep*cols+c] = sweepColumn(f, sh, a, b, &ws.srcs[rep], off+c*mc, cm, nu, nil)
			})
		}
	}
	g.Wait()
}

// waveEstimate computes the replicate-stratified running estimate after
// `samples` samples per replicate: the mean across replicates of each
// replicate's running mean, and the randomized-QMC standard error of that
// mean (the replicate spread over the waves seen so far).
//repro:noalloc
func waveEstimate(repSum []float64, samples float64) (mean, stderr float64) {
	reps := len(repSum)
	for _, s := range repSum {
		mean += s / samples
	}
	mean /= float64(reps)
	ss := 0.0
	for _, s := range repSum {
		d := s/samples - mean
		ss += d * d
	}
	stderr = math.Sqrt(ss / float64(reps-1) / float64(reps))
	return mean, stderr
}

// relErrOf is the reported relative error: the standard error relative to
// the estimate's magnitude. An exactly-zero spread (degenerate 0/1 boxes,
// where every replicate agrees exactly) reports 0, so such queries converge
// at the first wave boundary; a zero estimate with nonzero spread reports
// +Inf — the estimate has no relative accuracy to claim.
//repro:noalloc
func relErrOf(mean, stderr float64) float64 {
	if stderr == 0 {
		return 0
	}
	if m := math.Abs(mean); m > 0 {
		return stderr / m
	}
	return math.Inf(1)
}
