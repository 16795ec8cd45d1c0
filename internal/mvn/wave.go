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

// The one integrator. PMVN, PMVT and PMVNPrefix all run integrate: R
// randomized-shift replicates of one QMC point set, each consumed in lane
// blocks of mc samples (sweepColumn; laneWidth), in waves. A wave appends the
// same number of samples to every replicate, one inline call or runtime task
// per (replicate, lane block); after it the replicate spread of the running
// per-replicate means is the estimate's standard error.
//
// A fixed-N query is one wave — exactly N samples per replicate, the last lane
// block ragged — with nothing to decide afterwards. A budget (MaxRelErr,
// Deadline or Ctx) changes the plan, not the loop: N becomes the TOTAL across
// replicates (ceil(N/reps) each, in whole lane blocks, so an unreachable target
// costs no more than the fixed-N query), a replicate count below 2 is raised
// to defaultWaveReps, a wave is one lane block, and between waves the loop
// stops at the first boundary where the relative error is met, the deadline
// or the sample cap is reached, or the context is canceled.
//
// Determinism: which samples are included is decided by the wave boundary
// alone. A replicate's lattice serves lane blocks by sample index (random
// access, no sequential state); per-wave column sums land in fixed slots and
// reduce in index order. Fixed seeds therefore give bit-identical estimates
// and stopping points inline and at any worker count — only the wall-clock
// checks (Deadline, Ctx) are time-dependent by design.

// defaultWaveReps is the replicate count of a budgeted query that left
// Replicates below 2: the streaming error estimate needs a spread, and four
// replicates buy one at a quarter of the per-replicate budget each.
const defaultWaveReps = 4

// plan is a defaulted query resolved into the shape of the loop.
type plan struct {
	reps     int  // randomized-shift replicates
	perRep   int  // samples per replicate: exact for fixed N, the cap under a budget
	wave     int  // samples appended to each replicate per wave
	budgeted bool // MaxRelErr, Deadline or Ctx is set
}

func (o Options) plan(mc int) plan {
	if !(o.MaxRelErr > 0) && o.Deadline.IsZero() && o.Ctx == nil {
		return plan{reps: o.Replicates, perRep: o.N, wave: o.N}
	}
	reps := o.Replicates
	if reps < 2 {
		reps = defaultWaveReps
	}
	perRep := (o.N + reps - 1) / reps
	perRep = (perRep + mc - 1) / mc * mc
	return plan{reps: reps, perRep: perRep, wave: mc, budgeted: true}
}

// waveState is the pooled state of one query: what a (replicate, lane block)
// column reads, one shifted lattice per replicate, and the current wave's
// result slots. It is pooled, not on the stack, because the task fan-out's
// closures capture it — the warm inline path allocates nothing either way.
type waveState struct {
	f    *Factor
	sh   *ShadowF32 // nil propagates in f64
	a, b []float64  // trimmed limits
	nu   float64
	mc   int

	srcs []*qmc.Richtmyer

	off, wlen, cols int       // the wave: first sample, samples, lane blocks per replicate
	slots           []float64 // reps × cols: Σ_lanes p of each column
	pslots          []float64 // reps × cols × len(a): the same after every row, PMVNPrefix only
}

var waveStatePool = sync.Pool{New: func() any { return new(waveState) }}

func getWaveState(reps int) *waveState {
	ws := waveStatePool.Get().(*waveState)
	if cap(ws.srcs) < reps {
		// cold capacity miss: the pooled state grows to the largest replicate count seen
		ws.srcs = make([]*qmc.Richtmyer, reps)
	}
	ws.srcs = ws.srcs[:reps]
	return ws
}

// open draws the replicates' shifted lattices: the one place the point set
// is constructed.
func (ws *waveState) open(p plan, genDim int) {
	var rng *rand.Rand
	if p.reps > 1 && !p.budgeted {
		// the one allocation of a warm replicated fixed-N query
		rng = rand.New(rand.NewSource(1))
	}
	shift := linalg.GetVec(genDim)
	for rep := range ws.srcs {
		ws.srcs[rep] = qmc.GetRichtmyer(genDim, replicateShift(shift, rep, rng))
	}
	linalg.PutVec(&shift)
}

// replicateShift fills dst with replicate rep's Cranley–Patterson shift and
// returns it; replicate 0 is the unshifted point set (nil). There are two
// recurrences only because recorded bits pin both: sequential math/rand
// seed-1 draws (rng non-nil: replicated fixed-N queries) are what
// bench/refs.json's fixed-N operations, parent_bits_test.go and the fixed rows
// of TestRowTypesMatchParentBits were recorded with; the splitmix recurrence
// seeded by the replicate index (budgeted queries) is behind refs.json's
// budgeted operations and the budget rows.
// Shifting every replicate from one recurrence is ROADMAP item 1(a) and waits
// for a re-bless of refs.json; this is the site to change then.
func replicateShift(dst []float64, rep int, rng *rand.Rand) []float64 {
	switch {
	case rep == 0:
		return nil
	case rng != nil:
		qmc.FillShift(dst, rng)
	default:
		qmc.FillShiftSeeded(dst, uint64(rep))
	}
	return dst
}

// release returns everything the query drew from pools and drops its
// references to caller memory before the state goes back to its own pool.
func (ws *waveState) release() {
	for rep, src := range ws.srcs {
		qmc.PutRichtmyer(src)
		ws.srcs[rep] = nil
	}
	linalg.PutVec(&ws.slots)
	linalg.PutVec(&ws.pslots)
	*ws = waveState{srcs: ws.srcs[:0]}
	waveStatePool.Put(ws)
}

// column sweeps lane block c of replicate rep in the current wave into its
// slots. Slot placement is fixed by the indices, so the reduction order — and
// therefore the estimate — is independent of task scheduling.
func (ws *waveState) column(rep, c int) {
	k := rep*ws.cols + c
	lanes := min(ws.mc, ws.wlen-c*ws.mc)
	ws.slots[k] = sweepColumn(ws.f, ws.sh, ws.a, ws.b, ws.srcs[rep], ws.off+c*ws.mc, lanes, ws.nu, prefixColOf(ws.pslots, k, len(ws.a)))
}

// fanOut runs the current wave as one task per (replicate, lane block) in its
// own runtime group (lattices, factor and shadow are read-only across them).
// Lane blocks go out column by column, so the ragged last blocks — the short
// tasks — are submitted last and, at equal priority, run last: they fill the
// tail while the full blocks are still finishing.
func (ws *waveState) fanOut(rt *taskrt.Runtime) {
	g := rt.NewGroup()
	for c := 0; c < ws.cols; c++ {
		for rep := range ws.srcs {
			rep, c := rep, c
			g.Submit("qmc", 0, func() { ws.column(rep, c) })
		}
	}
	g.Wait()
}

// integrate is the integration behind PMVN (nu = 0), PMVT (nu > 0) and
// PMVNPrefix on defaulted options, in lane blocks of mc samples; see the top
// of this file. All working state is pooled and sized to the replicate count,
// so a warm inline query allocates nothing (a replicated fixed-N one, only
// its math/rand shift source). A non-nil pre (PMVNPrefix, which clears the budgets) holds one row
// per replicate, len(trimmed a) entries each, and receives Σ_samples p after
// every row.
func integrate(rt *taskrt.Runtime, f *Factor, a, b []float64, o Options, mc int, nu float64, pre []float64) Result {
	genDim := f.N()
	if nu > 0 {
		genDim++
	}
	inline := rt == nil || rt.Workers() == 1
	a, b = trimFree(a, b)
	p, rows := o.plan(mc), len(a)

	ws := getWaveState(p.reps)
	ws.f, ws.a, ws.b, ws.nu, ws.mc = f, a, b, nu, mc
	if o.SweepF32 {
		// Resolved once per query, before any column runs: its one-time build
		// is the only allocating step, warm loads are an atomic read.
		ws.sh = f.Shadow32()
	}
	ws.open(p, genDim)
	maxCols := (p.wave + mc - 1) / mc
	ws.slots = linalg.GetVec(p.reps * maxCols)
	if pre != nil {
		ws.pslots = linalg.GetVec(p.reps * maxCols * rows)
	}
	repSum := linalg.GetVecZero(p.reps)

	var res Result
	for {
		ws.wlen = min(p.wave, p.perRep-ws.off)
		cols := (ws.wlen + mc - 1) / mc
		ws.cols = cols
		if inline || p.reps*cols == 1 {
			for rep := 0; rep < p.reps; rep++ {
				for c := 0; c < cols; c++ {
					ws.column(rep, c)
				}
			}
		} else {
			// the task fan-out closes over the column indices; a nil or
			// one-worker runtime keeps a warm query on the loop above
			ws.fanOut(rt)
		}
		for rep := range repSum {
			s := 0.0
			for _, v := range ws.slots[rep*cols : (rep+1)*cols] {
				s += v
			}
			repSum[rep] += s
			if pre != nil {
				addPrefixCols(pre[rep*rows:(rep+1)*rows], ws.pslots[rep*cols*rows:(rep+1)*cols*rows])
			}
		}
		ws.off += ws.wlen

		mean, stderr := estimate(repSum, float64(ws.off))
		res = Result{
			Prob: clampProb(mean), StdErr: stderr,
			RelErr: relErrOf(mean, stderr), Samples: p.reps * ws.off,
		}
		if o.MaxRelErr > 0 && res.RelErr <= o.MaxRelErr {
			res.Converged = true
			break
		}
		if o.Ctx != nil && o.Ctx.Err() != nil {
			res.Canceled = true
			break
		}
		if ws.off >= p.perRep {
			break
		}
		if !o.Deadline.IsZero() && !time.Now().Before(o.Deadline) {
			break
		}
	}

	linalg.PutVec(&repSum)
	ws.release()
	return res
}

// estimate is the one estimator: from each replicate's Σ p over `samples`
// samples, the mean across replicates of the replicates' means and the
// randomized-QMC standard error of that mean — the replicate spread, 0 with a
// single replicate, which has none.
func estimate(repSum []float64, samples float64) (mean, stderr float64) {
	reps := len(repSum)
	for _, s := range repSum {
		mean += s / samples
	}
	mean /= float64(reps)
	if reps < 2 {
		return mean, 0
	}
	ss := 0.0
	for _, s := range repSum {
		d := s/samples - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss / float64(reps-1) / float64(reps))
}

// relErrOf is the reported relative error: the standard error relative to
// the estimate's magnitude. An exactly-zero spread (degenerate 0/1 boxes,
// where every replicate agrees exactly, or a single replicate) reports 0, so
// such budgeted queries converge at the first wave boundary; a zero estimate
// with nonzero spread reports +Inf — the estimate has no relative accuracy to
// claim.
func relErrOf(mean, stderr float64) float64 {
	if stderr == 0 {
		return 0
	}
	if m := math.Abs(mean); m > 0 {
		return stderr / m
	}
	return math.Inf(1)
}
