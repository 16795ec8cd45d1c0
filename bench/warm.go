package main

import (
	"fmt"
	"runtime"
	"time"

	parmvn "repro"
	"repro/internal/taskrt"
)

// warmCell is one (box regime, factor) pair of warm_sweep_4k.
type warmCell struct {
	label string
	sh    shape
	tlr   bool
	a, b  []float64
}

// runWarmSweep is warm_sweep_4k: set-up factorizes the covariance once dense
// and once TLR; an operation is one warm MVNProb and a round visits each of
// the six cells once, in a seeded order of its own. The three boxes exercise
// the sweep differently: wide keeps every lane alive and runs every special
// function, excursion is the half-open application box, prefix constrains
// only the leading coordinates so that most rows take the free-row path.
func runWarmSweep(e *env) error {
	v := variant{n: e.sz.warmN, reps: e.sz.reps}
	side, ts := e.sz.warmSide, e.sz.tile
	var cells []warmCell
	for _, r := range []struct {
		name string
		sh   shape
	}{
		{"wide", wideShape(side, ts)},
		{"excursion", excursionShape(side, ts)},
		{"prefix", prefixShape(side, ts, e.sz.prefix)},
	} {
		a, b := r.sh.box()
		cells = append(cells,
			warmCell{r.name + "_dense", r.sh, false, a, b},
			warmCell{r.name + "_tlr", r.sh, true, a, b})
	}

	var dense, tlr *parmvn.Session
	var locs []parmvn.Point
	var order []int
	teardown, err := e.setup(2, func() (func(), error) {
		rng := e.newRng()
		locs = cells[0].sh.locs(rng.Float64(), rng.Float64())
		// Every round visits every cell once, in an order of its own.
		order = order[:0]
		for r := 0; r < e.rounds(); r++ {
			order = append(order, rng.Perm(len(cells))[:e.perRound()]...)
		}
		dense = parmvn.NewSession(config(parmvn.Dense, ts, 0, v))
		tlr = parmvn.NewSession(config(parmvn.TLR, ts, 1e-6, v))
		td := func() { dense.Close(); tlr.Close() }
		for _, s := range []*parmvn.Session{dense, tlr} {
			if err := s.Prefactorize(locs, family); err != nil {
				td()
				return nil, err
			}
		}
		return td, nil
	})
	if err != nil {
		return err
	}
	defer teardown()
	pick := func(c warmCell) *parmvn.Session {
		if c.tlr {
			return tlr
		}
		return dense
	}

	before := []taskrt.Stats{dense.SchedulerStats(), tlr.SchedulerStats()}
	var mallocs float64
	var ms runtime.MemStats
	e.beginMeasure()
	for i, ci := range order {
		if i%e.perRound() == 0 {
			e.beginRound()
		}
		c := cells[ci]
		sess := pick(c)
		var m0 uint64
		if e.opts.trace {
			runtime.ReadMemStats(&ms)
			m0 = ms.Mallocs
		}
		t0 := time.Now()
		root := e.tr.begin("op", -1, i)
		id := e.tr.begin("mvn.query", root, i)
		res, err := sess.MVNProb(locs, family, c.a, c.b)
		e.tr.end(id)
		e.tr.end(root)
		d := float64(time.Since(t0)) / 1e6
		if e.opts.trace {
			runtime.ReadMemStats(&ms)
			mallocs += float64(ms.Mallocs - m0)
		}
		if err != nil {
			e.failOp(fmt.Sprintf("%s#%d(%s)", e.spec.Name, i, c.label), err)
			continue
		}
		e.record(opRecord{pos: ci, label: c.label, sh: c.sh, v: v, ms: d, prob: res.Prob, se: res.StdErr})
	}
	e.endMeasure()
	e.checkOps()

	after := []taskrt.Stats{dense.SchedulerStats(), tlr.SchedulerStats()}
	tasks, busy, qmcBusy := 0, 0.0, 0.0
	for i := range after {
		tasks += after[i].Total() - before[i].Total()
		busy += totalBusy(after[i]) - totalBusy(before[i])
		qmcBusy += (after[i].BusyTime["qmc"] - before[i].BusyTime["qmc"]).Seconds()
	}
	e.set("taskrt.tasks_total", float64(tasks))
	if !e.opts.trace {
		return nil
	}

	for _, c := range cells {
		e.set("mvn."+c.label+"_ms", median(e.opMs(c.label)))
	}
	wideS := median(e.opMs("wide_dense")) / 1e3
	n := float64(cells[0].sh.n())
	e.set("mvn.chain_steps_per_s", float64(v.n*v.reps)*n/wideS)
	fpDense, err := dense.FactorFootprint(locs, family)
	if err != nil {
		return err
	}
	// Computed, not counted: every lane block of every replicate streams
	// the whole factor once; cache misses beyond that are not in it.
	passes := float64(v.reps * ((v.n + ts - 1) / ts))
	e.set("mvn.sweep_gbs", float64(fpDense.Bytes)*passes/wideS/1e9)
	e.set("mvn.allocs_per_query", mallocs/float64(len(order)))
	e.set("mvn.qmc_busy_s", qmcBusy)
	e.set("taskrt.stolen", float64(after[0].Stolen+after[1].Stolen-before[0].Stolen-before[1].Stolen))
	e.set("taskrt.peak_inflight", float64(max(after[0].PeakInflight, after[1].PeakInflight)))
	e.set("taskrt.peak_ready", float64(max(after[0].PeakReady, after[1].PeakReady)))
	e.set("taskrt.busy_frac", busy/(workers*e.measured.Seconds()))
	fpTLR, err := tlr.FactorFootprint(locs, family)
	if err != nil {
		return err
	}
	setFootprint(e, cells[0].sh, fpTLR)

	// Three one-off comparisons on the dense factor, each the median of
	// three calls: the float32 sweep, early stopping and Student-t.
	time3 := func(fn func() (parmvn.Result, error)) (float64, parmvn.Result, error) {
		var d []float64
		var res parmvn.Result
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			id := e.tr.begin("mvn.query", -1, len(order)+i)
			r, err := fn()
			e.tr.end(id)
			if err != nil {
				return 0, res, err
			}
			d = append(d, float64(time.Since(t0))/1e6)
			res = r
		}
		return median(d), res, nil
	}
	wide, exc := cells[0], cells[2]
	cfg32 := config(parmvn.Dense, ts, 0, v)
	cfg32.SweepF32 = true
	f32 := parmvn.NewSession(cfg32)
	defer f32.Close()
	f32.ShareCache(dense)
	ms32, _, err := time3(func() (parmvn.Result, error) { return f32.MVNProb(locs, family, wide.a, wide.b) })
	if err != nil {
		return err
	}
	e.set("mvn.f32_speedup", median(e.opMs("wide_dense"))/ms32)
	_, early, err := time3(func() (parmvn.Result, error) {
		return dense.MVNProbOpts(locs, family, exc.a, exc.b, parmvn.QueryOpts{MaxRelErr: 1e-2})
	})
	if err != nil {
		return err
	}
	// Under a budget QMCSize is the total across replicates.
	e.set("mvn.earlystop_samples_frac", float64(early.Samples)/float64(v.n))
	msT, _, err := time3(func() (parmvn.Result, error) { return dense.MVTProb(locs, family, 7, exc.a, exc.b) })
	if err != nil {
		return err
	}
	e.set("mvn.mvt_ms", msT)
	return nil
}
