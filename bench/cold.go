package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	parmvn "repro"
	"repro/internal/taskrt"
)

// coldFacts is what one cold operation leaves behind in the counters the
// public API exposes, read after the operation's clock has stopped.
type coldFacts struct {
	stats taskrt.Stats
	fp    parmvn.FactorFootprint
}

func runColdDense(e *env) error {
	return runCold(e, excursionShape(e.sz.denseSide, e.sz.tile), parmvn.Dense, 0)
}

func runColdTLR(e *env) error {
	return runCold(e, excursionShape(e.sz.tlrSide, e.sz.tile), parmvn.TLR, 1e-6)
}

// runCold is cold_dense_4k and cold_tlr_6k: an operation is a fresh session,
// Prefactorize and one MVNProb — what a user with a new covariance waits
// for — and a round is one operation. Each gets its own seeded grid offset,
// so no two share a content hash while all cost the same.
func runCold(e *env, sh shape, method parmvn.Method, tol float64) error {
	v := variant{n: e.sz.coldN, reps: e.sz.reps}
	cfg := config(method, sh.tile, tol, v)
	a, b := sh.box()
	var locs [][]parmvn.Point
	_, err := e.setup(5, func() (func(), error) {
		rng := e.newRng()
		locs = locs[:0]
		for i := 0; i < e.rounds()+2; i++ { // two spare for the traced extras
			locs = append(locs, sh.locs(rng.Float64(), rng.Float64()))
		}
		// One small operation of the same kind, so that the kernels' packed
		// buffers, the pools and the heap are warm before the first timed
		// one, as they are in any process that has run a while.
		warm := sh
		warm.side = e.sz.warmupSide
		wa, wb := warm.box()
		_, _, err := coldOp(e, -1, cfg, warm, warm.locs(0, 0), wa, wb)
		return func() {}, err
	})
	if err != nil {
		return err
	}

	var facts []coldFacts
	e.beginMeasure()
	for i := 0; i < e.rounds(); i++ {
		e.beginRound()
		rec, f, err := coldOp(e, i, cfg, sh, locs[i], a, b)
		if err != nil {
			e.failOp(fmt.Sprintf("%s#%d", e.spec.Name, i), err)
			continue
		}
		rec.v = v
		e.record(rec)
		facts = append(facts, f)
	}
	e.endMeasure()
	e.checkOps()
	if len(facts) == 0 {
		return nil
	}
	e.set("taskrt.tasks_total", float64(facts[0].stats.Total()))
	if !e.opts.trace {
		return nil
	}
	coldLayers(e, sh, facts)
	if method == parmvn.TLR {
		return coldTLRExtras(e, cfg, sh, locs[e.rounds():], a, b)
	}
	return nil
}

// coldOp times one fresh-session factorization plus query. op < 0 marks the
// untimed warm-up, which records no span.
func coldOp(e *env, op int, cfg parmvn.Config, sh shape, locs []parmvn.Point, a, b []float64) (opRecord, coldFacts, error) {
	tr := e.tr
	if op < 0 {
		tr = nil
	}
	t0 := time.Now()
	root := tr.begin("op", -1, op)
	id := tr.begin("session.new", root, op)
	sess := parmvn.NewSession(cfg)
	tr.end(id)
	defer sess.Close()
	id = tr.begin("engine.prefactorize", root, op)
	err := sess.Prefactorize(locs, sh.kernel)
	tr.end(id)
	if err != nil {
		return opRecord{}, coldFacts{}, err
	}
	id = tr.begin("mvn.query", root, op)
	res, err := sess.MVNProb(locs, sh.kernel, a, b)
	tr.end(id)
	tr.end(root)
	ms := float64(time.Since(t0)) / 1e6
	if err != nil {
		return opRecord{}, coldFacts{}, err
	}
	f := coldFacts{stats: sess.SchedulerStats()}
	if f.fp, err = sess.FactorFootprint(locs, sh.kernel); err != nil {
		return opRecord{}, coldFacts{}, err
	}
	return opRecord{label: "cold", sh: sh, ms: ms, prob: res.Prob, se: res.StdErr}, f, nil
}

// coldLayers turns the per-operation counters and spans into the engine,
// taskrt and cov metrics; each is the median over the operations.
func coldLayers(e *env, sh shape, facts []coldFacts) {
	med := func(get func(coldFacts) float64) float64 {
		vals := make([]float64, len(facts))
		for i, f := range facts {
			vals[i] = get(f)
		}
		return median(vals)
	}
	busy := func(kind string) float64 {
		return med(func(f coldFacts) float64 { return f.stats.BusyTime[kind].Seconds() })
	}
	factS := median(e.tr.ms("engine.prefactorize")) / 1e3
	n := float64(sh.n())
	e.set("engine.factorize_s", factS)
	e.set("engine.factorize_gflops_dense_equiv", n*n*n/3/factS/1e9)
	setKindBusy(e, busy)
	setFootprint(e, sh, facts[len(facts)-1].fp)

	e.set("taskrt.stolen", med(func(f coldFacts) float64 { return float64(f.stats.Stolen) }))
	e.set("taskrt.peak_inflight", med(func(f coldFacts) float64 { return float64(f.stats.PeakInflight) }))
	e.set("taskrt.peak_ready", med(func(f coldFacts) float64 { return float64(f.stats.PeakReady) }))
	// Busy time of every task kind over what two workers could have done in
	// the time the two calls took; the rest is waiting.
	callS := (median(e.tr.ms("engine.prefactorize")) + median(e.tr.ms("mvn.query"))) / 1e3
	e.set("taskrt.busy_frac", med(func(f coldFacts) float64 { return totalBusy(f.stats) })/(workers*callS))
}

// setKindBusy reports the scheduler's busy time per task kind under the
// layer each kind belongs to.
func setKindBusy(e *env, busy func(kind string) float64) {
	e.set("cov.assemble_busy_s", busy("assemble"))
	for _, k := range []string{"gemm", "syrk", "trsm", "potrf", "evict"} {
		e.set("engine."+k+"_busy_s", busy(k))
	}
	e.set("mvn.qmc_busy_s", busy("qmc"))
}

func totalBusy(st taskrt.Stats) float64 {
	s := 0.0
	for _, d := range st.BusyTime {
		s += d.Seconds()
	}
	return s
}

// setFootprint reports a kernel-built factor's size and tile mix.
func setFootprint(e *env, sh shape, fp parmvn.FactorFootprint) {
	nt := (sh.n() + sh.tile - 1) / sh.tile
	denseBytes := float64(nt*(nt+1)/2) * float64(sh.tile*sh.tile) * 8
	e.set("engine.factor_mb", float64(fp.Bytes)/(1<<20))
	e.set("engine.factor_frac_of_dense", float64(fp.Bytes)/denseBytes)
	e.set("engine.tiles_dense64", float64(fp.Dense64))
	e.set("engine.tiles_lowrank", float64(fp.LowRank))
	e.set("engine.tiles_evicted", float64(fp.TilesEvicted))
	e.set("engine.max_rank", float64(fp.MaxRank))
}

// coldTLRExtras are the traced run's two additions on cold_tlr_6k: the same
// operation on one worker (the plain single-thread baseline that
// parallel_eff_w2 divides by) and a factor-store round trip.
func coldTLRExtras(e *env, cfg parmvn.Config, sh shape, locs [][]parmvn.Point, a, b []float64) error {
	one := cfg
	one.Workers = 1
	rec, _, err := coldOp(e, len(e.ops), one, sh, locs[0], a, b)
	if err != nil {
		return fmt.Errorf("single-worker baseline: %w", err)
	}
	e.set("taskrt.parallel_eff_w2", rec.ms/(workers*median(e.opMs(""))))

	if err := os.MkdirAll(e.opts.outDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(e.opts.outDir, "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := parmvn.OpenFactorStore(dir)
	if err != nil {
		return err
	}
	src := parmvn.NewSession(cfg)
	defer src.Close()
	if err := src.Prefactorize(locs[1], sh.kernel); err != nil {
		return err
	}
	op := len(e.ops) + 1
	root := e.tr.begin("factorio.roundtrip", -1, op)
	t0 := time.Now()
	id := e.tr.begin("factorio.save", root, op)
	err = src.SaveFactor(store, locs[1], sh.kernel)
	e.tr.end(id)
	saveS := time.Since(t0).Seconds()
	if err != nil {
		return fmt.Errorf("SaveFactor: %w", err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*"))
	var fileBytes float64
	for _, f := range files {
		if st, err := os.Stat(f); err == nil {
			fileBytes += float64(st.Size())
		}
	}
	fresh := parmvn.NewSession(cfg)
	defer fresh.Close()
	pk, err := fresh.ProblemKey(locs[1], sh.kernel)
	if err != nil {
		return err
	}
	t1 := time.Now()
	id = e.tr.begin("factorio.load", root, op)
	err = fresh.LoadFactor(store, pk)
	e.tr.end(id)
	loadS := time.Since(t1).Seconds()
	if err != nil {
		return fmt.Errorf("LoadFactor: %w", err)
	}
	id = e.tr.begin("mvn.query", root, op)
	res, err := fresh.MVNProb(locs[1], sh.kernel, a, b)
	e.tr.end(id)
	e.tr.end(root)
	if err != nil {
		return err
	}
	if hits, misses := fresh.Cache().Stats(); misses != 0 {
		return fmt.Errorf("restarted session factorized (cache hits=%d misses=%d) instead of using the stored factor", hits, misses)
	}
	if want := e.ops[0].prob; math.Abs(res.Prob-want) > approxCeiling*want {
		e.fail(e.spec.Name+"#restart", "stored factor answers %.9g, the built one %.9g", res.Prob, want)
	}
	// Both rates include the file write (with its fsync) and read; the
	// codec is not reachable from outside the session without them.
	e.set("factorio.file_mb", fileBytes/(1<<20))
	e.set("factorio.encode_mbs", fileBytes/1e6/saveS)
	e.set("factorio.decode_mbs", fileBytes/1e6/loadS)
	e.set("factorio.restart_first_query_ms", float64(time.Since(t1))/1e6)
	return nil
}
