package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	parmvn "repro"
	"repro/internal/datagen"
)

// crdDatasetSeed draws crd_2k's field and observation sites, the same in
// every run; the run's seed draws the observation noise.
const crdDatasetSeed = 1

// runCRD is crd_2k: set-up builds the paper's synthetic dataset and its
// posterior; an operation is a fresh adaptive session and one
// DetectRegionCov — the application end to end. Its reference is the same
// call on the dense method with the same samples, made after the measured
// phase, because the posterior mean depends on the seed.
//
// Only the observation noise comes from the seed. With field and sites
// seeded too, the region had 44 to 224 of the 2500 locations across ten
// seeds and an operation took 2.1 to 2.6 s with it, ±3 % within a run: the
// spread of op_ms across seeds was the datasets', not the program's. The
// posterior covariance depends on the sites alone, so it is the same for
// every seed, and the mean is µ = Σ_post·Aᵀy/τ² for the seed's y.
func runCRD(e *env) error {
	const u, conf = 0.0, 0.95
	const tau = 0.5 // observation noise sd, as in datagen.NewSyntheticDataset
	v := variant{n: e.sz.crdN, reps: 1}
	var sigma [][]float64
	var mu []float64
	_, err := e.setup(1, func() (func(), error) {
		ds, err := datagen.NewSyntheticDataset(e.sz.crdSide, e.sz.crdObs, "medium", rand.New(rand.NewSource(crdDatasetSeed)))
		if err != nil {
			return nil, err
		}
		n := ds.PostCov.Rows
		sigma = make([][]float64, n)
		for i := range sigma {
			sigma[i] = make([]float64, n)
			for j := range sigma[i] {
				sigma[i][j] = ds.PostCov.At(i, j)
			}
		}
		rng := e.newRng()
		mu = make([]float64, n)
		for _, site := range ds.ObsIdx {
			y := ds.Field.Values[site] + tau*rng.NormFloat64()
			for j := range mu {
				mu[j] += sigma[j][site] * y / (tau * tau)
			}
		}
		return func() {}, nil
	})
	if err != nil {
		return err
	}
	n := len(mu)
	detect := func(sess *parmvn.Session, name string, op int) (*parmvn.Excursion, float64, error) {
		t0 := time.Now()
		id := e.tr.begin(name, -1, op)
		exc, err := sess.DetectRegionCov(sigma, mu, u, conf, e.sz.crdNodes)
		e.tr.end(id)
		return exc, float64(time.Since(t0)) / 1e6, err
	}

	cfg := config(parmvn.MethodAdaptive, e.sz.crdTile, 1e-4, v)
	var got *parmvn.Excursion
	sh := shape{key: fmt.Sprintf("crd/n%d", n)}
	e.beginMeasure()
	for i := 0; i < e.rounds(); i++ { // a round is one detection
		e.beginRound()
		sess := parmvn.NewSession(cfg)
		exc, ms, err := detect(sess, "op", i)
		sess.Close()
		if err != nil {
			e.failOp(fmt.Sprintf("%s#%d", e.spec.Name, i), err)
			continue
		}
		got = exc
		e.record(opRecord{label: "crd", sh: sh, v: v, ms: ms, prob: float64(len(exc.Region))})
	}
	e.endMeasure()
	if got == nil {
		return nil
	}
	e.set("excursion.region_size", float64(len(got.Region)))

	// Reference: the dense method on the same covariance.
	ref := parmvn.NewSession(config(parmvn.Dense, e.sz.crdTile, 0, v))
	want, _, err := detect(ref, "reference.dense", -1)
	ref.Close()
	if err != nil {
		return fmt.Errorf("dense reference: %w", err)
	}
	// The confidence function at its evaluation nodes (ranks 1…n along the
	// marginal ordering), where it was integrated rather than interpolated.
	worst := 0.0
	nodes := e.sz.crdNodes
	for i := 0; i < nodes; i++ {
		rank := 1 + int(math.Round(float64(i)*float64(n-1)/float64(nodes-1)))
		loc := want.Order[rank-1]
		if f := want.F[loc]; f > 0 {
			worst = math.Max(worst, math.Abs(got.F[loc]-f)/f)
		}
	}
	e.approxErr = worst
	diff := symDiff(got.Region, want.Region)
	name := e.spec.Name + "#all"
	switch {
	case !(worst <= approxCeilingCRD):
		e.fail(name, "confidence function is %.3g from the dense reference at a node (ceiling %g)", worst, approxCeilingCRD)
	case float64(diff) > regionCeiling*float64(n):
		e.fail(name, "region differs from the dense reference's in %d of %d locations (ceiling %g of n)", diff, n, regionCeiling)
	}
	fmt.Fprintf(e.out, "# ops %s x%d region=%d reference_region=%d sym_diff=%d approx_rel_err=%.3g p50_ms=%.4g\n",
		e.spec.Name, len(e.ops), len(got.Region), len(want.Region), diff, worst, median(e.opMs("")))
	if !e.opts.trace {
		return nil
	}

	// Second detection on one session: the factor is cached, so what is
	// left is the region search's queries.
	sess := parmvn.NewSession(cfg)
	defer sess.Close()
	_, coldMs, err := detect(sess, "excursion.detect_cold", len(e.ops))
	if err != nil {
		return err
	}
	_, warmMs, err := detect(sess, "excursion.detect_warm", len(e.ops))
	if err != nil {
		return err
	}
	st := sess.SchedulerStats()
	e.set("excursion.cold_region_s", coldMs/1e3)
	e.set("excursion.warm_region_s", warmMs/1e3)
	e.set("excursion.factorize_share", 1-warmMs/coldMs)
	e.set("taskrt.tasks_total", float64(st.Total()))
	e.set("taskrt.stolen", float64(st.Stolen))
	e.set("taskrt.peak_inflight", float64(st.PeakInflight))
	e.set("taskrt.peak_ready", float64(st.PeakReady))
	e.set("taskrt.busy_frac", totalBusy(st)/(workers*(coldMs+warmMs)/1e3))
	setKindBusy(e, func(kind string) float64 { return st.BusyTime[kind].Seconds() })
	return nil
}

// symDiff counts the elements in exactly one of two index sets.
func symDiff(a, b []int) int {
	in := map[int]bool{}
	for _, i := range a {
		in[i] = true
	}
	d := len(a)
	for _, i := range b {
		if in[i] {
			d--
		} else {
			d++
		}
	}
	return d
}
