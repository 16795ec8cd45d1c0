// Command mvnprob computes one high-dimensional MVN probability
// Φn(a,b;0,Σ) for a Gaussian field on a regular grid, with dense or TLR
// factorization, and reports the probability, error estimate and timing.
//
// With -batch N it evaluates N queries whose lower limits sweep a span of
// thresholds against the same covariance, one MVNProbOpts call after another
// on one session: the factorization is paid once and cached, and every query
// runs on the cached factor.
//
// -deadline caps each query's integration: the factor is built first, and
// each query's deadline starts when that query does.
//
// With -cpuprofile/-memprofile it writes pprof profiles of the run, so
// query-path performance work starts from data (`go tool pprof <file>`).
//
// Example:
//
//	mvnprob -grid 40 -kernel exponential -range 0.1 -lower -0.5 -method tlr -qmc 5000
//	mvnprob -grid 32 -batch 10 -batch-span 1.5
//	mvnprob -grid 32 -batch 20 -cpuprofile cpu.prof -memprofile mem.prof
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"repro"
)

// stopTag names how a budgeted query stopped: converged on its error
// target, canceled, or capped by the sample/deadline budget.
func stopTag(r parmvn.Result) string {
	switch {
	case r.Converged:
		return "  (converged)"
	case r.Canceled:
		return "  (canceled)"
	default:
		return "  (budget-capped)"
	}
}

// printStats reports the scheduler behavior of the session's run (the
// -stats flag).
func printStats(s *parmvn.Session) {
	st := s.SchedulerStats()
	fmt.Printf("scheduler      %d tasks executed, peak ready-queue depth %d\n",
		st.Total(), st.PeakReady)
	fmt.Printf("               peak in-flight %d\n", st.PeakInflight)
	kinds := make([]string, 0, len(st.Tasks))
	for k := range st.Tasks {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Printf("  %-12s %8d tasks  %10.3fms busy\n",
			k, st.Tasks[k], float64(st.BusyTime[k].Microseconds())/1000)
	}
}

func main() {
	grid := flag.Int("grid", 20, "grid side (dimension = grid²)")
	family := flag.String("kernel", "exponential", "kernel family: exponential, matern, powexp")
	rng := flag.Float64("range", 0.1, "kernel range parameter")
	nu := flag.Float64("nu", 1.5, "Matérn smoothness / powexp exponent")
	nugget := flag.Float64("nugget", 0, "white-noise nugget τ² added to the kernel diagonal")
	lower := flag.Float64("lower", -0.5, "common lower integration limit (upper is +Inf)")
	upper := flag.Float64("upper", math.Inf(1), "common upper integration limit")
	method := flag.String("method", "dense", "factorization: dense, tlr or adaptive")
	tol := flag.Float64("tlr-tol", 1e-4, "TLR compression accuracy")
	qmc := flag.Int("qmc", 2000, "QMC sample size")
	reps := flag.Int("reps", 3, "randomized QMC replicates for the error estimate")
	tile := flag.Int("tile", 0, "tile size (0 = auto)")
	workers := flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
	tracePath := flag.String("trace", "", "write a Chrome trace of the task execution to this file")
	batch := flag.Int("batch", 0, "evaluate this many lower-limit thresholds on the one cached factor (0 = single query)")
	batchSpan := flag.Float64("batch-span", 1.0, "lower-limit span covered by the -batch thresholds")
	stats := flag.Bool("stats", false, "report runtime scheduler statistics (tasks executed, peak ready-queue depth)")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile (taken after the run) to this file")
	maxRelErr := flag.Float64("maxrelerr", 0, "early-stop relative-error target: the integration runs incremental waves and stops once the streaming error estimate meets it (0 = fixed -qmc samples)")
	deadline := flag.Duration("deadline", 0, "wall-clock budget per query (e.g. 50ms); the running estimate is returned when it expires (0 = none)")
	flag.Parse()
	m, err := parmvn.ParseMethod(*method)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mvnprob:", err)
		os.Exit(2)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mvnprob:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "mvnprob:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		// Report-only on failure: os.Exit here would skip the CPU-profile
		// defers registered above and truncate that file too.
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "mvnprob:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows retained memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "mvnprob:", err)
			}
		}()
	}

	ts := *tile
	if ts == 0 {
		ts = max(16, (*grid)*(*grid)/10)
	}
	s := parmvn.NewSession(parmvn.Config{
		Method: m, Workers: *workers, TileSize: ts,
		TLRTol: *tol, QMCSize: *qmc, Replicates: *reps,
	})
	defer s.Close()

	if *tracePath != "" {
		s.EnableTracing()
	}
	locs := parmvn.Grid(*grid, *grid)
	n := len(locs)
	kernel := parmvn.KernelSpec{Family: *family, Range: *rng, Nu: *nu, Nugget: *nugget}
	fmt.Printf("dimension      %d\n", n)
	if built := min(ts, n); built < ts {
		// TileSize caps the tile: a problem smaller than it is one tile.
		fmt.Printf("method         %s (tile %d, cap %d)\n", m, built, ts)
	} else {
		fmt.Printf("method         %s (tile %d)\n", m, ts)
	}
	fmt.Printf("QMC            N=%d, %d replicates\n", *qmc, *reps)
	budgeted := *maxRelErr > 0 || *deadline > 0
	if budgeted {
		fmt.Printf("early stop     target rel err %g, deadline %v (N is the total sample budget)\n", *maxRelErr, *deadline)
	}
	start := time.Now()
	// Factor first, so that a query's deadline covers its integration alone.
	if err := s.Prefactorize(locs, kernel); err != nil {
		fmt.Fprintln(os.Stderr, "mvnprob:", err)
		os.Exit(1)
	}
	query := func(a, b []float64) parmvn.Result {
		opts := parmvn.QueryOpts{MaxRelErr: *maxRelErr}
		if *deadline > 0 {
			opts.Deadline = time.Now().Add(*deadline)
		}
		res, err := s.MVNProbOpts(locs, kernel, a, b, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mvnprob:", err)
			os.Exit(1)
		}
		return res
	}
	a := make([]float64, n)
	b := make([]float64, n)
	if *batch > 1 {
		for q := 0; q < *batch; q++ {
			lo := *lower + *batchSpan*float64(q)/float64(*batch-1)
			for i := range a {
				a[i], b[i] = lo, *upper
			}
			r := query(a, b)
			if budgeted {
				fmt.Printf("  lower %+.4f  probability %.8g  stderr %.2e  relerr %.2e  samples %d%s\n",
					lo, r.Prob, r.StdErr, r.RelErr, r.Samples, stopTag(r))
			} else {
				fmt.Printf("  lower %+.4f  probability %.8g  stderr %.2e\n", lo, r.Prob, r.StdErr)
			}
		}
		hits, misses := s.Cache().Stats()
		fmt.Printf("batch          %d queries, 1 factorization (cache %d hit / %d miss)\n",
			*batch, hits, misses)
	} else {
		for i := range a {
			a[i], b[i] = *lower, *upper
		}
		res := query(a, b)
		fmt.Printf("probability    %.8g\n", res.Prob)
		fmt.Printf("std error      %.2e\n", res.StdErr)
		if budgeted {
			fmt.Printf("achieved       rel err %.3e with %d samples%s\n", res.RelErr, res.Samples, stopTag(res))
		}
	}
	fmt.Printf("elapsed        %.3fs\n", time.Since(start).Seconds())
	if *stats {
		printStats(s)
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mvnprob:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := s.WriteTrace(f); err != nil {
			fmt.Fprintln(os.Stderr, "mvnprob:", err)
			os.Exit(1)
		}
		fmt.Printf("trace          %s\n", *tracePath)
	}
}
