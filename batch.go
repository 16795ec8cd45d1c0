package parmvn

import (
	"fmt"

	"repro/internal/mvn"
	"repro/internal/taskrt"
)

// Bounds is one integration box [a,b] of a batched MVN query.
type Bounds struct {
	A, B []float64
}

// optAt resolves the per-query opts of a batch: nil means every query is
// unconstrained, a single element is shared by all queries, and a
// len(queries) slice assigns opts query by query (validated up front).
//repro:noalloc
func optAt(opts []QueryOpts, i int) QueryOpts {
	switch len(opts) {
	case 0:
		return QueryOpts{}
	case 1:
		return opts[0]
	default:
		return opts[i]
	}
}

//repro:noalloc
func validateBatchOpts(opts []QueryOpts, nq int) error {
	if len(opts) > 1 && len(opts) != nq {
		//repro:alloc-ok rejection path
		return fmt.Errorf("parmvn: %d opts for %d queries (want 0, 1 or %d)", len(opts), nq, nq)
	}
	return nil
}

// MVNProbBatch computes Φn(a,b;0,Σ) for every query against the single
// covariance assembled from the kernel at locs. Σ is factorized once — from
// the session factor cache when warm — and the independent queries fan out
// across the task runtime, so a batch costs one factorization plus the
// parallel integrations. With a fixed configuration the results are
// identical to len(queries) sequential MVNProb calls.
func (s *Session) MVNProbBatch(locs []Point, kernel KernelSpec, queries []Bounds) ([]Result, error) {
	return s.probBatch(locs, kernel, 0, queries, nil)
}

// MVNProbBatchOpts is MVNProbBatch with per-query accuracy/latency budgets:
// opts may be nil (all unconstrained), a single element (shared by every
// query) or one element per query. A budget adds the stop test to a query's
// integration (see QueryOpts); unconstrained ones are bit-identical to
// MVNProbBatch.
func (s *Session) MVNProbBatchOpts(locs []Point, kernel KernelSpec, queries []Bounds, opts []QueryOpts) ([]Result, error) {
	return s.probBatch(locs, kernel, 0, queries, opts)
}

// MVTProbBatch is MVNProbBatch for the multivariate Student-t probability
// T_n(a,b;Σ,ν): one shared factorization, parallel queries, results
// identical to sequential MVTProb calls. The Cholesky factor depends only on
// the covariance, so MVN and MVT queries against the same locations and
// kernel share one cached factor across both batch entry points.
func (s *Session) MVTProbBatch(locs []Point, kernel KernelSpec, nu float64, queries []Bounds) ([]Result, error) {
	if err := validateNu(nu); err != nil {
		return nil, err
	}
	return s.probBatch(locs, kernel, nu, queries, nil)
}

// MVTProbBatchOpts is MVTProbBatch with per-query accuracy/latency budgets
// (see MVNProbBatchOpts for the opts conventions).
func (s *Session) MVTProbBatchOpts(locs []Point, kernel KernelSpec, nu float64, queries []Bounds, opts []QueryOpts) ([]Result, error) {
	if err := validateNu(nu); err != nil {
		return nil, err
	}
	return s.probBatch(locs, kernel, nu, queries, opts)
}

// probBatch is the shared kernel-covariance batch path (nu = 0 → MVN,
// nu > 0 → MVT).
func (s *Session) probBatch(locs []Point, kernel KernelSpec, nu float64, queries []Bounds, opts []QueryOpts) ([]Result, error) {
	empty, anyLive, err := validateQueries(len(locs), queries)
	if err != nil {
		return nil, err
	}
	if err := validateBatchOpts(opts, len(queries)); err != nil {
		return nil, err
	}
	if err := s.validateTileSize(len(locs)); err != nil {
		return nil, err
	}
	if !anyLive {
		// Every box is empty: all probabilities are exactly 0, so nothing is
		// assembled or factorized — same as the direct path query by query.
		if err := kernel.validate(); err != nil {
			return nil, err
		}
		return s.finishBatch(make([]Result, len(queries))), nil
	}
	f, err := s.factorForKernel(locs, kernel)
	if err != nil {
		return nil, err
	}
	return s.evalBatch(f, queries, empty, nu, opts)
}

// MVNProbCovBatch is MVNProbBatch for an explicit covariance matrix given as
// rows; the factor is cached by matrix content. Σ is read in place,
// concurrently, and never copied: it must not be mutated during the call, and
// entry (i,j), i ≥ j, of the factored matrix is read as sigma[j][i]. A NaN or
// infinite entry is refused with a *DetectInputError naming its row.
func (s *Session) MVNProbCovBatch(sigma [][]float64, queries []Bounds) ([]Result, error) {
	n := len(sigma)
	empty, anyLive, err := validateQueries(n, queries)
	if err != nil {
		return nil, err
	}
	if err := s.validateTileSize(n); err != nil {
		return nil, err
	}
	if !anyLive {
		return s.finishBatch(make([]Result, len(queries))), nil
	}
	f, err := s.factorForSigma(func(i int) []float64 { return sigma[i] }, n, nil, nil,
		func(dst []float64, row0, j int) { copy(dst, sigma[j][row0:]) })
	if err != nil {
		return nil, err
	}
	return s.evalBatch(f, queries, empty, 0, nil)
}

// query evaluates one pre-validated box against the factor (nu = 0 → MVN).
//repro:noalloc
func (s *Session) query(f *mvn.Factor, a, b []float64, nu float64, opts mvn.Options) Result {
	var r mvn.Result
	if nu > 0 {
		r = mvn.PMVT(s.rt, f, a, b, nu, opts)
	} else {
		r = mvn.PMVN(s.rt, f, a, b, opts)
	}
	return Result{
		Prob: r.Prob, StdErr: r.StdErr, RelErr: r.RelErr,
		Samples: r.Samples, Converged: r.Converged, Canceled: r.Canceled,
	}
}

// evalBatch runs the pre-validated queries against one shared factor. Each
// query gets a fresh Options, and its replicate shifts are a deterministic
// function of them, so result i is bit-identical to a standalone
// MVNProb/MVTProb with the same inputs regardless of batching or execution
// order. Empty boxes short-circuit to probability 0 without integrating.
func (s *Session) evalBatch(f *mvn.Factor, queries []Bounds, empty []bool, nu float64, qopts []QueryOpts) ([]Result, error) {
	out := make([]Result, len(queries))
	if len(queries) <= 1 {
		for i, q := range queries {
			if empty[i] {
				continue
			}
			out[i] = s.query(f, q.A, q.B, nu, optAt(qopts, i).apply(s.mvnOpts()))
		}
		return s.finishBatch(out), nil
	}
	// Fan out with at most Workers queries in flight, bounding the working
	// memory while keeping the pool saturated. Each fanned query runs its
	// chain-blocked sweep inline on its own goroutine — one query per
	// worker, no per-query task graphs, allocation-free when warm — and
	// produces exactly the same result either way.
	opts := s.mvnOpts()
	opts.Inline = true
	taskrt.ForEachLimit(len(queries), s.cfg.Workers, func(i int) {
		if empty[i] {
			return
		}
		out[i] = s.query(f, queries[i].A, queries[i].B, nu, optAt(qopts, i).apply(opts))
	})
	return s.finishBatch(out), nil
}

// finishBatch attaches one shared scheduler-statistics snapshot to every
// result of the batch when the session collects stats.
func (s *Session) finishBatch(out []Result) []Result {
	if s.cfg.CollectStats {
		snap := s.rt.Snapshot()
		for i := range out {
			out[i].Stats = &snap
		}
	}
	return out
}
