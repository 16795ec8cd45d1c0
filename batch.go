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

// problem is what every query entry point integrates over: either the kernel
// at locs or, with cov, the caller's explicit Σ rows, and either the normal
// distribution or, with mvt, the Student-t one with nu degrees of freedom.
type problem struct {
	locs   []Point
	kernel KernelSpec
	sigma  [][]float64
	cov    bool
	mvt    bool
	nu     float64
}

// dim is the problem dimension.
func (p *problem) dim() int {
	if p.cov {
		return len(p.sigma)
	}
	return len(p.locs)
}

// optAt resolves the per-query opts of a batch: nil means every query is
// unconstrained, a single element is shared by all queries, and a
// len(queries) slice assigns opts query by query (validated up front).
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

// MVNProbBatch computes Φn(a,b;0,Σ) for every query against the single
// covariance assembled from the kernel at locs. Σ is factorized once — from
// the session factor cache when warm — and the independent queries fan out
// across the task runtime, so a batch costs one factorization plus the
// parallel integrations. With a fixed configuration the results are
// identical to len(queries) sequential MVNProb calls.
func (s *Session) MVNProbBatch(locs []Point, kernel KernelSpec, queries []Bounds) ([]Result, error) {
	return s.batch(problem{locs: locs, kernel: kernel}, queries, nil)
}

// MVNProbBatchOpts is MVNProbBatch with per-query accuracy/latency budgets:
// opts may be nil (all unconstrained), a single element (shared by every
// query) or one element per query. A budget adds the stop test to a query's
// integration (see QueryOpts); unconstrained ones are bit-identical to
// MVNProbBatch.
func (s *Session) MVNProbBatchOpts(locs []Point, kernel KernelSpec, queries []Bounds, opts []QueryOpts) ([]Result, error) {
	return s.batch(problem{locs: locs, kernel: kernel}, queries, opts)
}

// MVTProbBatch is MVNProbBatch for the multivariate Student-t probability
// T_n(a,b;Σ,ν): one shared factorization, parallel queries, results
// identical to sequential MVTProb calls. The Cholesky factor depends only on
// the covariance, so MVN and MVT queries against the same locations and
// kernel share one cached factor across both batch entry points.
func (s *Session) MVTProbBatch(locs []Point, kernel KernelSpec, nu float64, queries []Bounds) ([]Result, error) {
	return s.batch(problem{locs: locs, kernel: kernel, mvt: true, nu: nu}, queries, nil)
}

// MVNProbCovBatch is MVNProbBatch for an explicit covariance matrix given as
// rows; the factor is cached by matrix content. Σ is read in place,
// concurrently, and never copied: it must not be mutated during the call, and
// entry (i,j), i ≥ j, of the factored matrix is read as sigma[j][i]. A NaN or
// infinite entry is refused with a *DetectInputError naming its row.
func (s *Session) MVNProbCovBatch(sigma [][]float64, queries []Bounds) ([]Result, error) {
	return s.batch(problem{sigma: sigma, cov: true}, queries, nil)
}

// single is the direct entry points' call: eval over one box, its error
// returned as is. The one-element arrays stay on the stack, which is why eval
// must not leak its slices.
func (s *Session) single(p problem, a, b []float64, opts QueryOpts) (Result, error) {
	qs, qo, out := [1]Bounds{{A: a, B: b}}, [1]QueryOpts{opts}, [1]Result{}
	if _, err := s.eval(&p, qs[:], qo[:], out[:]); err != nil {
		return Result{}, err
	}
	return out[0], nil
}

// batch is the batch entry points' call: eval into fresh results, a bad
// box's error prefixed with its index.
func (s *Session) batch(p problem, qs []Bounds, opts []QueryOpts) ([]Result, error) {
	out := make([]Result, len(qs))
	bad, err := s.eval(&p, qs, opts, out)
	switch {
	case bad >= 0:
		return nil, fmt.Errorf("parmvn: query %d: %w", bad, err)
	case err != nil:
		return nil, err
	}
	return out, nil
}

// eval is the one query path. It checks ν, then every box (bad is the index
// of the first malformed one, else -1), then the opts shape (see optAt), then
// the tile size. If every box is empty (some a[i] ≥ b[i]) every probability
// is exactly 0 and nothing is assembled or factorized, though a kernel spec
// is still validated. Otherwise it fetches the factor once: one box runs as a
// task graph on the runtime, several fan out one query per worker, inline.
// Each query's replicate shifts are a deterministic function of its options,
// so result i is bit-identical whichever way it ran and however the boxes
// were batched. out (zeroed, len(qs) long) receives the results.
func (s *Session) eval(p *problem, qs []Bounds, opts []QueryOpts, out []Result) (bad int, err error) {
	if p.mvt {
		if err := validateNu(p.nu); err != nil {
			return -1, err
		}
	}
	n, live := p.dim(), false
	for i, q := range qs {
		empty, err := validateQuery(n, q.A, q.B)
		if err != nil {
			return i, err
		}
		live = live || !empty
	}
	if len(opts) > 1 && len(opts) != len(qs) {
		return -1, fmt.Errorf("parmvn: %d opts for %d queries (want 0, 1 or %d)", len(opts), len(qs), len(qs))
	}
	if err := s.validateTileSize(n); err != nil {
		return -1, err
	}
	if live {
		f, err := s.fetch(p)
		if err != nil {
			return -1, err
		}
		if len(qs) == 1 {
			out[0] = s.query(f, qs[0].A, qs[0].B, p.nu, optAt(opts, 0).apply(s.mvnOpts()))
		} else {
			// At most Workers queries in flight bounds the working memory while
			// keeping the pool saturated; each sweeps inline on its own
			// goroutine, allocation-free when warm. The closure escapes, so it
			// works on heap copies: capturing qs, opts or out would move a
			// one-box call's stack arrays to the heap.
			boxes, qo, res := make([]Bounds, len(qs)), make([]QueryOpts, len(opts)), make([]Result, len(qs))
			copy(boxes, qs)
			copy(qo, opts)
			base, nu := s.mvnOpts(), p.nu
			base.Inline = true
			taskrt.ForEachLimit(len(boxes), s.cfg.Workers, func(i int) {
				if !EmptyQuery(boxes[i].A, boxes[i].B) {
					res[i] = s.query(f, boxes[i].A, boxes[i].B, nu, optAt(qo, i).apply(base))
				}
			})
			copy(out, res)
		}
	} else if !p.cov {
		// No box needs the factor; a malformed kernel spec is still an error.
		if err := p.kernel.validate(); err != nil {
			return -1, err
		}
	}
	return -1, nil
}

// fetch returns the problem's (possibly cached) factor.
func (s *Session) fetch(p *problem) (*mvn.Factor, error) {
	if !p.cov {
		return s.factorForKernel(p.locs, p.kernel)
	}
	sigma := p.sigma
	row := func(i int) []float64 { return sigma[i] }
	// explicit-Σ keying: every entry hashed in tasks, tiles filled from the rows
	return s.factorForSigma(row, len(sigma), nil, nil, func(dst []float64, row0, j int) { copy(dst, sigma[j][row0:]) })
}

// factor is the factor-only calls' path (Prefactorize, SaveFactor,
// FactorFootprint): it refuses what a query on p would refuse before touching
// the cache — an empty problem, a tile size larger than it — and then fetches
// the factor as a query would.
func (s *Session) factor(p problem) (*mvn.Factor, error) {
	if err := validateDim(p.dim()); err != nil {
		return nil, err
	}
	if err := s.validateTileSize(p.dim()); err != nil {
		return nil, err
	}
	return s.fetch(&p)
}

// query evaluates one pre-validated box against the factor (nu = 0 → MVN).
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
