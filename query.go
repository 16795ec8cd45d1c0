package parmvn

import (
	"repro/internal/mvn"
)

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

// eval is the one query path: every exported *Prob* method builds a problem
// and integrates one box [a,b] over it here. It checks ν, then the box. An
// empty box (some a[i] ≥ b[i]) has probability exactly 0: nothing is
// assembled or factorized, though a kernel spec is still validated.
// Otherwise it fetches the (possibly cached) factor and integrates the box as
// a task graph on the session runtime — inline on a one-worker session. A
// query's replicate shifts are a deterministic function of its options, so
// its result does not depend on the worker count, on the factor being warm or
// cold, or on the other queries running on the session.
func (s *Session) eval(p problem, a, b []float64, opts QueryOpts) (Result, error) {
	if p.mvt {
		if err := validateNu(p.nu); err != nil {
			return Result{}, err
		}
	}
	n := p.dim()
	empty, err := validateQuery(n, a, b)
	if err != nil {
		return Result{}, err
	}
	if empty {
		if p.cov {
			return Result{}, nil
		}
		return Result{}, p.kernel.validate()
	}
	f, err := s.fetch(&p)
	if err != nil {
		return Result{}, err
	}
	o := opts.apply(s.mvnOpts())
	var r mvn.Result
	if p.mvt {
		r = mvn.PMVT(s.rt, f, a, b, p.nu, o)
	} else {
		r = mvn.PMVN(s.rt, f, a, b, o)
	}
	return Result{
		Prob: r.Prob, StdErr: r.StdErr, RelErr: r.RelErr,
		Samples: r.Samples, Converged: r.Converged, Canceled: r.Canceled,
	}, nil
}

// fetch returns the problem's (possibly cached) factor: its key, then the one
// acquire path. A malformed spec or a Σ that sigmaKey refuses is neither
// factored nor cached, so it never evicts a real factor.
func (s *Session) fetch(p *problem) (*mvn.Factor, error) {
	if !p.cov {
		if err := p.kernel.validate(); err != nil {
			return nil, err
		}
		key := s.cfg.key('k', hashPoints(p.locs), len(p.locs), p.kernel.normalized())
		return s.acquire(key, source{locs: p.locs, spec: p.kernel})
	}
	sigma := p.sigma
	key, err := s.sigmaKey(func(i int) []float64 { return sigma[i] }, len(sigma), nil, nil)
	if err != nil {
		return nil, err
	}
	return s.acquire(key, source{n: len(sigma), fill: func(dst []float64, row0, j int) { copy(dst, sigma[j][row0:]) }})
}

// factor is the factor-only calls' path (Prefactorize, SaveFactor,
// FactorFootprint): it refuses an empty problem, as a query on p would, before
// touching the cache, and then fetches the factor as a query would.
func (s *Session) factor(p problem) (*mvn.Factor, error) {
	if err := validateDim(p.dim()); err != nil {
		return nil, err
	}
	return s.fetch(&p)
}
