// Package parmvn is the public facade of the parallel high-dimensional
// multivariate normal (MVN) probability library, a from-scratch Go
// reproduction of "Parallel Approximations for High-Dimensional
// Multivariate Normal Probability Computation in Confidence Region
// Detection Applications" (IPDPS 2024).
//
// The package computes Φn(a,b;0,Σ) with the tiled, task-parallel
// Separation-of-Variables algorithm — with either a dense or a Tile
// Low-Rank (TLR) Cholesky factorization of Σ — and applies it to
// confidence-region (excursion-set) detection on Gaussian random fields.
//
// Typical use:
//
//	s := parmvn.NewSession(parmvn.Config{Method: parmvn.TLR})
//	defer s.Close()
//	res, err := s.MVNProb(locs, kernel, a, b)
//
// The heavy lifting lives in the internal packages (linalg, tile, engine,
// taskrt, mvn, excursion); this facade wires them together behind a small
// surface.
package parmvn

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"sync"
	"time"

	"repro/internal/cov"
	"repro/internal/engine"
	"repro/internal/excursion"
	"repro/internal/geo"
	"repro/internal/linalg"
	"repro/internal/mvn"
	"repro/internal/stats"
	"repro/internal/taskrt"
	"repro/internal/tile"
)

// Method names the preset of the one tile policy the Cholesky factor is
// built with (see engine.Presets). Every method is the same tile Cholesky on
// the same engine; the preset decides each tile's representation.
type Method int

// Factorization methods.
const (
	// Dense keeps every tile dense float64 (the paper's Chameleon path): the
	// exact reference.
	Dense Method = iota
	// TLR tries every off-diagonal tile as low rank at TLRTol (the HiCMA
	// path), trading that accuracy for speed. A tile is low rank only if
	// TLRTol is met within half the tile side; any other stays dense float64.
	TLR
	// MethodAdaptive keeps one sub-diagonal dense float64 and tries the
	// tiles past it as low rank within a quarter of the tile side, the
	// measured break-even; any other stays dense float64. Where no tile
	// compresses, its factor is the Dense one bit for bit.
	MethodAdaptive
)

// policy is the engine policy m names, at accuracy tol: its row of
// engine.Presets, which the Method constants index. An unknown method is
// Dense, as String says.
func (m Method) policy(tol float64) engine.Policy {
	p := engine.Presets[Dense]
	if m >= 0 && int(m) < len(engine.Presets) {
		p = engine.Presets[m]
	}
	p.Tol = tol
	return p
}

// String returns "dense", "tlr" or "adaptive".
func (m Method) String() string {
	switch m {
	case TLR:
		return "tlr"
	case MethodAdaptive:
		return "adaptive"
	default:
		return "dense"
	}
}

// ParseMethod is the inverse of String: the method named "dense", "tlr" or
// "adaptive", or an error for any other name.
func ParseMethod(name string) (Method, error) {
	for m := Dense; int(m) < len(engine.Presets); m++ {
		if m.String() == name {
			return m, nil
		}
	}
	return Dense, fmt.Errorf("parmvn: unknown method %q (want dense, tlr or adaptive)", name)
}

// ErrNotPositiveDefinite reports a covariance whose Cholesky factorization
// met a non-positive pivot.
var ErrNotPositiveDefinite = linalg.ErrNotPositiveDefinite

// ErrApproximationIndefinite reports a TLR or adaptive factorization that met
// a non-positive pivot computed from some tile held low rank:
// the approximation at TLRTol, not necessarily Σ, is indefinite (a tighter
// TLRTol or the Dense method may succeed). A pivot that no approximated tile
// reached is plain ErrNotPositiveDefinite, as under Dense. It wraps
// ErrNotPositiveDefinite; the returned error also names the method, TLRTol,
// the tile and the pivot.
var ErrApproximationIndefinite error = approximationIndefinite{}

type approximationIndefinite struct{}

func (approximationIndefinite) Error() string { return "parmvn: approximate factor is indefinite" }
func (approximationIndefinite) Unwrap() error { return ErrNotPositiveDefinite }

// Point is a spatial location.
type Point struct {
	X, Y float64
}

// Grid returns an nx×ny regular grid of locations on the unit square.
func Grid(nx, ny int) []Point {
	g := geo.RegularGrid(nx, ny)
	out := make([]Point, g.Len())
	for i, p := range g.Pts {
		out[i] = Point{p.X, p.Y}
	}
	return out
}

// KernelSpec selects a stationary covariance kernel.
type KernelSpec struct {
	// Family is "exponential", "matern" or "powexp".
	Family string
	// Sigma2 is the marginal variance σ² (default 1).
	Sigma2 float64
	// Range is the spatial range parameter a.
	Range float64
	// Nu is the Matérn smoothness (matern) or the exponent (powexp).
	Nu float64
	// Nugget adds white noise τ² on the diagonal.
	Nugget float64
}

// normalized returns the spec with defaults applied and family-irrelevant
// fields zeroed, so that specs building identical kernels compare equal.
// build derives the kernel from this form and the factor-cache key uses it,
// which keeps the two definitionally consistent.
func (k KernelSpec) normalized() KernelSpec {
	if k.Family == "" {
		k.Family = "exponential"
	}
	if k.Sigma2 == 0 {
		k.Sigma2 = 1
	}
	if k.Family == "exponential" {
		k.Nu = 0
	}
	if k.Nugget <= 0 {
		k.Nugget = 0
	}
	return k
}

// Validate rejects malformed specs without constructing anything, with
// exactly the acceptance rules of the query entry points — exported so
// serving layers can fail a bad request before any routing or aggregation.
func (k KernelSpec) Validate() error { return k.validate() }

// validate rejects malformed specs without constructing anything — the
// warm-query path calls it before touching the factor cache, so invalid
// specs neither allocate nor occupy (and evict from) the bounded cache.
func (k KernelSpec) validate() error {
	k = k.normalized()
	if k.Range <= 0 {
		return fmt.Errorf("parmvn: kernel range must be positive, got %g", k.Range)
	}
	switch k.Family {
	case "exponential":
	case "matern":
		if k.Nu <= 0 {
			return fmt.Errorf("parmvn: matern needs Nu > 0")
		}
	case "powexp":
		if k.Nu <= 0 || k.Nu > 2 {
			return fmt.Errorf("parmvn: powexp needs 0 < Nu ≤ 2")
		}
	default:
		return fmt.Errorf("parmvn: unknown kernel family %q", k.Family)
	}
	return nil
}

func (k KernelSpec) build() (cov.Kernel, error) {
	if err := k.validate(); err != nil {
		return nil, err
	}
	k = k.normalized()
	var base cov.Kernel
	switch k.Family {
	case "exponential":
		base = &cov.Exponential{Sigma2: k.Sigma2, Range: k.Range}
	case "matern":
		base = cov.NewMatern(k.Sigma2, k.Range, k.Nu)
	case "powexp":
		base = &cov.PoweredExponential{Sigma2: k.Sigma2, Range: k.Range, Power: k.Nu}
	default:
		// validate and this switch must enumerate the same families.
		panic(fmt.Sprintf("parmvn: family %q passed validate but has no constructor", k.Family))
	}
	if k.Nugget > 0 {
		base = &cov.Nugget{Kernel: base, Tau2: k.Nugget}
	}
	return base, nil
}

// Config tunes a Session.
type Config struct {
	// Method names the preset of the tile policy the factor is built with:
	// Dense, TLR or MethodAdaptive.
	Method Method
	// Workers is the worker-goroutine count (default GOMAXPROCS).
	Workers int
	// TileSize caps the tile side (default 64): an n-dimensional problem is
	// tiled at min(TileSize, n), with a ragged last tile, so one session
	// serves every n ≥ 1 and a problem smaller than TileSize is one tile.
	TileSize int
	// TLRTol is the accuracy ε of every low-rank tile under TLR and
	// MethodAdaptive (default 1e-6).
	TLRTol float64
	// QMCSize is the QMC sample size N (default 2000).
	QMCSize int
	// Replicates is the number of randomized QMC replicates used for error
	// estimates (default 1; a budgeted query runs at least 4).
	Replicates int
	// FactorCacheCap bounds how many Cholesky factors the session keeps
	// (LRU eviction; each dense factor is O(n²) memory). The cache exceeds
	// it only while builds in flight (and Warm's factors) are pinned.
	// Default 8; 0 keeps the default, negative means unbounded.
	FactorCacheCap int
	// SweepF32 is ignored: every query runs the one float64 sweep, bit for
	// bit what a session without it returns. The float32 sweep it used to
	// select is gone; the field stays only until the benchmark, which still
	// sets it, changes next.
	SweepF32 bool
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.TileSize <= 0 {
		c.TileSize = 64
	}
	if c.TLRTol <= 0 {
		c.TLRTol = 1e-6
	}
	if c.QMCSize <= 0 {
		c.QMCSize = 2000
	}
	if c.Replicates <= 0 {
		c.Replicates = 1
	}
	switch {
	case c.FactorCacheCap == 0:
		c.FactorCacheCap = 8
	case c.FactorCacheCap < 0:
		c.FactorCacheCap = 0 // unbounded
	}
	return c
}

// Result is a probability estimate with its randomized-QMC standard error
// (zero unless Replicates ≥ 2 or the query set an accuracy/latency budget).
type Result struct {
	Prob   float64
	StdErr float64
	// RelErr is the achieved relative-error estimate StdErr/|Prob| (0 when
	// no replicate spread was computed, +Inf for a zero estimate with
	// nonzero spread).
	RelErr float64
	// Samples is the total number of QMC samples evaluated across all
	// replicates — under early stopping, the cost actually paid.
	Samples int
	// Converged reports that early stopping met the requested MaxRelErr; a
	// false value on a budgeted query means the estimate was capped by the
	// sample budget, the deadline or cancellation.
	Converged bool
	// Canceled reports that the query's context was canceled
	// mid-integration; Prob/StdErr still hold the partial estimate from the
	// waves that completed.
	Canceled bool
}

// QueryOpts are per-query accuracy/latency budgets. The zero value means
// unconstrained: QMCSize samples on each of Config.Replicates replicates,
// bit-identical to the call without opts. There is one integration loop (see
// internal/mvn); any budget adds its stop test and makes QMCSize the total:
// samples accrue one lane block per replicate per wave, on at least 4
// replicates, and the query stops at the first wave boundary where the
// accuracy target is met or a budget is exhausted, reporting the achieved
// error and the samples actually paid.
type QueryOpts struct {
	// MaxRelErr > 0 stops the integration once the streaming relative-error
	// estimate drops to this target. Config.QMCSize becomes the TOTAL
	// sample budget across replicates, so an unreachable target never costs
	// more than the unconstrained query.
	MaxRelErr float64
	// Deadline, when nonzero, is an absolute wall-clock cap, checked between
	// waves. At least one wave always runs, so a blown deadline still yields
	// an estimate with an error bar. A cold query spends part of it on the
	// factorization; to cap the integration alone, Prefactorize first and
	// set the deadline after.
	Deadline time.Time
	// Ctx, when non-nil, is checked between waves: on cancellation the
	// query returns the partial estimate with its error bar and the
	// Canceled flag.
	Ctx context.Context
}

// apply resolves the per-query budgets onto the session's base options.
func (q QueryOpts) apply(o mvn.Options) mvn.Options {
	o.MaxRelErr = q.MaxRelErr
	o.Ctx = q.Ctx
	o.Deadline = q.Deadline
	return o
}

// Session owns a task-runtime worker pool, a configuration and a factor
// cache. Computations on one session may run concurrently from multiple
// goroutines: each query's task graph lives in its own runtime group and the
// factor cache serializes factorization per covariance.
type Session struct {
	cfg   Config
	rt    *taskrt.Runtime
	cache *FactorCache
	saves sync.WaitGroup // Warm's store write-throughs
}

// NewSession starts a session with the given configuration.
func NewSession(cfg Config) *Session {
	c := cfg.withDefaults()
	return &Session{cfg: c, rt: taskrt.New(c.Workers), cache: newFactorCache(c.FactorCacheCap)}
}

// Cache exposes the session's factor cache (hit, miss and wait statistics).
func (s *Session) Cache() *FactorCache { return s.cache }

// ShareCache redirects s's factor lookups to peer's cache, so sessions
// whose configurations differ only in knobs outside the factor key (e.g.
// QMCSize or Replicates) reuse one set of Cholesky factors instead of each
// building its own. Must be called before s serves its first query. One
// sharer's Close detaches only that sharer: the cache stays whole for every
// sharer still open, and its factors become collectable once the last
// sharer is closed.
func (s *Session) ShareCache(peer *Session) { s.cache = peer.cache }

// Config returns the session's effective (defaulted) configuration.
func (s *Session) Config() Config { return s.cfg }

// Close waits for Warm's store write-throughs, shuts down the worker pool
// and releases the session's factors: the session drops its reference to
// the factor cache and keeps a stand-in holding the same hit, miss and wait
// counts and no factor, so Cache().Stats() reads the same after Close and a
// *Session held past Close pins no O(n²) memory. A closed session answers
// nothing; call no query, factor or Warm method on it.
func (s *Session) Close() {
	s.saves.Wait()
	s.rt.Shutdown()
	s.cache = s.cache.detached()
}

// EnableTracing starts recording one event per executed runtime task;
// retrieve the Chrome trace with WriteTrace.
func (s *Session) EnableTracing() { s.rt.EnableTracing() }

// WriteTrace writes the recorded task execution as Chrome trace-event JSON
// (viewable in chrome://tracing or Perfetto).
func (s *Session) WriteTrace(w io.Writer) error { return s.rt.WriteTrace(w) }

func toGeom(locs []Point) *geo.Geom {
	g := &geo.Geom{Pts: make([]geo.Point, len(locs))}
	for i, p := range locs {
		g.Pts[i] = geo.Point{X: p.X, Y: p.Y}
	}
	return g
}

// transposeBlock is the side of the blocks denseFromRows transposes: each
// destination run is contiguous, and the block's source rows stay in cache
// across its columns.
const transposeBlock = 16

// denseFromRows lays the rows of sigma out column-major, as they are: the
// matrix need not be symmetric.
func denseFromRows(sigma [][]float64) (*linalg.Matrix, error) {
	n := len(sigma)
	for i, row := range sigma {
		if len(row) != n {
			return nil, fmt.Errorf("parmvn: covariance row %d has %d entries, want %d", i, len(row), n)
		}
	}
	m := linalg.NewMatrix(n, n)
	for ib := 0; ib < n; ib += transposeBlock {
		rows := sigma[ib:min(ib+transposeBlock, n)]
		for j := 0; j < n; j++ {
			dst := m.Col(j)[ib : ib+len(rows)]
			for t, row := range rows {
				dst[t] = row[j]
			}
		}
	}
	return m, nil
}

// rowsFromSymmetric returns the rows of m, which is exactly symmetric (its
// upper triangle mirrored from its lower): row i is column i, copied whole.
func rowsFromSymmetric(m *linalg.Matrix) [][]float64 {
	out := make([][]float64, m.Rows)
	for i := range out {
		out[i] = make([]float64, m.Cols)
		copy(out[i], m.Col(i))
	}
	return out
}

// factorize is the one production factorization: the Cholesky factor of the
// n×n matrix fill evaluates in runs — a kernel over a geometry (source
// "kernel") or the caller's explicit Σ read in place (inMemory, source
// "sigma") — never materialized. Every tile is assembled by its own task fused
// into the factorization graph (engine.PotrfStream), in a runtime group of its
// own so concurrent queries never wait on each other's barriers, in the
// representation the method's policy chooses. A kernel's off-band tiles come
// from ACA (O(rank) cov.Fill runs of a tile side each); an in-memory Σ's
// tiles are gathered and compressed in hand. Submission is windowed for both,
// so the live footprint at large n is the factor as assembled. A build that
// finishes or fails logs one slog.Debug line; warm queries never get here.
func (s *Session) factorize(source string, n int, fill engine.RunFill, inMemory bool) (*mvn.Factor, error) {
	start := time.Now()
	grid, err := engine.NewGridChecked(n, min(s.cfg.TileSize, n))
	if err != nil {
		return nil, err
	}
	pol := s.cfg.Method.policy(s.cfg.TLRTol)
	rankLimit := pol.RankLimit(grid.TS, grid.TS) // of a full tile; 0 for the dense layout
	err = engine.PotrfStream(s.rt.NewGroup(), grid, pol.EntryAssembler(grid, fill, inMemory))
	var pe *engine.PivotError
	if errors.As(err, &pe) && approximatedThrough(grid, pe.K) {
		err = fmt.Errorf("%w: method %v, TLRTol %g, tile size %d: %v",
			ErrApproximationIndefinite, s.cfg.Method, s.cfg.TLRTol, grid.TS, err)
	}
	var f *mvn.Factor
	var bytes int64 // none for a failed build
	if err == nil {
		f = mvn.NewFactor(grid)
		bytes = grid.Bytes()
	}
	ps := grid.ProbeStats()
	slog.Debug("parmvn: factorization", "source", source, "n", n, "tile", grid.TS,
		"method", s.cfg.Method.String(), "mix", grid.Mix(), "factor_bytes", bytes,
		"rank_limit", rankLimit, "probes", ps.Probed, "probes_rejected", ps.Rejected,
		"probes_rejected_early", ps.RejectedEarly, "probes_skipped", ps.Skipped,
		"elapsed", time.Since(start), "err", err)
	return f, err
}

// approximatedThrough reports whether any tile of g's leading (k+1)×(k+1)
// block, the tiles a failed pivot k was computed from, is held low rank: only
// then can the approximation be what made it indefinite.
// A low-rank tile that its update left dense (finishTile) counts as dense.
func approximatedThrough(g *engine.Grid, k int) bool {
	for i := 0; i <= k; i++ {
		for j := 0; j <= i; j++ {
			if _, ok := g.At(i, j).(*tile.DenseF64); !ok {
				return true
			}
		}
	}
	return false
}

func (s *Session) mvnOpts() mvn.Options {
	return mvn.Options{N: s.cfg.QMCSize, Replicates: s.cfg.Replicates}
}

// MVNProb computes Φn(a,b;0,Σ) where Σ is assembled from the kernel at the
// given locations. Repeated queries against the same locations and kernel
// reuse the session's cached Cholesky factor, and a warm query runs
// allocation-free end to end (content hash, cache hit, pooled chain-blocked
// integration). For many queries at once, call from several goroutines: the
// session is safe for concurrent use, and each result is identical to the
// same query run alone.
func (s *Session) MVNProb(locs []Point, kernel KernelSpec, a, b []float64) (Result, error) {
	return s.eval(problem{locs: locs, kernel: kernel}, a, b, QueryOpts{})
}

// MVNProbOpts is MVNProb with per-query accuracy/latency budgets: with any
// budget set the integration runs as incremental waves and stops at the
// first wave boundary where the target is met or the budget is exhausted
// (see QueryOpts). A zero opts value is exactly MVNProb. A warm budgeted
// query still runs allocation-free end to end — the wave state is pooled.
func (s *Session) MVNProbOpts(locs []Point, kernel KernelSpec, a, b []float64, opts QueryOpts) (Result, error) {
	return s.eval(problem{locs: locs, kernel: kernel}, a, b, opts)
}

// MVNProbCov computes Φn(a,b;0,Σ) for an explicit covariance matrix given
// as rows; the factor is cached by matrix content. Σ is read in place,
// concurrently, and never copied: it must not be mutated during the call, and
// entry (i,j), i ≥ j, of the factored matrix is read as sigma[j][i]. A NaN or
// infinite entry is refused with a *DetectInputError naming its row.
func (s *Session) MVNProbCov(sigma [][]float64, a, b []float64) (Result, error) {
	return s.eval(problem{sigma: sigma, cov: true}, a, b, QueryOpts{})
}

// MVTProb computes the multivariate Student-t probability T_n(a,b;Σ,ν)
// with ν degrees of freedom, where Σ is assembled from the kernel at the
// given locations — the companion capability of the tlrmvnmvt package the
// paper builds on, on the same dense/TLR backends.
func (s *Session) MVTProb(locs []Point, kernel KernelSpec, nu float64, a, b []float64) (Result, error) {
	return s.eval(problem{locs: locs, kernel: kernel, mvt: true, nu: nu}, a, b, QueryOpts{})
}

// MVTProbOpts is MVTProb with per-query accuracy/latency budgets (see
// QueryOpts and MVNProbOpts).
func (s *Session) MVTProbOpts(locs []Point, kernel KernelSpec, nu float64, a, b []float64, opts QueryOpts) (Result, error) {
	return s.eval(problem{locs: locs, kernel: kernel, mvt: true, nu: nu}, a, b, opts)
}

// SchedulerStats snapshots the session runtime's cumulative scheduler
// statistics: per-kind task counts and busy time, peak ready-queue depth and
// peak in-flight task descriptors. Its Stolen field is always 0: the runtime
// has one ready queue.
func (s *Session) SchedulerStats() taskrt.Stats { return s.rt.Snapshot() }

// FactorFootprint describes the memory shape of a cached Cholesky factor:
// the per-representation tile counts and the payload bytes. It backs
// capacity planning for the serving layer.
type FactorFootprint struct {
	// Dense64 and LowRank count the factor's tiles by representation;
	// MaxRank is the largest low-rank tile rank.
	Dense64, LowRank, MaxRank int
	// Bytes is the factor's payload as the session holds it: every tile once,
	// in its representation (8 bytes an entry dense, 8·rank·(rows+cols) low
	// rank).
	Bytes int64
	// TilesEvicted is always 0: a tile keeps the representation it was
	// assembled in. It remains for readers of the benchmark ledger's
	// engine.tiles_evicted row.
	TilesEvicted int
}

// FactorFootprint builds (or fetches from the session cache) the Cholesky
// factor for the locations and kernel, and reports its representation mix
// and payload bytes.
func (s *Session) FactorFootprint(locs []Point, kernel KernelSpec) (FactorFootprint, error) {
	f, err := s.factor(problem{locs: locs, kernel: kernel})
	if err != nil {
		return FactorFootprint{}, err
	}
	mix := f.G.Mix()
	return FactorFootprint{
		Dense64: mix.Dense64, LowRank: mix.LowRank, MaxRank: mix.MaxRank,
		Bytes: f.G.Bytes(),
	}, nil
}

// Excursion is the output of confidence-region detection.
type Excursion struct {
	// Region holds the location indices inside E⁺_{u,α}.
	Region []int
	// F is the positive confidence function per location.
	F []float64
	// Marginal is the per-location marginal exceedance probability.
	Marginal []float64
	// Order is the marginal ordering (opM) the algorithm used.
	Order []int
}

// InRegion returns a boolean mask over locations.
func (e *Excursion) InRegion(n int) []bool {
	mask := make([]bool, n)
	for _, i := range e.Region {
		if i >= 0 && i < n {
			mask[i] = true
		}
	}
	return mask
}

// DetectInputError is the error DetectRegion and DetectRegionCov return for
// a mean, threshold or covariance diagonal that is NaN, infinite or (the
// diagonal) not positive; nothing is standardized, factorized or cached for
// such a call.
type DetectInputError = excursion.InputError

// DetectRegion finds the confidence region where the Gaussian field with
// the given mean and covariance (from the kernel at locs) exceeds threshold
// u with joint probability at least conf = 1−α, and evaluates the
// confidence function F⁺ at every location.
//
// One detection is one factorization and one integration: Σ is standardized
// and factored in the marginal ordering of (mean, u), where every prefix of
// the ordering is a leading block whose joint probability the SOV sweep
// passes through on its way to the full dimension (see internal/excursion).
// The cached factor is therefore keyed by Σ and the ordering: a repeated
// call is served warm, a new mean or u that reorders the locations
// refactorizes. The integration runs Config.QMCSize × Config.Replicates
// chains.
//
// fPoints is unused and kept for source compatibility: it was the number of
// prefixes the confidence function was integrated at before interpolating;
// every prefix is now evaluated exactly.
func (s *Session) DetectRegion(locs []Point, kernel KernelSpec, mean []float64, u, conf float64, fPoints int) (*Excursion, error) {
	k, err := kernel.build()
	if err != nil {
		return nil, err
	}
	if len(mean) != len(locs) {
		return nil, fmt.Errorf("parmvn: mean length %d != dimension %d", len(mean), len(locs))
	}
	sigma := cov.Matrix(toGeom(locs), k)
	return s.detectSigma(sigma.Col, mean, u, conf)
}

// DetectRegionCov is DetectRegion with an explicit covariance matrix (e.g.
// a posterior covariance from eq. 7). Σ is read in place, concurrently, by the
// key pass and the factorization's assemble tasks, permutation and
// standardization fused into the read: nothing n×n is allocated beyond the
// factor's own tiles, and the caller must not mutate Σ during the call. Entry
// (i,j) of the ordered correlation is read from row Order[j] of Σ. A NaN or
// infinite entry is a DetectInputError{What: "covariance", Index: its row}.
func (s *Session) DetectRegionCov(sigma [][]float64, mean []float64, u, conf float64, fPoints int) (*Excursion, error) {
	n := len(sigma)
	if len(mean) != n {
		return nil, fmt.Errorf("parmvn: mean length %d != dimension %d", len(mean), n)
	}
	return s.detectSigma(func(i int) []float64 { return sigma[i] }, mean, u, conf)
}

// detectSigma is the detection behind both entry points, on the symmetric
// covariance whose i-th row is row(i), len(mean) rows of len(mean) entries.
func (s *Session) detectSigma(row func(i int) []float64, mean []float64, u, conf float64) (*Excursion, error) {
	n := len(mean)
	if err := validateDim(n); err != nil {
		return nil, err
	}
	if conf <= 0 || conf >= 1 {
		return nil, fmt.Errorf("parmvn: confidence %g must be in (0,1)", conf)
	}
	sd, err := excursion.StdDevs(row, n)
	if err != nil {
		return nil, err
	}
	plan, err := excursion.NewPlan(mean, sd, u)
	if err != nil {
		return nil, err
	}
	key, err := s.sigmaKey(row, n, plan.Ordering(), sd)
	if err != nil {
		return nil, err
	}
	f, err := s.acquire(key, source{n: n, fill: plan.CorrelationRuns(row, sd)})
	if err != nil {
		return nil, err
	}
	c, err := plan.Integrate(s.rt, f, s.mvnOpts())
	if err != nil {
		return nil, err
	}
	return &Excursion{
		Region:   c.Region(conf),
		F:        c.ConfidenceFunction(),
		Marginal: plan.MarginalProbs(),
		Order:    append([]int(nil), plan.Ordering()...),
	}, nil
}

// CovarianceMatrix assembles the covariance matrix of the kernel at the
// given locations as rows, for workflows that post-process Σ before calling
// MVNProbCov or DetectRegionCov. It panics on an invalid kernel; use
// KernelSpec fields consistent with MVNProb.
func CovarianceMatrix(locs []Point, kernel KernelSpec) [][]float64 {
	k, err := kernel.build()
	if err != nil {
		panic(err)
	}
	return rowsFromSymmetric(cov.Matrix(toGeom(locs), k))
}

// Posterior computes the posterior covariance and mean of a latent Gaussian
// field observed at obsIdx with i.i.d. N(0, tau2) noise (the paper's
// equations 7–8, Σ_post = (Σ⁻¹ + (1/τ²)AᵀA)⁻¹ and µ_post = µ +
// (1/τ²)Σ_post·Aᵀ(y − Aµ), A the indicator matrix of the observed locations)
// in their kriging form:
//
//	Σ_post = Σ − Σ_{·O}(Σ_OO + τ²I)⁻¹Σ_{O·},  µ_post = µ + Σ_{·O}(Σ_OO + τ²I)⁻¹(y − µ_O)
//
// For m observations of n locations that is one m×m Cholesky factorization
// and O(m³ + m²n + mn²) work. Σ (symmetric) is not factored: an indefinite
// prior is not refused here but by the next factorization of Σ_post (a
// DetectRegionCov or MVNProbCov on it returns ErrNotPositiveDefinite). An
// index listed twice is two independent observations of one site. tau2 must
// be finite and positive, and every y[k] and mu[i] finite: a NaN or ±Inf is
// an error naming its index, not a NaN in µ_post. The algebra runs on a task
// runtime of GOMAXPROCS workers and returns the serial kernels' bits. Σ's
// rows are copied once into the matrix Σ_post is formed in; the caller's
// rows are never written.
func Posterior(sigma [][]float64, mu []float64, obsIdx []int, y []float64, tau2 float64) ([][]float64, []float64, error) {
	m, err := denseFromRows(sigma)
	if err != nil {
		return nil, nil, err
	}
	post, muPost, err := cov.Posterior(m, mu, obsIdx, y, tau2)
	if err != nil {
		return nil, nil, err
	}
	return rowsFromSymmetric(post), muPost, nil
}

// Phi is the univariate standard normal distribution function, exposed for
// downstream marginal computations.
func Phi(x float64) float64 { return stats.Phi(x) }

// PhiInv is the inverse standard normal distribution function (AS241).
func PhiInv(p float64) float64 { return stats.PhiInv(p) }
