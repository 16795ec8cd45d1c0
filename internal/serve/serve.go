// Package serve is the query-serving layer over the parmvn engine: an
// in-process Server that owns a sharded pool of Sessions, coalesces
// concurrent requests for one uncached factorization into a single build,
// and admission-controls factorizations so overload degrades into fast-fail
// backpressure instead of unbounded queues.
//
// A request's parmvn.ProblemKey routes it to a shard, so all traffic for one
// covariance lands on one Session and its LRU factor cache. Session.Warm
// makes the key's factor resident: a cold key's first request leads its one
// build — store load or admitted factorization — and every other request for
// the key, MVN or MVT, waits for it. Every request then runs as one
// MVNProbOpts/MVTProbOpts call on its own goroutine, its factor pinned in the
// cache until the call returns.
package serve

import (
	"context"
	"errors"
	"math"
	"sync"
	"time"

	"repro"
)

// ErrOverloaded is returned (and mapped to HTTP 503) when admission control
// rejects a request: the in-flight request cap is reached, or every
// factorization slot is busy and the factorization queue is full. Clients
// should back off and retry; the server sheds the load instead of growing
// its queues.
var ErrOverloaded = errors.New("serve: overloaded, retry later")

// errClosed is returned for requests arriving after Close.
var errClosed = errors.New("serve: server closed")

// Config tunes a Server. The zero value serves with sane defaults.
type Config struct {
	// Session is the engine configuration every pooled Session is built
	// from. Session.Method is the default factorization method; requests
	// may override it per query, and each shard keeps one session per
	// method. Session.TileSize (default 64) caps the tile side: a problem
	// smaller than it is one tile. Session.FactorCacheCap bounds the
	// factors each shard session retains (LRU).
	Session parmvn.Config
	// Shards is the number of session shards; requests route by
	// ProblemKey hash, so one covariance always hits one shard's factor
	// cache. Each shard's sessions own their own worker pools, so
	// concurrent queries on keys in different shards do not share one
	// ready queue. Default 4: on serve_mix (2 clients, 2 vCPUs, 6 pairs)
	// one shard read op_ms 28.4 ms against 25.1 ms, slower in 5 of 6
	// pairs, for peak RSS 29.8 against 31.3 MiB.
	Shards int
	// MaxInflightFactor bounds concurrent factorizations across the whole
	// server — the expensive, memory-hungry operation overload must not
	// multiply. Default 2.
	MaxInflightFactor int
	// FactorQueueDepth is how many cold-key builds may wait for a
	// factorization slot; beyond it, cold requests fail fast with
	// ErrOverloaded. Default 8.
	FactorQueueDepth int
	// MaxInFlight caps admitted requests server-wide (warm and cold);
	// beyond it requests fail fast with ErrOverloaded. Default 1024.
	MaxInFlight int
	// MaxDim rejects requests whose dimension exceeds it. Default 16384.
	MaxDim int
	// MaxBodyBytes caps an HTTP request body. Default 8 MiB.
	MaxBodyBytes int64
	// Store, when non-nil, is the persistent factor store: a cold key's
	// build first tries to install the stored factor (no factorization
	// admission slot needed — loading is I/O-bound, not O(n³)), and every
	// factorization is written through to the store in the background, so
	// restarts and new replicas sharing the directory start hot.
	Store *parmvn.FactorStore
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.MaxInflightFactor <= 0 {
		c.MaxInflightFactor = 2
	}
	if c.FactorQueueDepth < 0 {
		c.FactorQueueDepth = 0
	} else if c.FactorQueueDepth == 0 {
		c.FactorQueueDepth = 8
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 1024
	}
	if c.MaxDim <= 0 {
		c.MaxDim = 16384
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	return c
}

// Server serves MVN/MVT probability queries from a sharded pool of engine
// sessions. Safe for concurrent use; create with New, stop with Close.
type Server struct {
	cfg       Config
	shards    []*shard
	factorSem chan struct{}
	ctr       counters
	start     time.Time
}

// shard owns the Sessions (one per method, created lazily) for the problem
// keys that hash to it.
type shard struct {
	mu       sync.Mutex
	sessions map[parmvn.Method]*parmvn.Session
}

// New starts a server. It owns the Sessions it creates; Close releases them.
func New(cfg Config) *Server {
	c := cfg.withDefaults()
	s := &Server{
		cfg:       c,
		factorSem: make(chan struct{}, c.MaxInflightFactor),
		start:     time.Now(),
	}
	s.shards = make([]*shard, c.Shards)
	for i := range s.shards {
		s.shards[i] = &shard{sessions: map[parmvn.Method]*parmvn.Session{}}
	}
	return s
}

// Close rejects new requests, waits for admitted requests to drain, and
// closes every pooled session, which waits for its store write-throughs.
func (s *Server) Close() {
	if !s.ctr.closed.CompareAndSwap(false, true) {
		return
	}
	for s.ctr.inFlight.Load() > 0 {
		time.Sleep(time.Millisecond)
	}
	for _, sh := range s.shards {
		sh.mu.Lock()
		for _, sess := range sh.sessions {
			sess.Close()
		}
		sh.sessions = map[parmvn.Method]*parmvn.Session{}
		sh.mu.Unlock()
	}
}

// sessionConfig is the exact parmvn.Config the pooled session for method is
// built from, and therefore also the config whose ProblemKey routes the
// request; the router derives a backend's the same way, so routing and
// caching agree.
func (s *Server) sessionConfig(method parmvn.Method) parmvn.Config {
	cfg := s.cfg.Session
	cfg.Method = method
	return cfg
}

// session returns the shard's session for cfg, creating it on first use.
func (sh *shard) session(cfg parmvn.Config) *parmvn.Session {
	sh.mu.Lock()
	sess, ok := sh.sessions[cfg.Method]
	if !ok {
		sess = parmvn.NewSession(cfg)
		sh.sessions[cfg.Method] = sess
	}
	sh.mu.Unlock()
	return sess
}

// Do serves one decoded request in-process (the HTTP handlers call it; Go
// callers may too). It validates, routes by problem key, makes the key's
// factor warm (Session.Warm: leading its build or waiting on another
// request's) and runs the query as one engine call on the caller's goroutine.
func (s *Server) Do(ctx context.Context, req *Request) (*Response, error) {
	start := time.Now()
	s.ctr.requests.Add(1)
	load := s.ctr.inFlight.Add(1)
	defer s.ctr.inFlight.Add(-1)
	var resp *Response
	var err error
	switch {
	case load > int64(s.cfg.MaxInFlight):
		err = ErrOverloaded
	case s.ctr.closed.Load():
		// Checked after the in-flight increment: Close flips the flag first
		// and then drains the gauge, so a request past this check is
		// guaranteed to finish before Close tears the sessions down.
		return nil, errClosed
	default:
		resp, err = s.do(ctx, req)
	}
	switch {
	case err == nil:
		resp.ElapsedMs = float64(time.Since(start).Microseconds()) / 1000
		s.ctr.observeLatency(time.Since(start))
		s.ctr.observeQuery(resp, req.MaxError > 0 || req.DeadlineMs > 0 || resp.MaxError > 0)
	case errors.As(err, new(*RequestError)):
		s.ctr.badRequests.Add(1)
	case errors.Is(err, ErrOverloaded):
		s.ctr.rejected.Add(1)
	default:
		s.ctr.computeErrors.Add(1)
	}
	return resp, err
}

func (s *Server) do(ctx context.Context, req *Request) (*Response, error) {
	method, err := parseMethod(req.Method, s.cfg.Session.Method)
	if err != nil {
		return nil, err
	}
	n := len(req.Locs)
	if n <= 0 {
		return nil, badReq("locs", "empty problem (no locations)")
	}
	if n > s.cfg.MaxDim {
		return nil, badReq("locs", "dimension %d exceeds the server limit %d", n, s.cfg.MaxDim)
	}
	if req.Nu != 0 {
		if err := validNu(req.Nu); err != nil {
			return nil, err
		}
		s.ctr.mvt.Add(1)
	} else {
		s.ctr.mvn.Add(1)
	}
	if err := req.Kernel.Validate(); err != nil {
		return nil, badReq("kernel", "%v", err)
	}
	if err := parmvn.ValidateQuery(n, req.A, req.B); err != nil {
		return nil, badReq("limits", "%v", err)
	}
	if parmvn.EmptyQuery(req.A, req.B) {
		// The box is empty: the probability is exactly 0 and the engine
		// would never touch the factor, so don't spend a session — or, on a
		// cold key, a factorization slot — on it either.
		return &Response{Prob: 0, N: n, Method: method.String()}, nil
	}

	if err := validBudgets(req.MaxError, req.DeadlineMs); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err // the caller is gone: no session, no slot
	}
	opt, degraded := s.queryOpts(ctx, req)

	cfg := s.sessionConfig(method)
	pk, err := cfg.ProblemKey(req.Locs, req.Kernel)
	if err != nil {
		return nil, badReq("kernel", "%v", err)
	}
	sh := s.shards[pk.Hash()%uint64(len(s.shards))]
	sess := sh.session(cfg)
	unpin, coalesced, err := sess.Warm(ctx, req.Locs, req.Kernel, s.cfg.Store, s.admitFactor)
	if err != nil {
		return nil, err
	}
	defer unpin()
	var r parmvn.Result
	if req.Nu > 0 {
		r, err = sess.MVTProbOpts(req.Locs, req.Kernel, req.Nu, req.A, req.B, opt)
	} else {
		r, err = sess.MVNProbOpts(req.Locs, req.Kernel, req.A, req.B, opt)
	}
	s.ctr.engineCalls.Add(1)
	if err != nil {
		return nil, err
	}
	resp := &Response{
		Prob: r.Prob, StdErr: r.StdErr,
		Samples: r.Samples, Converged: r.Converged,
		Canceled: r.Canceled, MaxError: opt.MaxRelErr,
		Degraded: degraded,
		N:        n, Method: method.String(), Coalesced: coalesced,
	}
	// An infinite relative error (zero estimate, nonzero spread) has no JSON
	// encoding; the omitted field plus prob/stderr says the same.
	if !math.IsInf(r.RelErr, 0) {
		resp.RelErr = r.RelErr
	}
	return resp, nil
}

// Degradation under load: past degradeAt of MaxInFlight admitted requests,
// instead of letting the queue walk toward the 503 cliff at full accuracy,
// every query's relative-error budget is loosened — linearly with the excess
// load, up to maxErrorFloor at the cap — so easy queries early-stop and shed
// compute. A request's own max_error is never tightened, only loosened
// toward (never past) the floor.
const (
	degradeAt     = 0.75
	maxErrorFloor = 0.01
)

// queryOpts resolves a request's accuracy/latency budgets into engine
// QueryOpts: the deadline becomes absolute at admission (queue and
// factorization wait count against it), the request context is honored
// inside the integration whenever the query is budgeted, and under queue
// pressure the relative-error budget is degraded (see degradeAt) so load
// sheds compute instead of walking into 503s.
func (s *Server) queryOpts(ctx context.Context, req *Request) (parmvn.QueryOpts, bool) {
	q := parmvn.QueryOpts{MaxRelErr: req.MaxError}
	if req.DeadlineMs > 0 {
		q.Deadline = time.Now().Add(time.Duration(req.DeadlineMs * float64(time.Millisecond)))
	}
	degraded := false
	if t := s.loadPressure(); t > 0 {
		if budget := maxErrorFloor * t; budget > q.MaxRelErr {
			q.MaxRelErr = budget
			degraded = true
			s.ctr.degraded.Add(1)
		}
	}
	if q.MaxRelErr > 0 || !q.Deadline.IsZero() {
		// Budgeted queries are cancelable mid-integration; unconstrained
		// ones stay unconstrained (a Ctx is itself a budget: it would make
		// QMCSize the total and change their answer).
		q.Ctx = ctx
	}
	return q, degraded
}

// loadPressure maps the in-flight gauge to the degradation ramp: 0 at or
// below degradeAt·MaxInFlight, rising linearly to 1 at the cap.
func (s *Server) loadPressure() float64 {
	load := float64(s.ctr.inFlight.Load()) / float64(s.cfg.MaxInFlight)
	t := (load - degradeAt) / (1 - degradeAt)
	if t <= 0 {
		return 0
	}
	if t > 1 {
		t = 1
	}
	return t
}

// admitFactor admission-controls factorizations: take a free slot if one
// exists, otherwise wait in the bounded factorization queue — and when that
// is full too, fail fast. This is what keeps an overloaded server at a
// predictable memory/CPU ceiling (MaxInflightFactor builds plus
// FactorQueueDepth waiters) instead of stacking up O(n²) factorizations.
// A granted slot is counted as a factorization and freed by release.
func (s *Server) admitFactor() (release func(), err error) {
	select {
	case s.factorSem <- struct{}{}:
	default:
		if s.ctr.factorQueue.Add(1) > int64(s.cfg.FactorQueueDepth) {
			s.ctr.factorQueue.Add(-1)
			// Not counted here: Do counts one rejection per request the
			// refused build sheds, the leader and its waiters alike.
			return nil, ErrOverloaded
		}
		s.factorSem <- struct{}{}
		s.ctr.factorQueue.Add(-1)
	}
	s.ctr.factorizations.Add(1)
	return func() { <-s.factorSem }, nil
}

// validNu rejects a non-positive or non-finite ν with a typed request error.
func validNu(nu float64) error {
	if !(nu > 0) || math.IsInf(nu, 1) {
		return badReq("nu", "degrees of freedom %g must be positive and finite", nu)
	}
	return nil
}

// parseMethod resolves a request's method string against the server default.
func parseMethod(m string, def parmvn.Method) (parmvn.Method, error) {
	if m == "" {
		return def, nil
	}
	method, err := parmvn.ParseMethod(m)
	if err != nil {
		return 0, badReq("method", "%v", err)
	}
	return method, nil
}
