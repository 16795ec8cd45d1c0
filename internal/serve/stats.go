package serve

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// counters is the server's live instrumentation — lock-free atomics on the
// request path, aggregated into a Stats snapshot on demand.
type counters struct {
	closed atomic.Bool

	requests       atomic.Uint64
	mvn, mvt       atomic.Uint64
	badRequests    atomic.Uint64
	computeErrors  atomic.Uint64
	rejected       atomic.Uint64
	engineCalls    atomic.Uint64
	factorizations atomic.Uint64

	inFlight    atomic.Int64
	factorQueue atomic.Int64

	degraded        atomic.Uint64
	budgeted        atomic.Uint64
	budgetCapped    atomic.Uint64
	canceledQueries atomic.Uint64

	latCount atomic.Uint64
	latTotal atomic.Int64 // microseconds
	latMax   atomic.Int64 // microseconds

	latRes     reservoir // latency, milliseconds
	relErrRes  reservoir // achieved relative error, budgeted queries
	samplesRes reservoir // samples paid per query
}

func (c *counters) observeLatency(d time.Duration) {
	us := d.Microseconds()
	c.latCount.Add(1)
	c.latTotal.Add(us)
	c.latRes.add(float64(us) / 1000)
	for {
		cur := c.latMax.Load()
		if us <= cur || c.latMax.CompareAndSwap(cur, us) {
			return
		}
	}
}

// observeQuery records a successful response's accuracy/cost tail metrics
// and the budgeted-query outcome counters. budgeted is computed from the
// request (an error budget, a deadline, or a degradation-imposed budget) —
// the response alone cannot distinguish a deadline-capped query that met its
// deadline from an unconstrained one.
func (c *counters) observeQuery(resp *Response, budgeted bool) {
	if resp.Samples > 0 {
		c.samplesRes.add(float64(resp.Samples))
	}
	if resp.Canceled {
		c.canceledQueries.Add(1)
	}
	if !budgeted {
		return
	}
	c.budgeted.Add(1)
	// A zero achieved error is a real observation — exact degenerate-box
	// answers report RelErr 0 — and dropping it biases the reported
	// percentiles upward. Only non-finite and negative values (no estimate
	// was formed) stay out of the reservoir.
	if resp.RelErr >= 0 && !math.IsNaN(resp.RelErr) && !math.IsInf(resp.RelErr, 0) {
		c.relErrRes.add(resp.RelErr)
	}
	if !resp.Converged && !resp.Canceled {
		c.budgetCapped.Add(1)
	}
}

// reservoirSize is the ring capacity of the percentile reservoirs: large
// enough for stable p99 estimates, small enough that a snapshot sort is
// trivial. The ring keeps the most recent observations, so percentiles track
// current load rather than all-time history.
const reservoirSize = 1024

// reservoir is a fixed-size ring of float64 observations with mutex-guarded
// writes — one short critical section per served request, only on the
// response path (never inside the integration).
type reservoir struct {
	mu  sync.Mutex
	buf [reservoirSize]float64
	n   uint64
}

func (r *reservoir) add(v float64) {
	r.mu.Lock()
	r.buf[r.n%reservoirSize] = v
	r.n++
	r.mu.Unlock()
}

// percentiles returns the p50/p90/p99 of the retained observations (zeros
// when empty).
func (r *reservoir) percentiles() (p50, p90, p99 float64) {
	r.mu.Lock()
	n := r.n
	if n > reservoirSize {
		n = reservoirSize
	}
	vals := make([]float64, n)
	copy(vals, r.buf[:n])
	r.mu.Unlock()
	if len(vals) == 0 {
		return 0, 0, 0
	}
	sort.Float64s(vals)
	at := func(p float64) float64 {
		// Nearest-rank rounding: truncation systematically under-reports the
		// upper percentiles at small n (n=10 would map p99 to index 8 — the
		// p80 value).
		i := int(math.Round(p * float64(len(vals)-1)))
		return vals[i]
	}
	return at(0.50), at(0.90), at(0.99)
}

// Stats is the /stats snapshot: cumulative counters since start plus the
// current gauges. All counters are monotone except the two gauges
// (in_flight, factor_queue_depth).
type Stats struct {
	UptimeSec float64 `json:"uptime_sec"`

	Requests      uint64 `json:"requests"`
	MVNRequests   uint64 `json:"mvn_requests"`
	MVTRequests   uint64 `json:"mvt_requests"`
	BadRequests   uint64 `json:"bad_requests"`
	ComputeErrors uint64 `json:"compute_errors"`
	// Rejected counts fast-fail backpressure rejections (ErrOverloaded),
	// from the request cap and from the full factorization queue alike.
	Rejected uint64 `json:"rejected"`

	// Coalesced counts requests that waited on another request's build
	// instead of starting their own: the sum of the pooled sessions'
	// FactorCache.Waits. Factorizations counts admission slots acquired for
	// cold (or evicted-and-rebuilt) keys. A factor is built only under a slot
	// and stays pinned until its query has run, so it equals CacheMisses, the
	// factorizations the session caches ran, under eviction too.
	// Batches and BatchedQueries both count engine calls — one per served
	// query, so their ratio is exactly 1.
	Coalesced      uint64 `json:"coalesced"`
	Batches        uint64 `json:"batches"`
	BatchedQueries uint64 `json:"batched_queries"`
	Factorizations uint64 `json:"factorizations"`

	// CacheHits/Misses/CachedFactors aggregate the factor caches of the
	// pooled sessions; Sessions is the pool size.
	CacheHits     int `json:"cache_hits"`
	CacheMisses   int `json:"cache_misses"`
	CachedFactors int `json:"cached_factors"`
	Sessions      int `json:"sessions"`

	InFlight         int64 `json:"in_flight"`
	FactorQueueDepth int64 `json:"factor_queue_depth"`

	// Store* are the persistent store's own counts (FactorStore.Stats), so
	// servers sharing one FactorStore value share them. StoreHits counts cold
	// keys served by installing a factor from the store (zero factorizations
	// spent); StoreMisses counts cold keys the store did not cover;
	// StoreSaves counts factors written through after a factorization;
	// StoreErrors counts unreadable or unwritable store files (corruption,
	// I/O). All zero without a store.
	StoreHits   uint64 `json:"store_hits"`
	StoreMisses uint64 `json:"store_misses"`
	StoreSaves  uint64 `json:"store_saves"`
	StoreErrors uint64 `json:"store_errors"`

	LatencyCount  uint64  `json:"latency_count"`
	LatencyMeanMs float64 `json:"latency_mean_ms"`
	LatencyMaxMs  float64 `json:"latency_max_ms"`

	// Latency percentiles over the most recent served requests (ring
	// reservoir), in milliseconds.
	LatencyP50Ms float64 `json:"latency_p50_ms"`
	LatencyP90Ms float64 `json:"latency_p90_ms"`
	LatencyP99Ms float64 `json:"latency_p99_ms"`

	// BudgetedQueries counts served queries that ran with a relative-error
	// budget (requested or degraded-imposed). Degraded counts queries whose
	// budget admission control loosened under queue pressure; BudgetCapped
	// counts budgeted queries that exhausted their sample/deadline budget
	// before converging; CanceledQueries counts integrations stopped by
	// context cancellation (partial estimates served).
	BudgetedQueries uint64 `json:"budgeted_queries"`
	Degraded        uint64 `json:"degraded"`
	BudgetCapped    uint64 `json:"budget_capped"`
	CanceledQueries uint64 `json:"canceled_queries"`

	// Achieved relative-error percentiles over recent budgeted queries.
	RelErrP50 float64 `json:"rel_err_p50"`
	RelErrP90 float64 `json:"rel_err_p90"`
	RelErrP99 float64 `json:"rel_err_p99"`

	// QMC samples paid per query (all queries; under early stopping this is
	// where the waves stopped).
	SamplesP50 float64 `json:"samples_p50"`
	SamplesP90 float64 `json:"samples_p90"`
	SamplesP99 float64 `json:"samples_p99"`

	// SchedPeakInflight is the largest in-flight task-descriptor count any
	// pooled session's runtime reached (the windowed-submission bound).
	// SchedStolen is always 0: each runtime has one ready queue, so no task
	// is stolen. It remains for readers of the benchmark ledger's
	// taskrt.stolen row.
	SchedPeakInflight int `json:"sched_peak_inflight"`
	SchedStolen       int `json:"sched_stolen"`
}

// Snapshot assembles the current statistics.
func (s *Server) Snapshot() Stats {
	st := Stats{
		UptimeSec:        time.Since(s.start).Seconds(),
		Requests:         s.ctr.requests.Load(),
		MVNRequests:      s.ctr.mvn.Load(),
		MVTRequests:      s.ctr.mvt.Load(),
		BadRequests:      s.ctr.badRequests.Load(),
		ComputeErrors:    s.ctr.computeErrors.Load(),
		Rejected:         s.ctr.rejected.Load(),
		Batches:          s.ctr.engineCalls.Load(),
		BatchedQueries:   s.ctr.engineCalls.Load(),
		Factorizations:   s.ctr.factorizations.Load(),
		InFlight:         s.ctr.inFlight.Load(),
		FactorQueueDepth: s.ctr.factorQueue.Load(),
		LatencyCount:     s.ctr.latCount.Load(),
		BudgetedQueries:  s.ctr.budgeted.Load(),
		Degraded:         s.ctr.degraded.Load(),
		BudgetCapped:     s.ctr.budgetCapped.Load(),
		CanceledQueries:  s.ctr.canceledQueries.Load(),
	}
	if st.LatencyCount > 0 {
		st.LatencyMeanMs = float64(s.ctr.latTotal.Load()) / float64(st.LatencyCount) / 1000
	}
	st.LatencyMaxMs = float64(s.ctr.latMax.Load()) / 1000
	st.LatencyP50Ms, st.LatencyP90Ms, st.LatencyP99Ms = s.ctr.latRes.percentiles()
	st.RelErrP50, st.RelErrP90, st.RelErrP99 = s.ctr.relErrRes.percentiles()
	st.SamplesP50, st.SamplesP90, st.SamplesP99 = s.ctr.samplesRes.percentiles()
	if s.cfg.Store != nil {
		st.StoreHits, st.StoreMisses, st.StoreSaves, st.StoreErrors = s.cfg.Store.Stats()
	}
	for _, sh := range s.shards {
		sh.mu.Lock()
		for _, sess := range sh.sessions {
			st.Sessions++
			c := sess.Cache()
			h, m := c.Stats()
			st.CacheHits += h
			st.CacheMisses += m
			st.Coalesced += uint64(c.Waits())
			st.CachedFactors += c.Len()
			sched := sess.SchedulerStats()
			if sched.PeakInflight > st.SchedPeakInflight {
				st.SchedPeakInflight = sched.PeakInflight
			}
		}
		sh.mu.Unlock()
	}
	return st
}
