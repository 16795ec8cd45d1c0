// Command mvnload is the serving-layer load generator: it drives an
// mvnserve server (or router) with a configurable key-set size, arrival
// process and budget mix, and records throughput and latency percentiles
// into a benchmark JSON file.
//
// The key set is K distinct covariance models (same grid, kernel range
// varied), so -keys controls how hard the factor cache and — through a
// router — the router's key placement are exercised: K=1 is a pure
// warm-path benchmark, K larger than the cache capacity forces eviction
// traffic.
//
// Two load modes:
//
//   - closed loop (default): -conc workers each keep exactly one request
//     outstanding — throughput is measured at a fixed concurrency.
//   - open loop: -rate R > 0 fires R requests/second regardless of
//     completions (Poisson-free, fixed spacing) — latency is measured at a
//     fixed arrival rate, the way a latency SLO is stated.
//
// Each run prints its record as one JSON line on stdout, so sweeps — 1
// backend vs 2 backends behind a router, budget mixes — collect with a shell
// redirect. The exit status is non-zero when any request failed.
//
// Example:
//
//	mvnload -target http://localhost:8080 -duration 10s -keys 8 \
//	        -conc 16 -budget-mix 0.5 -max-error 1e-2 -label direct-1
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// runRecord is one benchmark run in the output file.
type runRecord struct {
	Label      string  `json:"label"`
	Target     string  `json:"target"`
	Mode       string  `json:"mode"` // "closed" or "open"
	Keys       int     `json:"keys"`
	Grid       int     `json:"grid"`
	Method     string  `json:"method"`
	Conc       int     `json:"conc,omitempty"`
	RateRPS    float64 `json:"rate_rps,omitempty"`
	BudgetMix  float64 `json:"budget_mix"`
	MaxError   float64 `json:"max_error,omitempty"`
	DurationS  float64 `json:"duration_sec"`
	Requests   uint64  `json:"requests"`
	Errors     uint64  `json:"errors"`
	Rejected   uint64  `json:"rejected"`
	QPS        float64 `json:"qps"`
	LatP50Ms   float64 `json:"latency_p50_ms"`
	LatP90Ms   float64 `json:"latency_p90_ms"`
	LatP99Ms   float64 `json:"latency_p99_ms"`
	LatMeanMs  float64 `json:"latency_mean_ms"`
	LatMaxMs   float64 `json:"latency_max_ms"`
	Coalesced  uint64  `json:"coalesced"`
	NotConv    uint64  `json:"not_converged"`
	StartedUTC string  `json:"started_utc"`
}

// workload is the immutable run configuration plus shared result state.
type workload struct {
	target   string
	path     string
	bodies   [][]byte
	client   *http.Client
	deadline time.Time

	sent      atomic.Uint64
	errors    atomic.Uint64
	rejected  atomic.Uint64
	coalesced atomic.Uint64
	notConv   atomic.Uint64

	mu   sync.Mutex
	lats []float64 // milliseconds, successful requests
}

func main() {
	target := flag.String("target", "http://localhost:8080", "server or router base URL")
	duration := flag.Duration("duration", 10*time.Second, "measured run length")
	warmup := flag.Duration("warmup", 0, "untimed warm-up phase before measuring (builds the factor caches)")
	keys := flag.Int("keys", 4, "distinct covariance models in the key set")
	grid := flag.Int("grid", 16, "problem grid side (dimension = grid*grid)")
	method := flag.String("method", "", "per-request method override: dense, tlr, adaptive (empty = server default)")
	conc := flag.Int("conc", 8, "closed-loop concurrency (workers with one request outstanding each)")
	rate := flag.Float64("rate", 0, "open-loop arrival rate in requests/second (0 = closed loop)")
	budgetMix := flag.Float64("budget-mix", 0, "fraction of requests carrying a max_error budget, in [0,1]")
	maxError := flag.Float64("max-error", 1e-2, "relative-error budget on budgeted requests")
	mvt := flag.Float64("nu", 0, "send MVT queries with this many degrees of freedom (0 = MVN)")
	seed := flag.Int64("seed", 1, "PRNG seed for the key/budget schedule")
	label := flag.String("label", "", "record label, e.g. direct-1 or router-2")
	flag.Parse()

	if *keys <= 0 || *grid <= 0 || *budgetMix < 0 || *budgetMix > 1 {
		fmt.Fprintln(os.Stderr, "mvnload: -keys and -grid must be positive, -budget-mix in [0,1]")
		os.Exit(2)
	}

	w := &workload{
		target: *target,
		path:   "/v1/mvnprob",
		client: &http.Client{Timeout: 60 * time.Second},
	}
	if *mvt > 0 {
		w.path = "/v1/mvtprob"
	}
	// Pre-render the request bodies — bodies[2k] plain, bodies[2k+1]
	// budgeted, for each of the K distinct kernels (range varied over one
	// grid) — so the hot loop only picks and POSTs.
	rng := rand.New(rand.NewSource(*seed))
	for i := 0; i < *keys; i++ {
		req := map[string]any{
			"grid": map[string]int{"nx": *grid, "ny": *grid},
			"kernel": map[string]any{
				"family": "exponential",
				"sigma2": 1.0,
				"range":  0.05 + 0.2*float64(i)/float64(*keys),
			},
			"lower": -1.0,
		}
		if *method != "" {
			req["method"] = *method
		}
		if *mvt > 0 {
			req["nu"] = *mvt
		}
		plain, err := json.Marshal(req)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mvnload:", err)
			os.Exit(2)
		}
		req["max_error"] = *maxError
		budgeted, err := json.Marshal(req)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mvnload:", err)
			os.Exit(2)
		}
		w.bodies = append(w.bodies, plain, budgeted)
	}

	// Warm-up: untimed requests cycling through the key set, so measurement
	// starts with every factor built. Measure cold starts with -warmup 0.
	if *warmup > 0 {
		end := time.Now().Add(*warmup)
		for i := 0; time.Now().Before(end); i++ {
			w.fire(w.bodies[(2*i)%len(w.bodies)], false)
		}
	}

	start := time.Now()
	w.deadline = start.Add(*duration)
	mode := "closed"
	if *rate > 0 {
		mode = "open"
		w.runOpen(rng, *rate, *budgetMix)
	} else {
		w.runClosed(rng, *conc, *budgetMix)
	}
	elapsed := time.Since(start).Seconds()

	rec := runRecord{
		Label: *label, Target: *target, Mode: mode,
		Keys: *keys, Grid: *grid, Method: *method,
		BudgetMix: *budgetMix, DurationS: elapsed,
		Requests: w.sent.Load(), Errors: w.errors.Load(), Rejected: w.rejected.Load(),
		Coalesced: w.coalesced.Load(), NotConv: w.notConv.Load(),
		StartedUTC: start.UTC().Format(time.RFC3339),
	}
	if mode == "closed" {
		rec.Conc = *conc
	} else {
		rec.RateRPS = *rate
	}
	if *budgetMix > 0 {
		rec.MaxError = *maxError
	}
	if elapsed > 0 {
		rec.QPS = float64(len(w.lats)) / elapsed
	}
	fillLatencies(&rec, w.lats)

	if err := json.NewEncoder(os.Stdout).Encode(rec); err != nil {
		fmt.Fprintln(os.Stderr, "mvnload:", err)
		os.Exit(1)
	}
	if rec.Errors > 0 {
		fmt.Fprintf(os.Stderr, "mvnload: %d of %d requests failed (%d rejected)\n", rec.Errors, rec.Requests, rec.Rejected)
		os.Exit(1)
	}
}

// pickBody selects the next request body: uniform over keys, budgeted with
// probability mix. Callers synchronize access to rng.
func (w *workload) pickBody(rng *rand.Rand, mix float64) []byte {
	key := rng.Intn(len(w.bodies) / 2)
	budgeted := 0
	if mix > 0 && rng.Float64() < mix {
		budgeted = 1
	}
	return w.bodies[2*key+budgeted]
}

// runClosed keeps conc requests outstanding until the deadline: each worker
// draws a body from the pre-rendered schedule and blocks on its response.
func (w *workload) runClosed(rng *rand.Rand, conc int, mix float64) {
	// Pre-draw a schedule per worker so the workers never contend on rng.
	var wg sync.WaitGroup
	for i := 0; i < conc; i++ {
		sched := rand.New(rand.NewSource(rng.Int63()))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(w.deadline) {
				w.fire(w.pickBody(sched, mix), true)
			}
		}()
	}
	wg.Wait()
}

// runOpen fires rate requests/second at fixed spacing regardless of
// completions (each request gets its own goroutine) until the deadline —
// latency under a stated arrival rate, including any queueing the server
// builds up.
func (w *workload) runOpen(rng *rand.Rand, rate, mix float64) {
	interval := time.Duration(float64(time.Second) / rate)
	if interval <= 0 {
		interval = time.Microsecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	var wg sync.WaitGroup
	for time.Now().Before(w.deadline) {
		<-t.C
		body := w.pickBody(rng, mix)
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.fire(body, true)
		}()
	}
	wg.Wait()
}

// fire POSTs one body and records the outcome. timed=false (warm-up)
// records nothing.
func (w *workload) fire(body []byte, timed bool) {
	t0 := time.Now()
	resp, err := w.client.Post(w.target+w.path, "application/json", bytes.NewReader(body))
	if err != nil {
		if timed {
			w.sent.Add(1)
			w.errors.Add(1)
		}
		return
	}
	payload, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !timed {
		return
	}
	w.sent.Add(1)
	if resp.StatusCode != http.StatusOK {
		w.errors.Add(1)
		if resp.StatusCode == http.StatusServiceUnavailable {
			w.rejected.Add(1)
		}
		return
	}
	var r struct {
		Coalesced bool    `json:"coalesced"`
		Converged bool    `json:"converged"`
		MaxError  float64 `json:"max_error"`
	}
	if json.Unmarshal(payload, &r) == nil {
		if r.Coalesced {
			w.coalesced.Add(1)
		}
		if r.MaxError > 0 && !r.Converged {
			w.notConv.Add(1)
		}
	}
	ms := float64(time.Since(t0).Microseconds()) / 1000
	w.mu.Lock()
	w.lats = append(w.lats, ms)
	w.mu.Unlock()
}

// fillLatencies computes the latency summary from the recorded samples.
func fillLatencies(rec *runRecord, lats []float64) {
	if len(lats) == 0 {
		return
	}
	sorted := make([]float64, len(lats))
	copy(sorted, lats)
	sort.Float64s(sorted)
	at := func(p float64) float64 {
		i := int(p * float64(len(sorted)-1))
		return sorted[i]
	}
	rec.LatP50Ms, rec.LatP90Ms, rec.LatP99Ms = at(0.50), at(0.90), at(0.99)
	rec.LatMaxMs = sorted[len(sorted)-1]
	sum := 0.0
	for _, v := range sorted {
		sum += v
	}
	rec.LatMeanMs = sum / float64(len(sorted))
}
