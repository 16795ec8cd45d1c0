package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	parmvn "repro"
	"repro/internal/serve"
)

const (
	serveClients  = 2    // closed loop: each client sends its next request when the last one returned
	serveMaxError = 0.01 // the budgeted half's relative-error budget
	serveNu       = 7    // the Student-t tenth's degrees of freedom
)

// serveReq is one pre-encoded request and the key of its references.
type serveReq struct {
	path     string
	body     []byte
	decoded  *serve.Request
	sh       shape
	v        variant
	budgeted bool
}

// serveStack is one in-process server behind a loopback HTTP listener.
type serveStack struct {
	srv *serve.Server
	ts  *httptest.Server
}

func newServeStack(cfg serve.Config) *serveStack {
	srv := serve.New(cfg)
	return &serveStack{srv: srv, ts: httptest.NewServer(srv.Handler())}
}

func (s *serveStack) close() {
	s.ts.Close()
	s.srv.Close()
}

// serveShape is key k's problem: the unit grid with a kernel range of its
// own, and the excursion box.
func serveShape(sz sizes, k int, mvt bool) shape {
	kern := family
	kern.Range = 0.08 + 0.01*float64(k)
	sh := shape{key: fmt.Sprintf("serve/k%d/mvn", k), side: sz.serveSide, kernel: kern,
		tile: sz.serveTile, lo: -2.0, hi: math.Inf(1)}
	if mvt {
		sh.key = fmt.Sprintf("serve/k%d/mvt", k)
		sh.nu = serveNu
	}
	return sh
}

// newServeReq encodes one request for key k and decodes it again, as the
// server would, for the passes that skip HTTP.
func newServeReq(sz sizes, k int, mvt, budgeted bool) (serveReq, error) {
	r := serveReq{sh: serveShape(sz, k, mvt), budgeted: budgeted, path: "/v1/mvnprob",
		v: variant{n: sz.serveN, reps: sz.reps}}
	kern := r.sh.kernel
	wire := map[string]any{
		"grid":   map[string]int{"nx": r.sh.side, "ny": r.sh.side},
		"kernel": map[string]any{"family": kern.Family, "range": kern.Range, "nu": kern.Nu, "nugget": kern.Nugget},
		"lower":  r.sh.lo,
	}
	if mvt {
		r.path = "/v1/mvtprob"
		wire["nu"] = r.sh.nu
	}
	if budgeted {
		r.v.maxErr = serveMaxError
		wire["max_error"] = serveMaxError
	}
	var err error
	if r.body, err = json.Marshal(wire); err != nil {
		return r, err
	}
	r.decoded, err = serve.DecodeRequest(r.body, serve.Limits{})
	return r, err
}

// buildServeList makes one round's seeded request list with exact
// proportions: one request in ten is Student-t and half carry the error
// budget, both flags shuffled on their own so that neither follows the key or
// the other; the first half of the list touches only the pre-warmed keys and
// the second half all of them, so two keys go cold mid-round.
func buildServeList(e *env) ([]serveReq, error) {
	rng := e.newRng()
	n := e.perRound()
	half := n / 2
	key, mvt, budgeted := make([]int, n), make([]bool, n), make([]bool, n)
	for i := range key {
		keys := e.sz.serveWarm
		if i >= half {
			keys = e.sz.serveKeys
		}
		key[i], mvt[i], budgeted[i] = i%keys, i%10 == 0, i%2 == 0
	}
	rng.Shuffle(half, func(i, j int) { key[i], key[j] = key[j], key[i] })
	rng.Shuffle(n-half, func(i, j int) { key[half+i], key[half+j] = key[half+j], key[half+i] })
	rng.Shuffle(n, func(i, j int) { mvt[i], mvt[j] = mvt[j], mvt[i] })
	rng.Shuffle(n, func(i, j int) { budgeted[i], budgeted[j] = budgeted[j], budgeted[i] })
	reqs := make([]serveReq, n)
	for i := range reqs {
		var err error
		if reqs[i], err = newServeReq(e.sz, key[i], mvt[i], budgeted[i]); err != nil {
			return nil, err
		}
	}
	return reqs, nil
}

// prewarm sends one request per warm key, so those keys' factors are cached
// before the measured phase.
func prewarm(e *env, send func(r *serveReq) (*serve.Response, error)) error {
	for k := 0; k < e.sz.serveWarm; k++ {
		r, err := newServeReq(e.sz, k, false, false)
		if err != nil {
			return err
		}
		if _, err := send(&r); err != nil {
			return fmt.Errorf("pre-warm key %d: %w", k, err)
		}
	}
	return nil
}

// httpSender posts a request's body and decodes the reply. A status other
// than 200 — a 503 refusal included — is an error.
func httpSender(client *http.Client, base string) func(r *serveReq) (*serve.Response, error) {
	return func(r *serveReq) (*serve.Response, error) {
		resp, err := client.Post(base+r.path, "application/json", bytes.NewReader(r.body))
		if err != nil {
			return nil, err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
		}
		var out serve.Response
		if err := json.Unmarshal(data, &out); err != nil {
			return nil, err
		}
		return &out, nil
	}
}

// served is one request's outcome in a closed-loop pass.
type served struct {
	ms   float64
	resp *serve.Response
	err  error
}

// closedLoop walks the list with serveClients clients, client c taking
// requests c, c+clients, …; each sends its next request only when the
// previous one has returned. span names the per-request span, whose
// operation id is firstOp plus the request's place in the list.
func closedLoop(e *env, reqs []serveReq, send func(r *serveReq) (*serve.Response, error), span string, firstOp int) []served {
	out := make([]served, len(reqs))
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(reqs); i += serveClients {
				id := -1
				if span != "" {
					id = e.tr.begin(span, -1, i)
				}
				t0 := time.Now()
				resp, err := send(&reqs[i])
				out[i] = served{ms: float64(time.Since(t0)) / 1e6, resp: resp, err: err}
				e.tr.end(id)
			}
		}(c)
	}
	wg.Wait()
	return out
}

func latencies(res []served) []float64 {
	var ms []float64
	for _, r := range res {
		if r.err == nil {
			ms = append(ms, r.ms)
		}
	}
	return ms
}

// runServeMix is serve_mix: one in-process server behind a loopback
// listener; an operation is one POST. Compute per request is small (n=576),
// so decoding, flights, the batch window and encoding show here and nowhere
// else. Every round starts a server of its own, pre-warms it (the set-up) and
// replays the same list, so a request meets the same server state each time.
func runServeMix(e *env) error {
	cfg := serve.Config{Session: config(parmvn.Dense, e.sz.serveTile, 0, variant{n: e.sz.serveN, reps: e.sz.reps})}
	client := &http.Client{Timeout: 2 * time.Minute}
	defer client.CloseIdleConnections()
	reqs, err := buildServeList(e)
	if err != nil {
		return err
	}

	budgeted, met, paid := 0, 0, 0
	var snap serve.Stats
	for round := 0; round < e.rounds(); round++ {
		var stack *serveStack
		teardown, err := e.setup(1, func() (func(), error) {
			stack = newServeStack(cfg)
			if err := prewarm(e, httpSender(client, stack.ts.URL)); err != nil {
				stack.close()
				return nil, err
			}
			return stack.close, nil
		})
		if err != nil {
			return err
		}
		e.beginMeasure()
		e.beginRound()
		res := closedLoop(e, reqs, httpSender(client, stack.ts.URL), "op", round*len(reqs))
		e.endMeasure()
		snap = stack.srv.Snapshot()
		teardown()

		for i, r := range res {
			q := reqs[i]
			if r.err != nil {
				e.failOp(fmt.Sprintf("%s#%d.%d(%s)", e.spec.Name, round, i, q.sh.key), r.err)
				continue
			}
			e.record(opRecord{pos: i, label: "post", sh: q.sh, v: q.v, ms: r.ms, prob: r.resp.Prob, se: r.resp.StdErr})
			if q.budgeted {
				budgeted++
				paid += r.resp.Samples
				if r.resp.Converged {
					met++
				}
			}
		}
	}
	e.checkOps()
	// The server's own counters are the last round's; every round's repeat.
	e.set("serve.factorizations", float64(snap.Factorizations))
	if budgeted > 0 {
		e.set("serve.budget_met_frac", float64(met)/float64(budgeted))
		e.set("serve.samples_paid_frac", float64(paid)/float64(budgeted*e.sz.serveN))
	}
	if !e.opts.trace {
		return nil
	}

	frac := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	e.set("serve.cache_hit_frac", frac(uint64(snap.CacheHits), uint64(snap.CacheHits+snap.CacheMisses)))
	e.set("serve.coalesced_frac", frac(snap.Coalesced, snap.Requests))
	e.set("serve.batches", float64(snap.Batches))
	e.set("serve.mean_batch", frac(snap.BatchedQueries, snap.Batches))
	e.set("serve.rejected", float64(snap.Rejected))
	e.set("serve.degraded_frac", frac(snap.Degraded, snap.Requests))
	e.set("serve.not_converged_frac", frac(snap.BudgetCapped, snap.BudgetedQueries))
	e.set("taskrt.stolen", float64(snap.SchedStolen))
	e.set("taskrt.peak_inflight", float64(snap.SchedPeakInflight))

	var decodeUs []float64
	for i := range reqs {
		t0 := time.Now()
		if _, err := serve.DecodeRequest(reqs[i].body, serve.Limits{}); err != nil {
			return err
		}
		decodeUs = append(decodeUs, float64(time.Since(t0))/1e3)
	}
	e.set("serve.decode_us", median(decodeUs))
	return serveLayers(e, cfg, client, reqs)
}

// serveLayers takes the front of the stack apart on the round's list, sent
// three ways to freshly started, pre-warmed servers: over HTTP, through
// Server.Do with no HTTP at all, and over HTTP through a router in front of
// two backends. The cost of the HTTP layer and of the router hop are medians
// of per-request differences between two passes: requests differ five-fold
// in compute, so a difference of the passes' medians would be mostly noise.
func serveLayers(e *env, cfg serve.Config, client *http.Client, reqs []serveReq) error {
	firstOp := len(e.ops)
	pass := func(span string, send func(r *serveReq) (*serve.Response, error)) ([]served, error) {
		if err := prewarm(e, send); err != nil {
			return nil, err
		}
		res := closedLoop(e, reqs, send, span, firstOp)
		for _, r := range res {
			if r.err != nil {
				return nil, fmt.Errorf("%s: %w", span, r.err)
			}
		}
		return res, nil
	}
	paired := func(a, b []served) float64 {
		d := make([]float64, len(a))
		for i := range a {
			d[i] = a[i].ms - b[i].ms
		}
		return median(d)
	}

	direct := newServeStack(cfg)
	viaHTTP, err := pass("serve.http", httpSender(client, direct.ts.URL))
	direct.close()
	if err != nil {
		return err
	}

	inproc := serve.New(cfg)
	viaDo, err := pass("serve.do", func(r *serveReq) (*serve.Response, error) {
		return inproc.Do(context.Background(), r.decoded)
	})
	inproc.Close()
	if err != nil {
		return err
	}

	b0, b1 := newServeStack(cfg), newServeStack(cfg)
	defer b0.close()
	defer b1.close()
	router, err := serve.NewRouter(serve.RouterConfig{Backends: []string{b0.ts.URL, b1.ts.URL}, Session: cfg.Session})
	if err != nil {
		return err
	}
	defer router.Close()
	rts := httptest.NewServer(router.Handler())
	defer rts.Close()
	viaRouter, err := pass("serve.router", httpSender(client, rts.URL))
	if err != nil {
		return err
	}
	if st := router.Snapshot(); st.NoBackend > 0 || st.Retries > 0 {
		return fmt.Errorf("router retried %d and refused %d requests on healthy in-process backends", st.Retries, st.NoBackend)
	}
	e.set("serve.do_p50_ms", median(latencies(viaDo)))
	e.set("serve.http_overhead_ms", paired(viaHTTP, viaDo))
	e.set("serve.router_hop_ms", paired(viaRouter, viaHTTP))
	return nil
}
