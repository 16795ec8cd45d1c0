package serve

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
)

// Router is the thin horizontal-scaling tier over N mvnserve backends:
// it decodes just enough of each request to compute its parmvn.ProblemKey,
// picks a backend by rendezvous (highest-random-weight) hashing on
// ProblemKey.Hash(), and proxies the request there — so one covariance
// model always lands on one backend's factor cache, no matter how many
// replicas serve traffic.
//
// Every backend scores every key; the highest-scoring healthy backend owns
// it. Backends are health-checked in the background. A backend that fails
// its checks drops out of the ranking, so only its own keys move, each to
// its next-highest scorer, and they move back when it recovers. A request
// whose owner fails mid-proxy retries on the next backend in its ranking.
// The ranking is a function of the key and the backend URLs alone, so
// every router replica places every key the same way.
//
// The router holds no sessions and no factors; paired with a shared
// persistent factor store on the backends, any replica can warm any key it
// inherits.
type Router struct {
	cfg      RouterConfig
	client   *http.Client
	backends []*backend
	stop     chan struct{}
	wg       sync.WaitGroup
	start    time.Time

	requests  atomic.Uint64
	badReqs   atomic.Uint64
	retries   atomic.Uint64
	noBackend atomic.Uint64
}

// RouterConfig tunes a Router.
type RouterConfig struct {
	// Backends are the base URLs of the mvnserve replicas, e.g.
	// "http://10.0.0.1:8080". At least one is required.
	Backends []string
	// Session must mirror the backends' engine configuration (method, tile
	// size, tolerances): the router derives each request's ProblemKey from
	// it exactly as a backend's serving layer would, so router placement and
	// backend caching agree. A mismatch only costs cache locality, never
	// correctness — every backend can serve every key.
	Session parmvn.Config
	// HealthInterval is the backend health-check period. Default 1s.
	HealthInterval time.Duration
	// HealthTimeout bounds one health probe. Default 500ms.
	HealthTimeout time.Duration
	// MaxDim rejects requests whose dimension exceeds it. Default 16384.
	MaxDim int
	// MaxBodyBytes caps an HTTP request body. Default 8 MiB.
	MaxBodyBytes int64
}

func (c RouterConfig) withDefaults() RouterConfig {
	if c.HealthInterval <= 0 {
		c.HealthInterval = time.Second
	}
	if c.HealthTimeout <= 0 {
		c.HealthTimeout = 500 * time.Millisecond
	}
	if c.MaxDim <= 0 {
		c.MaxDim = 16384
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	return c
}

// backend is one replica and its health/traffic state.
type backend struct {
	url       string
	seed      uint64 // fnvString(url): the backend's rendezvous seed
	healthy   atomic.Bool
	forwarded atomic.Uint64
	failures  atomic.Uint64
}

// score is key hash h's rendezvous weight on b.
func (b *backend) score(h uint64) uint64 { return splitmix64(h ^ b.seed) }

// NewRouter validates the backend list and starts the health loop. Close
// stops it.
func NewRouter(cfg RouterConfig) (*Router, error) {
	c := cfg.withDefaults()
	if len(c.Backends) == 0 {
		return nil, errors.New("serve: router needs at least one backend")
	}
	r := &Router{
		cfg:    c,
		client: &http.Client{Timeout: 60 * time.Second},
		stop:   make(chan struct{}),
		start:  time.Now(),
	}
	seen := map[string]bool{}
	for _, b := range c.Backends {
		u, err := url.Parse(b)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("serve: router backend %q is not an absolute URL", b)
		}
		base := strings.TrimRight(b, "/")
		if seen[base] {
			return nil, fmt.Errorf("serve: duplicate router backend %q", base)
		}
		seen[base] = true
		be := &backend{url: base, seed: fnvString(base)}
		// Optimistically healthy until the first probe says otherwise, so a
		// router serves immediately after startup.
		be.healthy.Store(true)
		r.backends = append(r.backends, be)
	}
	r.wg.Add(1)
	go r.healthLoop()
	return r, nil
}

// Close stops the health loop.
func (r *Router) Close() {
	close(r.stop)
	r.wg.Wait()
}

// fnvString is FNV-1a/64 over s.
func fnvString(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}

// splitmix64 is the SplitMix64 generator's output mix: a bijection on
// uint64 whose every output bit depends on every input bit, so nearby key
// hashes and seeds score independently.
func splitmix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// pick returns the healthy backends for key hash h in descending score:
// the owner first, then the failover and spill order.
func (r *Router) pick(h uint64) []*backend {
	var out []*backend
	for _, b := range r.backends {
		if b.healthy.Load() {
			out = append(out, b)
		}
	}
	slices.SortFunc(out, func(a, b *backend) int { return cmp.Compare(b.score(h), a.score(h)) })
	return out
}

// healthLoop probes every backend each interval. A backend's keys follow
// its health flag: pick skips it while it is down.
func (r *Router) healthLoop() {
	defer r.wg.Done()
	t := time.NewTicker(r.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
		}
		for _, b := range r.backends {
			b.healthy.Store(r.probe(b))
		}
	}
}

// probe is one health check.
func (r *Router) probe(b *backend) bool {
	ctx, cancel := context.WithTimeout(context.Background(), r.cfg.HealthTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.url+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// Handler returns the router's HTTP surface — the same /v1 endpoints as a
// backend, plus the router's own /healthz and /stats.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/mvnprob", r.handleProxy)
	mux.HandleFunc("/v1/mvtprob", r.handleProxy)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		if !slices.ContainsFunc(r.backends, func(b *backend) bool { return b.healthy.Load() }) {
			w.WriteHeader(http.StatusServiceUnavailable)
			io.WriteString(w, "no healthy backends\n")
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, http.StatusOK, r.Snapshot())
	})
	return mux
}

// handleProxy routes one probability query: decode enough to compute the
// problem key, pick the key's backend, proxy, and on backend failure retry
// the next backend in the key's ranking.
func (r *Router) handleProxy(w http.ResponseWriter, req *http.Request) {
	r.requests.Add(1)
	if req.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeErr(w, badReq("body", "use POST"), http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, r.cfg.MaxBodyBytes))
	if err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		r.badReqs.Add(1)
		writeErr(w, badReq("body", "%v", err), status)
		return
	}
	h, rerr := r.routeHash(body)
	if rerr != nil {
		r.badReqs.Add(1)
		writeError(w, rerr)
		return
	}
	cands := r.pick(h)
	if len(cands) == 0 {
		w.Header().Set("Retry-After", "1")
		r.noBackend.Add(1)
		writeErr(w, errors.New("serve: router has no healthy backend"), http.StatusServiceUnavailable)
		return
	}
	var lastErr error
	for i, b := range cands {
		if i > 0 {
			r.retries.Add(1)
		}
		resp, err := r.forward(req.Context(), b, req.URL.Path, body)
		if err != nil {
			// Transport-level failure: the backend is gone or wedged. Mark
			// it down, which hands its keys off at once, and try the next
			// replica; the health loop brings it back when it recovers.
			b.failures.Add(1)
			b.healthy.Store(false)
			lastErr = err
			continue
		}
		if resp.StatusCode == http.StatusServiceUnavailable && i+1 < len(cands) {
			// Overloaded backend: spill this request to the next replica
			// (its cache stays authoritative for the key — spilling trades
			// one cold factorization for not shedding the request).
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			b.failures.Add(1)
			lastErr = ErrOverloaded
			continue
		}
		b.forwarded.Add(1)
		relay(w, resp)
		return
	}
	w.Header().Set("Retry-After", "1")
	writeErr(w, fmt.Errorf("serve: all replicas failed: %v", lastErr), http.StatusServiceUnavailable)
}

// routeHash computes the request's placement hash: decode, validate, and
// key exactly as the backend's serving layer will.
func (r *Router) routeHash(body []byte) (uint64, error) {
	req, err := DecodeRequest(body, Limits{MaxDim: r.cfg.MaxDim})
	if err != nil {
		return 0, err
	}
	method, err := parseMethod(req.Method, r.cfg.Session.Method)
	if err != nil {
		return 0, err
	}
	cfg := r.cfg.Session // as Server.sessionConfig derives it
	cfg.Method = method
	pk, err := cfg.ProblemKey(req.Locs, req.Kernel)
	if err != nil {
		return 0, badReq("kernel", "%v", err)
	}
	return pk.Hash(), nil
}

// forward proxies one request body to a backend.
func (r *Router) forward(ctx context.Context, b *backend, path string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.url+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return r.client.Do(req)
}

// relay copies a backend response through to the client.
func relay(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// RouterStats is the router's /stats snapshot.
type RouterStats struct {
	UptimeSec float64 `json:"uptime_sec"`
	// Requests counts proxied query requests (not health probes).
	Requests    uint64 `json:"requests"`
	BadRequests uint64 `json:"bad_requests"`
	// Retries counts proxy attempts beyond the first — requests that had to
	// fail over to another replica.
	Retries uint64 `json:"retries"`
	// NoBackend counts requests rejected because no backend was healthy.
	NoBackend uint64 `json:"no_backend"`
	// HealthyBackends is the current healthy count.
	HealthyBackends int                  `json:"healthy_backends"`
	Backends        []RouterBackendStats `json:"backends"`
}

// RouterBackendStats is one backend's routing state.
type RouterBackendStats struct {
	URL       string `json:"url"`
	Healthy   bool   `json:"healthy"`
	Forwarded uint64 `json:"forwarded"`
	Failures  uint64 `json:"failures"`
}

// Snapshot assembles the router statistics.
func (r *Router) Snapshot() RouterStats {
	st := RouterStats{
		UptimeSec:   time.Since(r.start).Seconds(),
		Requests:    r.requests.Load(),
		BadRequests: r.badReqs.Load(),
		Retries:     r.retries.Load(),
		NoBackend:   r.noBackend.Load(),
	}
	for _, b := range r.backends {
		healthy := b.healthy.Load()
		if healthy {
			st.HealthyBackends++
		}
		st.Backends = append(st.Backends, RouterBackendStats{
			URL: b.url, Healthy: healthy,
			Forwarded: b.forwarded.Load(), Failures: b.failures.Load(),
		})
	}
	return st
}
