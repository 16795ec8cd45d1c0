// Command mvnserve serves MVN/MVT probability queries over HTTP/JSON — the
// production front door of the engine. It owns a sharded pool of sessions,
// coalesces concurrent requests for one uncached factorization into a single
// build, runs every request as one engine call, and admission-controls
// factorizations so overload fails fast (503) instead of queueing without
// bound.
//
// Endpoints:
//
//	POST /v1/mvnprob   one MVN probability query
//	POST /v1/mvtprob   one MVT probability query (requires "nu")
//	GET  /healthz      liveness
//	GET  /stats        counters: cache hits/misses, coalesces, rejections,
//	                   queue depth, latency, store hits/saves
//
// With -store DIR the server persists every factor it builds into DIR
// (versioned, checksummed container files) and installs stored factors on
// cold keys, so a restarted server — or a new replica sharing the
// directory — serves its first query for a stored key warm, with zero
// factorizations.
//
// With -route URL1,URL2,... the process runs as a thin router instead:
// requests are placed on backends by rendezvous hashing on their
// ProblemKey, backends are health-checked, failed proxies retry the key's
// next-ranked backend, and a backend going down or up moves only its own
// keys.
//
// Example:
//
//	mvnserve -addr :8080 -method tlr -qmc 5000 &
//	curl -s localhost:8080/v1/mvnprob -d '{
//	  "grid": {"nx": 20, "ny": 20},
//	  "kernel": {"family": "exponential", "range": 0.1},
//	  "lower": -1
//	}'
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	method := flag.String("method", "dense", "default factorization method: dense, tlr or adaptive (requests may override)")
	tile := flag.Int("tile", 0, "largest tile side (0 = 64; a smaller problem is one tile)")
	tol := flag.Float64("tlr-tol", 1e-4, "TLR compression accuracy")
	qmc := flag.Int("qmc", 2000, "QMC sample size")
	reps := flag.Int("reps", 1, "randomized QMC replicates per query")
	workers := flag.Int("workers", 0, "worker goroutines per session (0 = GOMAXPROCS)")
	cacheCap := flag.Int("cache-cap", 0, "cached factors per session, LRU (0 = default 8, negative = unbounded)")
	shards := flag.Int("shards", 0, "session shards (0 = default 4)")
	maxFactor := flag.Int("max-factor", 0, "concurrent factorizations (0 = default 2)")
	factorQueue := flag.Int("factor-queue", 0, "cold keys that may wait for a factorization slot (0 = default 8, negative = none)")
	maxInflight := flag.Int("max-inflight", 0, "admitted requests before fast-fail (0 = default 1024)")
	maxDim := flag.Int("max-dim", 0, "maximum problem dimension (0 = default 16384)")
	storeDir := flag.String("store", "", "persistent factor store directory (load cold keys from it, write built factors through to it)")
	route := flag.String("route", "", "comma-separated backend URLs: run as a router over them instead of serving locally, placing each problem key on one backend by rendezvous hashing")
	healthEvery := flag.Duration("health-interval", 0, "router backend health-check period (0 = default 1s)")
	flag.Parse()

	m, err := parmvn.ParseMethod(*method)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mvnserve:", err)
		os.Exit(2)
	}
	session := parmvn.Config{
		Method: m, TileSize: *tile, TLRTol: *tol,
		QMCSize: *qmc, Replicates: *reps, Workers: *workers,
		FactorCacheCap: *cacheCap,
	}

	var handler http.Handler
	var closeFn func()
	if *route != "" {
		backends := strings.Split(*route, ",")
		for i := range backends {
			backends[i] = strings.TrimSpace(backends[i])
		}
		router, err := serve.NewRouter(serve.RouterConfig{
			Backends:       backends,
			Session:        session,
			HealthInterval: *healthEvery,
			MaxDim:         *maxDim,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "mvnserve:", err)
			os.Exit(2)
		}
		handler = router.Handler()
		closeFn = router.Close
		fmt.Printf("mvnserve: routing on %s across %d backends\n", *addr, len(backends))
	} else {
		var store *parmvn.FactorStore
		if *storeDir != "" {
			var err error
			store, err = parmvn.OpenFactorStore(*storeDir)
			if err != nil {
				fmt.Fprintln(os.Stderr, "mvnserve:", err)
				os.Exit(2)
			}
		}
		srv := serve.New(serve.Config{
			Session:           session,
			Shards:            *shards,
			MaxInflightFactor: *maxFactor,
			FactorQueueDepth:  *factorQueue,
			MaxInFlight:       *maxInflight,
			MaxDim:            *maxDim,
			Store:             store,
		})
		handler = srv.Handler()
		closeFn = srv.Close
		fmt.Printf("mvnserve: listening on %s (method %s, qmc %d)\n", *addr, *method, *qmc)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: handler}
	done := make(chan error, 1)
	go func() { done <- httpSrv.ListenAndServe() }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-done:
		fmt.Fprintln(os.Stderr, "mvnserve:", err)
		os.Exit(1)
	case s := <-sig:
		fmt.Printf("mvnserve: %v, draining\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		httpSrv.Shutdown(ctx)
		cancel()
		closeFn()
	}
}
