package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro"
)

func newTestHTTP(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts
}

func post(t *testing.T, url, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return resp.StatusCode, out
}

func TestHTTPEndpoints(t *testing.T) {
	srv, ts := newTestHTTP(t, testConfig())

	// A valid MVN query.
	status, out := post(t, ts.URL+"/v1/mvnprob",
		`{"grid":{"nx":4,"ny":4},"kernel":{"family":"exponential","range":0.3},"lower":-1}`)
	if status != http.StatusOK {
		t.Fatalf("mvnprob status %d: %v", status, out)
	}
	p, ok := out["prob"].(float64)
	if !ok || p <= 0 || p > 1 {
		t.Fatalf("prob = %v, want in (0,1]", out["prob"])
	}
	if out["method"] != "dense" || out["n"] != float64(16) {
		t.Fatalf("meta = %v/%v, want dense/16", out["method"], out["n"])
	}

	// The MVT endpoint with the same problem (shares the cached factor).
	status, out = post(t, ts.URL+"/v1/mvtprob",
		`{"grid":{"nx":4,"ny":4},"kernel":{"family":"exponential","range":0.3},"lower":-1,"nu":7}`)
	if status != http.StatusOK {
		t.Fatalf("mvtprob status %d: %v", status, out)
	}
	if st := srv.Snapshot(); st.Factorizations != 1 {
		t.Fatalf("factorizations = %d, want 1 across mvn+mvt", st.Factorizations)
	}

	// healthz.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("healthz = %d %q", resp.StatusCode, body)
	}

	// stats reflects the two served queries.
	var st Stats
	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("stats decode: %v", err)
	}
	resp.Body.Close()
	if st.Requests != 2 || st.MVNRequests != 1 || st.MVTRequests != 1 {
		t.Fatalf("stats requests = %d/%d/%d, want 2/1/1", st.Requests, st.MVNRequests, st.MVTRequests)
	}
	if st.LatencyCount != 2 || st.LatencyMeanMs <= 0 {
		t.Fatalf("latency count/mean = %d/%g", st.LatencyCount, st.LatencyMeanMs)
	}
}

func TestHTTPErrorMapping(t *testing.T) {
	_, ts := newTestHTTP(t, testConfig())
	cases := []struct {
		name, endpoint, body string
		status               int
		field                string
	}{
		{"bad json", "/v1/mvnprob", `{"grid":`, http.StatusBadRequest, "body"},
		{"empty body", "/v1/mvnprob", ``, http.StatusBadRequest, "body"},
		{"no problem", "/v1/mvnprob", `{"kernel":{"family":"exponential","range":0.2}}`, http.StatusBadRequest, "locs"},
		{"bad kernel", "/v1/mvnprob", `{"grid":{"nx":3,"ny":3},"kernel":{"family":"exponential","range":-2}}`, http.StatusBadRequest, "kernel"},
		{"nu on mvn", "/v1/mvnprob", `{"grid":{"nx":3,"ny":3},"kernel":{"family":"exponential","range":0.2},"nu":5}`, http.StatusBadRequest, "nu"},
		{"missing nu", "/v1/mvtprob", `{"grid":{"nx":3,"ny":3},"kernel":{"family":"exponential","range":0.2}}`, http.StatusBadRequest, "nu"},
		{"oversized", "/v1/mvnprob", `{"grid":{"nx":1000,"ny":1000},"kernel":{"family":"exponential","range":0.2}}`, http.StatusBadRequest, "grid"},
	}
	for _, tc := range cases {
		status, out := post(t, ts.URL+tc.endpoint, tc.body)
		if status != tc.status {
			t.Fatalf("%s: status %d, want %d (%v)", tc.name, status, tc.status, out)
		}
		if out["field"] != tc.field {
			t.Fatalf("%s: field %v, want %q", tc.name, out["field"], tc.field)
		}
	}

	// Wrong HTTP method.
	resp, err := http.Get(ts.URL + "/v1/mvnprob")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET mvnprob = %d, want 405", resp.StatusCode)
	}

	// Oversized body → 413.
	cfgSmall := testConfig()
	cfgSmall.MaxBodyBytes = 64
	_, tsSmall := newTestHTTP(t, cfgSmall)
	big := `{"grid":{"nx":3,"ny":3},"kernel":{"family":"exponential","range":0.2},"a":[` +
		strings.Repeat("0,", 500) + `0]}`
	resp, err = http.Post(tsSmall.URL+"/v1/mvnprob", "application/json", bytes.NewReader([]byte(big)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body = %d, want 413", resp.StatusCode)
	}
}

// TestHTTPIndefiniteApproximation: a smooth, nearly singular field (Matérn
// ν = 2.5, range 0.3, nugget 1e-4 on the n = 1024 grid, tile 64) whose TLR
// factor at TLRTol 1e-4 meets a negative pivot. The request is well formed
// and Σ is positive definite, so the server answers 422 with the typed
// error's text — the method, tolerance, tile and pivot — not 500. The same
// build through a session fails with ErrApproximationIndefinite, which wraps
// ErrNotPositiveDefinite, and so does the factor cache's second answer.
func TestHTTPIndefiniteApproximation(t *testing.T) {
	cfg := testConfig()
	cfg.Session = parmvn.Config{QMCSize: 100, TileSize: 64, TLRTol: 1e-4}
	_, ts := newTestHTTP(t, cfg)
	status, out := post(t, ts.URL+"/v1/mvnprob",
		`{"grid":{"nx":32,"ny":32},"kernel":{"family":"matern","range":0.3,"nu":2.5,"nugget":1e-4},"lower":-3,"upper":3,"method":"tlr"}`)
	msg, _ := out["error"].(string)
	if status != http.StatusUnprocessableEntity || !strings.Contains(msg, "indefinite") ||
		!strings.Contains(msg, "method tlr, TLRTol 0.0001, tile size 64") || !strings.Contains(msg, "pivot") {
		t.Fatalf("status %d, body %v: want 422 naming the method, tolerance, tile and pivot", status, out)
	}

	sc := cfg.Session
	sc.Method = parmvn.TLR
	s := parmvn.NewSession(sc)
	defer s.Close()
	locs := parmvn.Grid(32, 32)
	a, b := make([]float64, len(locs)), make([]float64, len(locs))
	for i := range a {
		a[i], b[i] = -3, 3
	}
	kernel := parmvn.KernelSpec{Family: "matern", Range: 0.3, Nu: 2.5, Nugget: 1e-4}
	for call := 0; call < 2; call++ {
		_, err := s.MVNProb(locs, kernel, a, b)
		if !errors.Is(err, parmvn.ErrApproximationIndefinite) || !errors.Is(err, parmvn.ErrNotPositiveDefinite) {
			t.Fatalf("call %d: %v, want ErrApproximationIndefinite wrapping ErrNotPositiveDefinite", call, err)
		}
	}
	if hits, misses := s.Cache().Stats(); hits != 1 || misses != 1 {
		t.Errorf("cache hits/misses %d/%d, want the failed build cached: 1/1", hits, misses)
	}
}

// TestHTTPOverloadedStatus pins the 503 + Retry-After mapping for
// backpressure rejections.
func TestHTTPOverloadedStatus(t *testing.T) {
	cfg := testConfig()
	cfg.MaxInflightFactor = 1
	cfg.FactorQueueDepth = -1 // no queue
	srv, ts := newTestHTTP(t, cfg)

	blocker := make(chan error, 1)
	go func() {
		_, err := srv.Do(context.Background(), testRequest(24, 0.1))
		blocker <- err
	}()
	for srv.Snapshot().Factorizations == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	var got503 bool
	for i := 0; i < 8 && !got503; i++ {
		resp, err := http.Post(ts.URL+"/v1/mvnprob", "application/json", strings.NewReader(
			`{"grid":{"nx":5,"ny":5},"kernel":{"family":"exponential","range":0.07},"lower":-1}`))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("503 without Retry-After")
			}
			got503 = true
		}
		resp.Body.Close()
	}
	if err := <-blocker; err != nil {
		t.Fatalf("blocker: %v", err)
	}
	if !got503 {
		t.Skip("factorization finished before overload could be observed")
	}
}

// TestHTTPExplicitLocsAndNullLimits covers the explicit-locations schema
// with per-dimension null (open) limits.
func TestHTTPExplicitLocsAndNullLimits(t *testing.T) {
	_, ts := newTestHTTP(t, testConfig())
	locs := parmvn.Grid(3, 3)
	wire := make([][2]float64, len(locs))
	for i, p := range locs {
		wire[i] = [2]float64{p.X, p.Y}
	}
	body, _ := json.Marshal(map[string]any{
		"locs":   wire,
		"kernel": map[string]any{"family": "exponential", "range": 0.3},
		"a":      []any{nil, -1, -1, nil, -1, -1, -1, -1, -1},
		"b":      []any{1, 1, nil, 1, nil, 1, 1, 1, 1},
	})
	status, out := post(t, ts.URL+"/v1/mvnprob", string(body))
	if status != http.StatusOK {
		t.Fatalf("status %d: %v", status, out)
	}
	if p := out["prob"].(float64); p <= 0 || p >= 1 {
		t.Fatalf("prob = %g, want in (0,1)", p)
	}
}
