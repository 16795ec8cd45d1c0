package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro"
)

// fakeBackend is a stub replica: health-checkable, counting proxied
// queries, with a switchable health/failure mode.
type fakeBackend struct {
	ts      *httptest.Server
	queries atomic.Uint64
	sick    atomic.Bool // /healthz returns 503
	reject  atomic.Bool // queries return 503
}

func newFakeBackend(t *testing.T) *fakeBackend {
	t.Helper()
	b := &fakeBackend{}
	b.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/healthz":
			if b.sick.Load() {
				w.WriteHeader(http.StatusServiceUnavailable)
				return
			}
			io.WriteString(w, "ok\n")
		case strings.HasPrefix(r.URL.Path, "/v1/"):
			if b.reject.Load() {
				w.WriteHeader(http.StatusServiceUnavailable)
				io.WriteString(w, `{"error":"overloaded"}`)
				return
			}
			b.queries.Add(1)
			w.Header().Set("Content-Type", "application/json")
			io.WriteString(w, `{"prob":0.5,"stderr":0.001,"n":16,"method":"dense"}`)
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(b.ts.Close)
	return b
}

func newTestRouter(t *testing.T, cfg RouterConfig) (*Router, *httptest.Server) {
	t.Helper()
	if cfg.Session.QMCSize == 0 {
		cfg.Session = parmvn.Config{QMCSize: 400, TileSize: 16}
	}
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = 25 * time.Millisecond
	}
	if cfg.HealthTimeout == 0 {
		cfg.HealthTimeout = 250 * time.Millisecond
	}
	r, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(r.Handler())
	t.Cleanup(func() { ts.Close(); r.Close() })
	return r, ts
}

func keyBody(rng float64) string {
	return fmt.Sprintf(`{"grid":{"nx":4,"ny":4},"kernel":{"family":"exponential","range":%g},"lower":-1}`, rng)
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRouterPlacement checks rendezvous placement: one key always lands
// on one backend, and a spread of keys uses both.
func TestRouterPlacement(t *testing.T) {
	b1, b2 := newFakeBackend(t), newFakeBackend(t)
	_, ts := newTestRouter(t, RouterConfig{Backends: []string{b1.ts.URL, b2.ts.URL}})

	for i := 0; i < 5; i++ {
		status, _ := post(t, ts.URL+"/v1/mvnprob", keyBody(0.3))
		if status != http.StatusOK {
			t.Fatalf("status %d", status)
		}
	}
	q1, q2 := b1.queries.Load(), b2.queries.Load()
	if (q1 != 5 || q2 != 0) && (q1 != 0 || q2 != 5) {
		t.Errorf("one key split across backends: %d/%d, want 5/0 or 0/5", q1, q2)
	}

	for i := 0; i < 32; i++ {
		status, _ := post(t, ts.URL+"/v1/mvnprob", keyBody(0.05+float64(i)*0.01))
		if status != http.StatusOK {
			t.Fatalf("key %d status %d", i, status)
		}
	}
	if b1.queries.Load() == 0 || b2.queries.Load() == 0 {
		t.Errorf("32 keys never reached one backend: %d/%d", b1.queries.Load(), b2.queries.Load())
	}
}

// TestRouterFailover kills one backend: requests owned by it must retry to
// the surviving replica, and the dead backend must be marked down.
func TestRouterFailover(t *testing.T) {
	b1 := newFakeBackend(t)
	dead := newFakeBackend(t)
	dead.ts.Close() // transport errors from the start

	r, ts := newTestRouter(t, RouterConfig{Backends: []string{b1.ts.URL, dead.ts.URL}})
	for i := 0; i < 20; i++ {
		status, out := post(t, ts.URL+"/v1/mvnprob", keyBody(0.05+float64(i)*0.013))
		if status != http.StatusOK {
			t.Fatalf("key %d status %d: %v", i, status, out)
		}
	}
	st := r.Snapshot()
	if st.HealthyBackends != 1 {
		t.Errorf("healthy backends = %d, want 1", st.HealthyBackends)
	}
	if st.Retries == 0 {
		t.Error("no retries recorded despite a dead backend")
	}
	if b1.queries.Load() != 20 {
		t.Errorf("surviving backend served %d, want all 20", b1.queries.Load())
	}
}

// TestRouterSpillOn503 checks overload spilling: a backend answering 503
// stays healthy (it is alive), but its requests spill to the next replica
// instead of failing.
func TestRouterSpillOn503(t *testing.T) {
	ok, busy := newFakeBackend(t), newFakeBackend(t)
	busy.reject.Store(true)
	r, ts := newTestRouter(t, RouterConfig{Backends: []string{ok.ts.URL, busy.ts.URL}})

	for i := 0; i < 20; i++ {
		status, out := post(t, ts.URL+"/v1/mvnprob", keyBody(0.05+float64(i)*0.013))
		if status != http.StatusOK {
			t.Fatalf("key %d status %d: %v", i, status, out)
		}
	}
	st := r.Snapshot()
	if st.HealthyBackends != 2 {
		t.Errorf("healthy backends = %d, want 2 (503 is overload, not death)", st.HealthyBackends)
	}
	if st.Retries == 0 {
		t.Error("no spills recorded despite an overloaded backend")
	}
	if ok.queries.Load() != 20 {
		t.Errorf("healthy backend served %d, want all 20", ok.queries.Load())
	}
}

// TestRouterNoBackend drives the router to zero healthy backends.
func TestRouterNoBackend(t *testing.T) {
	dead := newFakeBackend(t)
	dead.ts.Close()
	r, ts := newTestRouter(t, RouterConfig{Backends: []string{dead.ts.URL}})

	// First request discovers the death (all replicas failed).
	status, _ := post(t, ts.URL+"/v1/mvnprob", keyBody(0.3))
	if status != http.StatusServiceUnavailable {
		t.Fatalf("dead backend status %d, want 503", status)
	}
	// Later requests find no healthy backend.
	status, _ = post(t, ts.URL+"/v1/mvnprob", keyBody(0.3))
	if status != http.StatusServiceUnavailable {
		t.Fatalf("no-backend status %d, want 503", status)
	}
	if st := r.Snapshot(); st.NoBackend == 0 {
		t.Error("no_backend counter never moved")
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz = %d, want 503 with no healthy backends", resp.StatusCode)
	}
}

// TestRouterHealthRecovery flips a backend sick and back through the
// health loop: it must drop out and come back (the key handoff round
// trip), and every key must return to its original owner.
func TestRouterHealthRecovery(t *testing.T) {
	b1, b2 := newFakeBackend(t), newFakeBackend(t)
	r, _ := newTestRouter(t, RouterConfig{Backends: []string{b1.ts.URL, b2.ts.URL}})

	hashes := routeHashes(t, r, 32)
	waitFor(t, "both healthy", func() bool { return r.Snapshot().HealthyBackends == 2 })
	before := owners(r, hashes)
	b2.sick.Store(true)
	waitFor(t, "sick backend marked down", func() bool { return r.Snapshot().HealthyBackends == 1 })
	b2.sick.Store(false)
	waitFor(t, "recovered backend marked up", func() bool { return r.Snapshot().HealthyBackends == 2 })
	if after := owners(r, hashes); !slices.Equal(after, before) {
		t.Errorf("placement after recovery %v, want the original %v", after, before)
	}
}

// routeHashes returns the placement hashes of count distinct keys, computed
// by r exactly as it routes a request body.
func routeHashes(t *testing.T, r *Router, count int) []uint64 {
	t.Helper()
	hs := make([]uint64, count)
	for i := range hs {
		h, err := r.routeHash([]byte(keyBody(0.05 + float64(i)*0.001)))
		if err != nil {
			t.Fatal(err)
		}
		hs[i] = h
	}
	return hs
}

// owners returns each hash's owner URL ("" with no healthy backend).
func owners(r *Router, hashes []uint64) []string {
	out := make([]string, len(hashes))
	for i, h := range hashes {
		if c := r.pick(h); len(c) > 0 {
			out[i] = c[0].url
		}
	}
	return out
}

// TestRouterHandoffMovesOnlyDeadKeys pins the placement contract on 200
// keys and 3 backends: marking one backend down moves exactly its keys,
// each to its second choice; marking it up restores the original
// placement; and a second router over the same backends (listed in
// another order) places every key the same way.
func TestRouterHandoffMovesOnlyDeadKeys(t *testing.T) {
	urls := []string{newFakeBackend(t).ts.URL, newFakeBackend(t).ts.URL, newFakeBackend(t).ts.URL}
	// No probe within the test: health changes only as the test makes them.
	r, _ := newTestRouter(t, RouterConfig{Backends: urls, HealthInterval: time.Hour})
	hashes := routeHashes(t, r, 200)

	ranks := make([][]*backend, len(hashes))
	owned := map[*backend]int{}
	for i, h := range hashes {
		ranks[i] = r.pick(h)
		if len(ranks[i]) != 3 {
			t.Fatalf("key %d ranks %d backends, want 3", i, len(ranks[i]))
		}
		owned[ranks[i][0]]++
	}
	for _, b := range r.backends {
		if owned[b] == 0 {
			t.Fatalf("backend %s owns none of %d keys", b.url, len(hashes))
		}
	}

	dead := r.backends[1]
	dead.healthy.Store(false)
	moved := 0
	for i, h := range hashes {
		got, want := r.pick(h)[0], ranks[i][0]
		if want == dead {
			want = ranks[i][1]
			moved++
		}
		if got != want {
			t.Errorf("key %d with %s down: owner %s, want %s", i, dead.url, got.url, want.url)
		}
	}
	if moved != owned[dead] {
		t.Errorf("%d keys moved, want the %d the dead backend owned", moved, owned[dead])
	}

	dead.healthy.Store(true)
	for i, h := range hashes {
		if got := r.pick(h); !slices.Equal(got, ranks[i]) {
			t.Errorf("key %d after recovery ranks %v, want %v", i, got, ranks[i])
		}
	}

	reversed := slices.Clone(urls)
	slices.Reverse(reversed)
	r2, _ := newTestRouter(t, RouterConfig{Backends: reversed, HealthInterval: time.Hour})
	if o1, o2 := owners(r, hashes), owners(r2, hashes); !slices.Equal(o1, o2) {
		t.Errorf("a second router places keys differently:\n%v\n%v", o1, o2)
	}
}

// TestRouterBadRequest checks the router rejects undecodable and
// unroutable requests itself, without burning a backend round trip.
func TestRouterBadRequest(t *testing.T) {
	b := newFakeBackend(t)
	r, ts := newTestRouter(t, RouterConfig{Backends: []string{b.ts.URL}})

	status, out := post(t, ts.URL+"/v1/mvnprob", `{"kernel":{"family":"nope"}}`)
	if status != http.StatusBadRequest {
		t.Errorf("bad request status %d: %v", status, out)
	}
	status, _ = post(t, ts.URL+"/v1/mvnprob", `not json`)
	if status != http.StatusBadRequest {
		t.Errorf("malformed JSON status %d", status)
	}
	resp, err := http.Get(ts.URL + "/v1/mvnprob")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status %d, want 405", resp.StatusCode)
	}
	if b.queries.Load() != 0 {
		t.Errorf("bad requests reached the backend (%d)", b.queries.Load())
	}
	if st := r.Snapshot(); st.BadRequests != 2 {
		t.Errorf("bad_requests = %d, want 2", st.BadRequests)
	}
}

// TestRouterStatsEndpoint checks the /stats wire format.
func TestRouterStatsEndpoint(t *testing.T) {
	b := newFakeBackend(t)
	_, ts := newTestRouter(t, RouterConfig{Backends: []string{b.ts.URL}})

	if status, _ := post(t, ts.URL+"/v1/mvtprob", keyBody(0.2)); status != http.StatusOK {
		t.Fatalf("mvtprob via router status %d", status)
	}
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st RouterStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("stats decode: %v", err)
	}
	if st.Requests != 1 || len(st.Backends) != 1 || st.Backends[0].Forwarded != 1 {
		t.Errorf("stats = %+v, want 1 request forwarded to 1 backend", st)
	}
}

// TestNewRouterValidation pins the constructor's input checks.
func TestNewRouterValidation(t *testing.T) {
	if _, err := NewRouter(RouterConfig{}); err == nil {
		t.Error("empty backend list accepted")
	}
	if _, err := NewRouter(RouterConfig{Backends: []string{"not-a-url"}}); err == nil {
		t.Error("relative URL accepted")
	}
	if _, err := NewRouter(RouterConfig{Backends: []string{"http://a:1", "http://a:1/"}}); err == nil {
		t.Error("duplicate backend accepted")
	}
}
