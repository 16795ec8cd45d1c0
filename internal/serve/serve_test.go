package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro"
)

// testConfig is a small, fast server configuration shared by the tests.
func testConfig() Config {
	return Config{
		Session: parmvn.Config{QMCSize: 400, TileSize: 16},
		Shards:  2,
	}
}

func testRequest(grid int, rng float64) *Request {
	locs := parmvn.Grid(grid, grid)
	n := len(locs)
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = -1
		b[i] = math.Inf(1)
	}
	return &Request{
		Locs:   locs,
		Kernel: parmvn.KernelSpec{Family: "exponential", Range: rng},
		A:      a, B: b,
	}
}

func TestServeBasic(t *testing.T) {
	srv := New(testConfig())
	defer srv.Close()
	resp, err := srv.Do(context.Background(), testRequest(6, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Prob <= 0 || resp.Prob > 1 || math.IsNaN(resp.Prob) {
		t.Fatalf("prob %g not in (0,1]", resp.Prob)
	}
	if resp.N != 36 || resp.Method != "dense" {
		t.Fatalf("resp meta = %d/%s, want 36/dense", resp.N, resp.Method)
	}
	// Same problem again: warm, identical result (deterministic QMC).
	resp2, err := srv.Do(context.Background(), testRequest(6, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Prob != resp.Prob {
		t.Fatalf("warm prob %g != cold prob %g", resp2.Prob, resp.Prob)
	}
	st := srv.Snapshot()
	if st.Factorizations != 1 {
		t.Fatalf("factorizations = %d, want 1", st.Factorizations)
	}
	if st.Requests != 2 || st.MVNRequests != 2 {
		t.Fatalf("requests = %d/%d, want 2/2", st.Requests, st.MVNRequests)
	}
}

// TestServeMatchesSession pins that the serving layer is a pass-through: a
// query served over a Server equals the same query on a directly-owned
// Session with the same configuration, for each method and for MVN and MVT.
func TestServeMatchesSession(t *testing.T) {
	srv := New(testConfig())
	defer srv.Close()
	for _, method := range []string{"dense", "tlr", "adaptive"} {
		req := testRequest(5, 0.3)
		req.Method = method
		got, err := srv.Do(context.Background(), req)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		cfg := srv.sessionConfig(mustMethod(t, method))
		sess := parmvn.NewSession(cfg)
		want, err := sess.MVNProb(req.Locs, req.Kernel, req.A, req.B)
		sess.Close()
		if err != nil {
			t.Fatalf("%s session: %v", method, err)
		}
		if got.Prob != want.Prob {
			t.Fatalf("%s: served %g != session %g", method, got.Prob, want.Prob)
		}

		reqT := testRequest(5, 0.3)
		reqT.Method = method
		reqT.Nu = 7
		gotT, err := srv.Do(context.Background(), reqT)
		if err != nil {
			t.Fatalf("%s mvt: %v", method, err)
		}
		sess = parmvn.NewSession(cfg)
		wantT, err := sess.MVTProb(reqT.Locs, reqT.Kernel, reqT.Nu, reqT.A, reqT.B)
		sess.Close()
		if err != nil {
			t.Fatalf("%s mvt session: %v", method, err)
		}
		if gotT.Prob != wantT.Prob {
			t.Fatalf("%s mvt: served %g != session %g", method, gotT.Prob, wantT.Prob)
		}
	}
}

// TestServeOneSessionPerMethod: the session's TileSize caps the tile, so
// requests of any dimension for one method share their shard's one session.
func TestServeOneSessionPerMethod(t *testing.T) {
	cfg := testConfig()
	cfg.Shards, cfg.Session.TileSize = 1, 64
	srv := New(cfg)
	defer srv.Close()
	for _, grid := range []int{5, 10} { // n = 25 and 100
		if _, err := srv.Do(context.Background(), testRequest(grid, 0.3)); err != nil {
			t.Fatalf("n = %d: %v", grid*grid, err)
		}
	}
	if st := srv.Snapshot(); st.Sessions != 1 {
		t.Fatalf("sessions = %d after n = 25 and n = 100 on one method, want 1", st.Sessions)
	}
}

// TestServeRefusesF32Sweep pins the one sweep at the wire: "sweep":"f32"
// (or any value but "f64") is a 400 naming the field, from DecodeRequest and
// over HTTP, before any session or factor is touched, while "f64" and an
// omitted field are the same query, bit for bit.
func TestServeRefusesF32Sweep(t *testing.T) {
	const body = `{"grid":{"nx":5,"ny":5},"kernel":{"family":"exponential","range":0.2},"lower":-1%s}`
	for _, sweep := range []string{"f32", "half"} {
		_, err := DecodeRequest([]byte(fmt.Sprintf(body, `,"sweep":"`+sweep+`"`)), Limits{})
		var reqErr *RequestError
		if !errors.As(err, &reqErr) || reqErr.Field != "sweep" {
			t.Fatalf("sweep %q: DecodeRequest err = %v, want a *RequestError on field sweep", sweep, err)
		}
	}

	srv, ts := newTestHTTP(t, testConfig())
	status, out := post(t, ts.URL+"/v1/mvnprob", fmt.Sprintf(body, `,"sweep":"f32"`))
	if status != http.StatusBadRequest || out["field"] != "sweep" {
		t.Fatalf(`"sweep":"f32" over HTTP: status %d, body %v; want 400 on field sweep`, status, out)
	}
	if st := srv.Snapshot(); st.Sessions != 0 || st.Factorizations != 0 {
		t.Fatalf("a refused request spent work: sessions=%d factorizations=%d", st.Sessions, st.Factorizations)
	}

	var answers [2]map[string]any
	for i, sweep := range []string{"", `,"sweep":"f64"`} {
		status, answers[i] = post(t, ts.URL+"/v1/mvnprob", fmt.Sprintf(body, sweep))
		if status != http.StatusOK {
			t.Fatalf("sweep %q: status %d, body %v", sweep, status, answers[i])
		}
	}
	for _, k := range []string{"prob", "stderr", "samples"} {
		if answers[0][k] != answers[1][k] {
			t.Fatalf(`%s: %v with "sweep":"f64", %v without`, k, answers[1][k], answers[0][k])
		}
	}
}

func mustMethod(t *testing.T, s string) parmvn.Method {
	t.Helper()
	m, err := parseMethod(s, parmvn.Dense)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestServeValidation(t *testing.T) {
	srv := New(testConfig())
	defer srv.Close()
	ctx := context.Background()
	cases := []struct {
		name  string
		mut   func(*Request)
		field string
	}{
		{"no locs", func(r *Request) { r.Locs = nil }, "locs"},
		{"bad kernel", func(r *Request) { r.Kernel.Range = -1 }, "kernel"},
		{"bad family", func(r *Request) { r.Kernel.Family = "cubic" }, "kernel"},
		{"short a", func(r *Request) { r.A = r.A[:3] }, "limits"},
		{"nan limit", func(r *Request) { r.B[2] = math.NaN() }, "limits"},
		{"bad method", func(r *Request) { r.Method = "sparse" }, "method"},
		{"bad nu", func(r *Request) { r.Nu = -2 }, "nu"},
		{"huge", func(r *Request) { r.Locs = parmvn.Grid(200, 200) }, "locs"},
	}
	for _, tc := range cases {
		req := testRequest(4, 0.3)
		tc.mut(req)
		_, err := srv.Do(ctx, req)
		var reqErr *RequestError
		if !errors.As(err, &reqErr) {
			t.Fatalf("%s: err = %v, want *RequestError", tc.name, err)
		}
		if reqErr.Field != tc.field {
			t.Fatalf("%s: field = %q, want %q", tc.name, reqErr.Field, tc.field)
		}
	}
	if st := srv.Snapshot(); st.BadRequests != uint64(len(cases)) {
		t.Fatalf("bad_requests = %d, want %d", st.BadRequests, len(cases))
	}
}

// TestServeEmptyBox pins the degenerate-box semantics through the serving
// layer: a box with a[i] ≥ b[i] has probability exactly 0 and is answered
// without an engine call, a factorization slot, or a session — so
// statically-zero requests cannot evict real factors or occupy admission
// capacity.
func TestServeEmptyBox(t *testing.T) {
	srv := New(testConfig())
	defer srv.Close()
	req := testRequest(4, 0.3)
	req.A[0], req.B[0] = 2, 1
	resp, err := srv.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Prob != 0 {
		t.Fatalf("empty box prob = %g, want 0", resp.Prob)
	}
	st := srv.Snapshot()
	if st.Batches != 0 || st.Factorizations != 0 || st.Sessions != 0 {
		t.Fatalf("empty box spent work: batches=%d factorizations=%d sessions=%d, want all 0",
			st.Batches, st.Factorizations, st.Sessions)
	}
}

// TestServeCoalesce pins the cold-key single-flight: 33 concurrent clients
// sending MVN and MVT requests at one cold problem key trigger
// exactly one factorization, and every client gets an answer bit-identical
// to a direct Session call with the same opts.
func TestServeCoalesce(t *testing.T) {
	srv := New(testConfig())
	defer srv.Close()

	// Two request kinds over one covariance, so one ProblemKey.
	kinds := []func() *Request{
		func() *Request { return testRequest(8, 0.15) },
		func() *Request { r := testRequest(8, 0.15); r.Nu = 7; return r },
	}
	const clients = 33
	var (
		start sync.WaitGroup
		done  sync.WaitGroup
		gate  = make(chan struct{})
		resps [clients]*Response
		errs  [clients]error
	)
	start.Add(clients)
	done.Add(clients)
	for i := 0; i < clients; i++ {
		go func(i int) {
			defer done.Done()
			req := kinds[i%len(kinds)]()
			start.Done()
			<-gate
			resps[i], errs[i] = srv.Do(context.Background(), req)
		}(i)
	}
	start.Wait()
	close(gate)
	done.Wait()

	for k, kind := range kinds {
		req := kind()
		sess := parmvn.NewSession(srv.sessionConfig(parmvn.Dense))
		var want parmvn.Result
		var err error
		if req.Nu > 0 {
			want, err = sess.MVTProbOpts(req.Locs, req.Kernel, req.Nu, req.A, req.B, parmvn.QueryOpts{})
		} else {
			want, err = sess.MVNProbOpts(req.Locs, req.Kernel, req.A, req.B, parmvn.QueryOpts{})
		}
		sess.Close()
		if err != nil {
			t.Fatalf("kind %d session: %v", k, err)
		}
		for i := k; i < clients; i += len(kinds) {
			if errs[i] != nil {
				t.Fatalf("client %d: %v", i, errs[i])
			}
			if got := resps[i]; got.Prob != want.Prob || got.StdErr != want.StdErr || got.Samples != want.Samples {
				t.Fatalf("client %d (kind %d): served %0.17g±%g (%d samples) != session %0.17g±%g (%d)",
					i, k, got.Prob, got.StdErr, got.Samples, want.Prob, want.StdErr, want.Samples)
			}
		}
	}
	st := srv.Snapshot()
	if st.Factorizations != 1 || st.CacheMisses != 1 {
		t.Fatalf("factorizations/cache misses = %d/%d, want 1/1 for one cold key", st.Factorizations, st.CacheMisses)
	}
	// How many clients arrive while the build runs is up to the scheduler;
	// the leader never waits, and the counter agrees with the responses.
	waited := 0
	for _, r := range resps {
		if r.Coalesced {
			waited++
		}
	}
	if st.Coalesced != uint64(waited) || waited >= clients {
		t.Fatalf("coalesced = %d, %d responses say so; want equal and below %d", st.Coalesced, waited, clients)
	}
	if st.Requests != clients {
		t.Fatalf("requests = %d, want %d", st.Requests, clients)
	}
}

// TestServeBackpressure pins that a saturated server fails fast with ErrOverloaded instead of queueing without bound.
// One slow cold factorization occupies the single slot; with a zero-depth
// factorization queue, every other cold key must be rejected immediately,
// and a warm key on the same shard and session must answer while the build
// runs: no shard or cache lock is held across a factorization.
func TestServeBackpressure(t *testing.T) {
	cfg := testConfig()
	cfg.Shards = 1 // the warm key below shares the blocker's shard
	cfg.MaxInflightFactor = 1
	cfg.FactorQueueDepth = -1 // → 0 after defaulting: no waiting at all
	srv := New(cfg)
	defer srv.Close()

	warm := testRequest(6, 0.3) // n=36: the blocker's tile size, so its session
	if _, err := srv.Do(context.Background(), warm); err != nil {
		t.Fatal(err)
	}

	// Occupy the only factorization slot with a big cold problem.
	blockerDone := make(chan error, 1)
	go func() {
		_, err := srv.Do(context.Background(), testRequest(28, 0.1)) // n=784
		blockerDone <- err
	}()
	// Wait until the blocker holds the slot (its factorization lead is
	// counted before the build starts).
	for srv.Snapshot().Factorizations == 1 {
		time.Sleep(200 * time.Microsecond)
	}

	if _, err := srv.Do(context.Background(), warm); err != nil {
		t.Fatalf("warm key during the cold build: %v", err)
	}
	if len(srv.factorSem) == 0 {
		t.Fatal("the warm key answered only after the cold build released its slot")
	}

	// Every distinct cold key now fails fast.
	var rejected int
	for i := 0; i < 8; i++ {
		_, err := srv.Do(context.Background(), testRequest(6, 0.05+0.01*float64(i)))
		if errors.Is(err, ErrOverloaded) {
			rejected++
		} else if err != nil {
			t.Fatalf("cold key %d: unexpected error %v", i, err)
		}
	}
	if err := <-blockerDone; err != nil {
		t.Fatalf("blocker: %v", err)
	}
	if rejected == 0 {
		t.Fatal("no request was rejected while the factorization slot was held")
	}
	st := srv.Snapshot()
	if st.Rejected != uint64(rejected) {
		t.Fatalf("rejected counter = %d, want %d", st.Rejected, rejected)
	}
	if st.FactorQueueDepth != 0 {
		t.Fatalf("factor queue depth = %d after drain, want 0", st.FactorQueueDepth)
	}

	// After the blocker finishes, the same keys are admitted again.
	if _, err := srv.Do(context.Background(), testRequest(6, 0.05)); err != nil {
		t.Fatalf("post-drain query: %v", err)
	}
}

// TestServeShedKeepsWarmFactor pins that a request shed by admission control
// leaves the cache as it found it: with room for two factors, one warm and
// one building, a third cold key rejected for want of a slot must not evict
// the warm one, so re-querying it costs no second factorization.
func TestServeShedKeepsWarmFactor(t *testing.T) {
	cfg := testConfig()
	cfg.Shards = 1
	cfg.MaxInflightFactor = 1
	cfg.FactorQueueDepth = -1
	cfg.Session.FactorCacheCap = 2
	srv := New(cfg)
	defer srv.Close()

	warm := testRequest(6, 0.3) // the blocker's tile size, so its session and cache
	if _, err := srv.Do(context.Background(), warm); err != nil {
		t.Fatal(err)
	}
	blockerDone := make(chan error, 1)
	go func() {
		_, err := srv.Do(context.Background(), testRequest(28, 0.1)) // n=784
		blockerDone <- err
	}()
	for srv.Snapshot().Factorizations == 1 {
		time.Sleep(200 * time.Microsecond)
	}
	if _, err := srv.Do(context.Background(), testRequest(6, 0.05)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("cold key while the slot is held: err = %v, want ErrOverloaded", err)
	}
	if err := <-blockerDone; err != nil {
		t.Fatalf("blocker: %v", err)
	}
	if _, err := srv.Do(context.Background(), warm); err != nil {
		t.Fatal(err)
	}
	if st := srv.Snapshot(); st.Factorizations != 2 || st.CacheMisses != 2 {
		t.Fatalf("factorizations/cache misses = %d/%d, want 2/2: the shed request evicted the warm factor",
			st.Factorizations, st.CacheMisses)
	}
}

// TestServeMaxInFlight exercises the total-request cap: a request held in
// flight by a cold n = 784 build leaves no room for a second one, which is
// rejected before it touches a session.
func TestServeMaxInFlight(t *testing.T) {
	cfg := testConfig()
	cfg.MaxInFlight = 1
	srv := New(cfg)
	defer srv.Close()

	held := make(chan error, 1)
	go func() {
		_, err := srv.Do(context.Background(), testRequest(28, 0.1)) // n=784
		held <- err
	}()
	// The lead is counted before the build starts.
	for srv.Snapshot().Factorizations == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	if _, err := srv.Do(context.Background(), testRequest(4, 0.3)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded at the in-flight cap", err)
	}
	if err := <-held; err != nil {
		t.Fatalf("held request: %v", err)
	}
	if st := srv.Snapshot(); st.Rejected != 1 || st.Sessions != 1 {
		t.Fatalf("rejected/sessions = %d/%d, want 1/1", st.Rejected, st.Sessions)
	}
}

// TestServeMVTSharesFactor pins that MVN and MVT requests for one problem
// share a single cached factor (the key ignores ν).
func TestServeMVTSharesFactor(t *testing.T) {
	srv := New(testConfig())
	defer srv.Close()
	if _, err := srv.Do(context.Background(), testRequest(5, 0.25)); err != nil {
		t.Fatal(err)
	}
	reqT := testRequest(5, 0.25)
	reqT.Nu = 9
	if _, err := srv.Do(context.Background(), reqT); err != nil {
		t.Fatal(err)
	}
	st := srv.Snapshot()
	if st.Factorizations != 1 || st.CacheMisses != 1 {
		t.Fatalf("factorizations/misses = %d/%d, want 1/1 across MVN+MVT", st.Factorizations, st.CacheMisses)
	}
	if st.MVTRequests != 1 {
		t.Fatalf("mvt_requests = %d, want 1", st.MVTRequests)
	}
}

// TestServeClosed pins that a closed server rejects instead of hanging.
func TestServeClosed(t *testing.T) {
	srv := New(testConfig())
	srv.Close()
	if _, err := srv.Do(context.Background(), testRequest(4, 0.3)); err == nil {
		t.Fatal("Do on a closed server succeeded")
	}
	srv.Close() // idempotent
}

// TestServeContextCancel pins both cancellation points: a request whose ctx
// is already done returns ctx.Err() without touching a session or a slot,
// and a request waiting on another request's cold build stops waiting when
// its ctx ends, while the build completes for the leader.
func TestServeContextCancel(t *testing.T) {
	srv := New(testConfig())
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := srv.Do(ctx, testRequest(4, 0.3)); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled before entry: err = %v, want context.Canceled", err)
	}
	if st := srv.Snapshot(); st.Sessions != 0 || st.Factorizations != 0 {
		t.Fatalf("canceled request spent work: sessions=%d factorizations=%d, want 0/0",
			st.Sessions, st.Factorizations)
	}

	leader := make(chan error, 1)
	go func() {
		_, err := srv.Do(context.Background(), testRequest(28, 0.1)) // n=784
		leader <- err
	}()
	for srv.Snapshot().Factorizations == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	waiter := make(chan error, 1)
	go func() {
		_, err := srv.Do(ctx, testRequest(28, 0.1))
		waiter <- err
	}()
	for srv.Snapshot().Coalesced == 0 {
		select {
		case err := <-waiter:
			<-leader
			t.Skipf("the build finished before the second request joined it (err %v)", err)
		default:
			time.Sleep(100 * time.Microsecond)
		}
	}
	cancel()
	if err := <-waiter; !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter: err = %v, want context.Canceled", err)
	}
	if err := <-leader; err != nil {
		t.Fatalf("leader: %v", err)
	}
	if st := srv.Snapshot(); st.Factorizations != 1 || st.CacheMisses != 1 {
		t.Fatalf("factorizations/cache misses = %d/%d, want 1/1", st.Factorizations, st.CacheMisses)
	}
}
