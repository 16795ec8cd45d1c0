package serve

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// TestServeBudgetedQuery runs a max_error-budgeted request end to end and
// checks the response carries the wave-path accounting: the applied budget,
// the samples actually paid, the achieved error and the converged flag.
func TestServeBudgetedQuery(t *testing.T) {
	srv := New(testConfig())
	defer srv.Close()

	req := testRequest(6, 0.2)
	req.MaxError = 0.02
	resp, err := srv.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Prob <= 0 || resp.Prob > 1 {
		t.Fatalf("prob %g not in (0,1]", resp.Prob)
	}
	if resp.MaxError != 0.02 || resp.Degraded {
		t.Fatalf("applied budget = %g (degraded %v), want the requested 0.02 undegraded", resp.MaxError, resp.Degraded)
	}
	if resp.Samples <= 0 {
		t.Fatalf("budgeted response reports no samples: %+v", resp)
	}
	if resp.Converged && (resp.RelErr <= 0 || resp.RelErr > 0.02) {
		t.Fatalf("converged with rel_err %g outside (0, 0.02]", resp.RelErr)
	}

	// The unconstrained query is untouched by the budgeted one: identical to
	// a fresh server's answer (deterministic engine, no budget set).
	plain, err := srv.Do(context.Background(), testRequest(6, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	srv2 := New(testConfig())
	defer srv2.Close()
	fresh, err := srv2.Do(context.Background(), testRequest(6, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Prob != fresh.Prob {
		t.Fatalf("unconstrained prob %0.17g != fresh server %0.17g", plain.Prob, fresh.Prob)
	}
	if plain.MaxError != 0 || plain.Converged || plain.Degraded {
		t.Fatalf("unconstrained response carries budget fields: %+v", plain)
	}

	st := srv.Snapshot()
	if st.BudgetedQueries != 1 {
		t.Fatalf("budgeted_queries = %d, want 1", st.BudgetedQueries)
	}
	if st.SamplesP50 <= 0 {
		t.Fatalf("samples percentiles not recorded: %+v", st)
	}
}

// TestServeDeadlineCapped: an effectively-expired deadline still serves the
// first wave's estimate — budget-capped, never an error — and the stats
// count it.
func TestServeDeadlineCapped(t *testing.T) {
	srv := New(testConfig())
	defer srv.Close()

	// Warm the factor first so the deadline measures integration, not the
	// factorization the first request pays.
	if _, err := srv.Do(context.Background(), testRequest(6, 0.2)); err != nil {
		t.Fatal(err)
	}
	req := testRequest(6, 0.2)
	req.DeadlineMs = 0.001 // expired by the time the wave loop checks it
	resp, err := srv.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Converged || resp.Canceled {
		t.Fatalf("expired deadline: want budget-capped, got %+v", resp)
	}
	if resp.Samples <= 0 || resp.Samples >= 400 {
		t.Fatalf("expired deadline paid %d samples, want a partial wave count in (0,400)", resp.Samples)
	}
	if resp.Prob <= 0 || resp.Prob > 1 || resp.StdErr <= 0 {
		t.Fatalf("partial estimate unusable: %+v", resp)
	}
}

// TestServeDegradation pins the SLO-aware degradation ramp: at full
// in-flight load every query's error budget is loosened to maxErrorFloor
// (never past it, and a looser client budget is never tightened), the
// response is flagged, and the counters see it.
func TestServeDegradation(t *testing.T) {
	cfg := testConfig()
	cfg.MaxInFlight = 1 // the request itself saturates the gauge
	srv := New(cfg)
	defer srv.Close()

	resp, err := srv.Do(context.Background(), testRequest(6, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded || resp.MaxError != 0.01 {
		t.Fatalf("full load: want budget degraded to the 0.01 floor, got %+v", resp)
	}
	// A client budget looser than the floor is kept, not tightened.
	req := testRequest(6, 0.2)
	req.MaxError = 0.2
	resp, err = srv.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Degraded || resp.MaxError != 0.2 {
		t.Fatalf("looser client budget must win: got %+v", resp)
	}
	st := srv.Snapshot()
	if st.Degraded != 1 || st.BudgetedQueries != 2 {
		t.Fatalf("degraded/budgeted = %d/%d, want 1/2", st.Degraded, st.BudgetedQueries)
	}
	if st.Rejected != 0 {
		t.Fatalf("degradation must shed accuracy, not requests: %d rejected", st.Rejected)
	}
}

// TestServeBudgetValidation: malformed budgets are 400-class request errors,
// from the JSON decoder and the in-process path alike.
func TestServeBudgetValidation(t *testing.T) {
	srv := New(testConfig())
	defer srv.Close()
	for _, tc := range []struct{ maxErr, deadlineMs float64 }{
		{maxErr: 1.5}, {maxErr: -0.1}, {maxErr: math.NaN()},
		{deadlineMs: -5}, {deadlineMs: math.Inf(1)}, {deadlineMs: 1e13},
	} {
		req := testRequest(4, 0.2)
		req.MaxError, req.DeadlineMs = tc.maxErr, tc.deadlineMs
		_, err := srv.Do(context.Background(), req)
		var reqErr *RequestError
		if !errors.As(err, &reqErr) {
			t.Errorf("max_error=%g deadline_ms=%g: got %v, want RequestError", tc.maxErr, tc.deadlineMs, err)
		}
	}
	if _, err := DecodeRequest([]byte(`{"grid":{"nx":4,"ny":4},"kernel":{"family":"exponential","range":0.2},"max_error":2}`), Limits{}); err == nil {
		t.Error("decoder accepted max_error=2")
	}
	// Past 2^63 ns a deadline overflows time.Duration into an expired one.
	var reqErr *RequestError
	if _, err := DecodeRequest([]byte(`{"grid":{"nx":4,"ny":4},"kernel":{"family":"exponential","range":0.2},"deadline_ms":1e13}`), Limits{}); !errors.As(err, &reqErr) || reqErr.Field != "deadline_ms" {
		t.Errorf("decoder on deadline_ms=1e13: got %v, want a deadline_ms RequestError", err)
	}
	req, err := DecodeRequest([]byte(`{"grid":{"nx":4,"ny":4},"kernel":{"family":"exponential","range":0.2},"max_error":1e-3,"deadline_ms":50}`), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if req.MaxError != 1e-3 || req.DeadlineMs != 50 {
		t.Fatalf("decoded budgets = %g/%g, want 1e-3/50", req.MaxError, req.DeadlineMs)
	}
}

// TestServeInterleavedBudgetStress interleaves deadline-capped and
// unconstrained queries on ONE shared factor from many goroutines: they run
// concurrently on the same session, and the per-query opts must stay with
// their queries — every unconstrained result bit-identical across the run,
// every capped result a valid partial estimate. Race-gated: this exists to
// put the race detector over concurrent queries on one cached factor.
func TestServeInterleavedBudgetStress(t *testing.T) {
	if !raceEnabled {
		t.Skip("stress test is race-gated: run with -race")
	}
	srv := New(testConfig())
	defer srv.Close()

	// Warm the shared factor so every goroutine below queries warm.
	if _, err := srv.Do(context.Background(), testRequest(6, 0.2)); err != nil {
		t.Fatal(err)
	}

	const goroutines = 16
	const iters = 10
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		plain   = math.NaN()
		gate    = make(chan struct{})
		capped  int
		futured int
	)
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 7))
			<-gate
			for it := 0; it < iters; it++ {
				req := testRequest(6, 0.2)
				budgeted := rng.Intn(2) == 0
				if budgeted {
					req.DeadlineMs = 0.001 // expired: one wave, partial estimate
				}
				resp, err := srv.Do(context.Background(), req)
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if resp.Prob <= 0 || resp.Prob > 1 || math.IsNaN(resp.Prob) {
					t.Errorf("goroutine %d: prob %g out of (0,1]", g, resp.Prob)
					return
				}
				mu.Lock()
				if budgeted {
					if resp.Converged {
						futured++
					} else {
						capped++
					}
					if resp.StdErr <= 0 {
						t.Errorf("capped query lost its error bar: %+v", resp)
					}
				} else {
					if math.IsNaN(plain) {
						plain = resp.Prob
					} else if resp.Prob != plain {
						t.Errorf("unconstrained results diverge: %0.17g != %0.17g", resp.Prob, plain)
					}
					if resp.Samples != 400 {
						t.Errorf("unconstrained query paid %d samples, want the fixed 400", resp.Samples)
					}
				}
				mu.Unlock()
			}
		}(g)
	}
	close(gate)
	wg.Wait()
	if capped == 0 {
		t.Fatalf("no deadline-capped queries observed (converged instead: %d)", futured)
	}
	st := srv.Snapshot()
	if st.BudgetCapped == 0 {
		t.Fatal("budget_capped counter never moved")
	}
}
