package serve

import (
	"context"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"repro"
)

// storeConfig is testConfig plus a persistent factor store.
func storeConfig(t *testing.T, dir string) Config {
	t.Helper()
	store, err := parmvn.OpenFactorStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Store = store
	return cfg
}

// TestServerStoreWarmRestart is the serving-layer restart contract: a
// server that factorized with a store attached writes the factor through,
// off the shard locks; a second server sharing the directory serves its
// first query for that key warm — zero factorizations, one store hit.
func TestServerStoreWarmRestart(t *testing.T) {
	dir := t.TempDir()
	body := `{"grid":{"nx":4,"ny":4},"kernel":{"family":"exponential","range":0.3},"lower":-1}`

	srv1, ts1 := newTestHTTP(t, storeConfig(t, dir))
	// A write-through under a shard lock would stall every query routed to
	// that shard for the length of a file write and fsync. While a save's
	// temp file is in the directory, a watcher tries every shard lock; a try
	// counts only if the file is still there after it.
	saving := func() bool {
		tmp, _ := filepath.Glob(filepath.Join(dir, ".tmp-*"))
		return len(tmp) > 0
	}
	stop, watched := make(chan struct{}), make(chan struct{})
	var lockHeld, lockFree bool
	go func() {
		defer close(watched)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if !saving() {
				continue
			}
			free := true
			for _, sh := range srv1.shards {
				if !sh.mu.TryLock() {
					free = false
					continue
				}
				sh.mu.Unlock()
			}
			switch {
			case !saving():
			case free:
				lockFree = true
				return
			default:
				lockHeld = true
			}
		}
	}()
	if status, out := post(t, ts1.URL+"/v1/mvnprob", body); status != http.StatusOK {
		t.Fatalf("cold query status %d: %v", status, out)
	}
	// The write-through runs after the response is delivered; wait for it.
	waitFor(t, "store write-through", func() bool { return srv1.Snapshot().StoreSaves == 1 })
	close(stop)
	<-watched
	if lockHeld && !lockFree {
		t.Fatal("a shard lock was held while the store write-through ran")
	}
	st := srv1.Snapshot()
	if st.Factorizations != 1 || st.StoreMisses != 1 || st.StoreHits != 0 {
		t.Fatalf("first server factorizations/misses/hits = %d/%d/%d, want 1/1/0",
			st.Factorizations, st.StoreMisses, st.StoreHits)
	}

	// "Restart": a fresh server over the same directory.
	srv2, ts2 := newTestHTTP(t, storeConfig(t, dir))
	if status, out := post(t, ts2.URL+"/v1/mvnprob", body); status != http.StatusOK {
		t.Fatalf("warm query status %d: %v", status, out)
	}
	st = srv2.Snapshot()
	if st.Factorizations != 0 {
		t.Errorf("restarted server factorized %d times, want 0", st.Factorizations)
	}
	if st.StoreHits != 1 || st.StoreSaves != 0 {
		t.Errorf("restarted server store hits/saves = %d/%d, want 1/0", st.StoreHits, st.StoreSaves)
	}
	// MVT over the same covariance shares the stored factor too.
	if status, _ := post(t, ts2.URL+"/v1/mvtprob",
		`{"grid":{"nx":4,"ny":4},"kernel":{"family":"exponential","range":0.3},"lower":-1,"nu":7}`); status != http.StatusOK {
		t.Fatalf("mvt warm query status %d", status)
	}
	if st = srv2.Snapshot(); st.Factorizations != 0 {
		t.Errorf("MVT re-factorized (%d) despite the stored factor", st.Factorizations)
	}
}

// TestServeChurnAdmitsEveryBuild pins that no factor is built outside
// admission control, even when the cache holds one factor and 24 distinct
// cold keys race through four slots: every served request paid exactly one
// admitted factorization, one cache miss and one store write-through — no
// query and no write-through rebuilt a factor evicted under it.
func TestServeChurnAdmitsEveryBuild(t *testing.T) {
	cfg := storeConfig(t, t.TempDir())
	cfg.Shards = 1
	cfg.MaxInflightFactor = 4
	cfg.Session.FactorCacheCap = 1
	srv := New(cfg)
	defer srv.Close()

	const keys = 24
	var (
		wg     sync.WaitGroup
		gate   = make(chan struct{})
		served atomic.Uint64
	)
	wg.Add(keys)
	for i := 0; i < keys; i++ {
		go func(i int) {
			defer wg.Done()
			<-gate
			_, err := srv.Do(context.Background(), testRequest(12, 0.05+0.01*float64(i)))
			if err != nil && !errors.Is(err, ErrOverloaded) {
				t.Errorf("key %d: %v", i, err)
			} else if err == nil {
				served.Add(1)
			}
		}(i)
	}
	close(gate)
	wg.Wait()
	n := served.Load()
	waitFor(t, "store write-throughs", func() bool {
		st := srv.Snapshot()
		return st.StoreSaves+st.StoreErrors >= n
	})
	st := srv.Snapshot()
	if st.Factorizations != n || uint64(st.CacheMisses) != n || st.StoreSaves != n {
		t.Fatalf("served %d, factorizations %d, cache misses %d, store saves %d: want all equal",
			n, st.Factorizations, st.CacheMisses, st.StoreSaves)
	}
}

// TestServerStoreCorruptFile checks the degraded path: an unreadable store
// file surfaces as a store error, and the server falls back to factorizing
// — the request still succeeds.
func TestServerStoreCorruptFile(t *testing.T) {
	dir := t.TempDir()
	body := `{"grid":{"nx":4,"ny":4},"kernel":{"family":"exponential","range":0.2},"lower":-1}`

	srv1, ts1 := newTestHTTP(t, storeConfig(t, dir))
	if status, _ := post(t, ts1.URL+"/v1/mvnprob", body); status != http.StatusOK {
		t.Fatal("cold query failed")
	}
	waitFor(t, "store write-through", func() bool { return srv1.Snapshot().StoreSaves == 1 })

	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) != 1 {
		t.Fatalf("store dir: %v entries, err %v", len(ents), err)
	}
	path := filepath.Join(dir, ents[0].Name())
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	srv2, ts2 := newTestHTTP(t, storeConfig(t, dir))
	if status, out := post(t, ts2.URL+"/v1/mvnprob", body); status != http.StatusOK {
		t.Fatalf("query over corrupt store status %d: %v", status, out)
	}
	st := srv2.Snapshot()
	if st.StoreErrors == 0 {
		t.Error("corrupt store file not counted as a store error")
	}
	if st.Factorizations != 1 {
		t.Errorf("fallback factorizations = %d, want 1", st.Factorizations)
	}
}
