package parmvn

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/factorio"
)

// factorState reads key's entry in c: "absent", "building" or "ready".
func factorState(c *FactorCache, key factorKey) string {
	c.mu.Lock()
	e, ok := c.entries[key]
	c.mu.Unlock()
	switch {
	case !ok:
		return "absent"
	case e.done.Load():
		return "ready"
	}
	return "building"
}

// stored reports whether st holds a file under pk's name, without reading it.
func stored(st *FactorStore, pk ProblemKey) bool {
	_, err := os.Stat(st.path(pk))
	return err == nil
}

// leadStub leads key's flight on c as an admitted Session.lead does, with a
// stub build that blocks until release closes: it returns once the lead has
// counted its miss, and finished closes when the leader has settled the
// entry and unpinned it.
func leadStub(t *testing.T, c *FactorCache, key factorKey, release <-chan struct{}) (finished <-chan struct{}) {
	t.Helper()
	e, lead := c.pin(key, true)
	if !lead {
		t.Fatalf("key %d: joined a flight, want to lead it", key.n)
	}
	c.keep(true)
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-release
		e.settle(nil, nil)
		c.unpin(e)
	}()
	return done
}

// TestEvictPrefersDoneOverBuilding pins the eviction policy on the pinned
// flight: every build in flight is pinned by its leader, so a built entry is
// evicted before any building one, even an older one, and a building entry is
// never evicted — that would let the next caller for its key start a second
// build while the first still runs. The cache sits above its cap only while
// entries are pinned, and is back at the cap once the pins end. Leaders run on
// goroutines of their own, so -race checks the interleaving.
func TestEvictPrefersDoneOverBuilding(t *testing.T) {
	keyBuilding := factorKey{kind: 'k', n: 1}
	keyDone := factorKey{kind: 'k', n: 2}
	keyNew := factorKey{kind: 'k', n: 3}
	now := make(chan struct{})
	close(now)

	c := newFactorCache(2)
	release := make(chan struct{})
	building := leadStub(t, c, keyBuilding, release) // the oldest LRU stamp
	<-leadStub(t, c, keyDone, now)
	// Inserting a third key overflows cap 2. LRU alone would evict
	// keyBuilding (oldest); the policy must pick keyDone instead.
	<-leadStub(t, c, keyNew, now)
	if st := factorState(c, keyBuilding); st != "building" {
		t.Errorf("building entry state = %v, want building (was it evicted?)", st)
	}
	if st := factorState(c, keyDone); st != "absent" {
		t.Errorf("done entry state = %v, want absent (it was the LRU-newer but done victim)", st)
	}
	close(release)
	<-building

	// Cap 1 under three builds in flight: none is evicted, and the cache
	// holds max(cap, pinned entries) after every unpin, the oldest first.
	c1 := newFactorCache(1)
	keys := []factorKey{keyBuilding, keyDone, keyNew}
	var releases []chan struct{}
	var finished []<-chan struct{}
	for _, k := range keys {
		releases = append(releases, make(chan struct{}))
		finished = append(finished, leadStub(t, c1, k, releases[len(releases)-1]))
	}
	for _, k := range keys {
		if st := factorState(c1, k); st != "building" {
			t.Fatalf("key %d is %s with every build pinned, want building", k.n, st)
		}
	}
	for i := range keys {
		close(releases[i])
		<-finished[i]
		if got, want := c1.Len(), max(1, len(keys)-1-i); got != want {
			t.Fatalf("after unpin %d: %d entries, want %d (cap 1, %d still pinned)", i+1, got, want, len(keys)-1-i)
		}
		for _, k := range keys[i+1:] {
			if st := factorState(c1, k); st != "building" {
				t.Fatalf("after unpin %d: key %d is %s, want building", i+1, k.n, st)
			}
		}
	}
	if st := factorState(c1, keyNew); st != "ready" {
		t.Fatalf("last factor built is %s after the last unpin, want ready", st)
	}
}

// TestQueryLeadsRefusedFlight pins that no refusal reaches a caller that
// cannot be refused: a query that joins a Warm lead whose admission is then
// refused leads the key itself and answers as a fresh session does. It counts
// the hit of the flight it found, the wait, and its own lead's miss.
func TestQueryLeadsRefusedFlight(t *testing.T) {
	locs, spec, a, b := storeTestProblem()
	cfg := Config{TileSize: 8, QMCSize: 200, Workers: 1}
	s := NewSession(cfg)
	defer s.Close()

	errShed := errors.New("shed")
	admitting, refuse := make(chan struct{}), make(chan struct{})
	led := make(chan error, 1)
	go func() {
		_, _, err := s.Warm(context.Background(), locs, spec, nil, func() (func(), error) {
			close(admitting)
			<-refuse
			return nil, errShed
		})
		led <- err
	}()
	<-admitting
	type answer struct {
		r   Result
		err error
	}
	joined := make(chan answer, 1)
	go func() {
		r, err := s.MVNProb(locs, spec, a, b)
		joined <- answer{r, err}
	}()
	for s.Cache().Waits() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	close(refuse)
	if err := <-led; !errors.Is(err, errShed) {
		t.Fatalf("refused Warm lead: err %v, want %v", err, errShed)
	}
	got := <-joined
	if got.err != nil {
		t.Fatalf("query that joined the refused lead: %v, want its own lead", got.err)
	}
	fresh := NewSession(cfg)
	defer fresh.Close()
	want, err := fresh.MVNProb(locs, spec, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got.r != want {
		t.Fatalf("query after the refused lead = %+v, fresh session %+v", got.r, want)
	}
	if h, m := s.Cache().Stats(); h != 1 || m != 1 {
		t.Fatalf("hits/misses %d/%d, want 1/1 (the flight found, its own lead)", h, m)
	}
	if w := s.Cache().Waits(); w != 1 {
		t.Fatalf("waits %d, want 1", w)
	}
}

// TestWarmOneFlight pins Warm's rules on one session: a refused admission
// reaches the leader and the caller waiting on it and is not cached, so the
// next caller leads again; a lead counts a miss only once it is admitted,
// none for a store load, and no hit; a pinned factor outlives the cap until
// its query has run; and Close waits for the write-through.
func TestWarmOneFlight(t *testing.T) {
	locs, spec, a, b := storeTestProblem()
	cfg := Config{TileSize: 8, QMCSize: 200, Workers: 1, FactorCacheCap: 1}
	st, err := OpenFactorStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	pk, err := cfg.ProblemKey(locs, spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	grant := func() (func(), error) { return func() {}, nil }
	s := NewSession(cfg)

	errShed := errors.New("shed")
	admitting, refuse := make(chan struct{}), make(chan struct{})
	led, joined := make(chan error, 1), make(chan error, 1)
	go func() {
		_, _, err := s.Warm(ctx, locs, spec, st, func() (func(), error) {
			close(admitting)
			<-refuse
			return nil, errShed
		})
		led <- err
	}()
	<-admitting
	go func() {
		_, waited, err := s.Warm(ctx, locs, spec, st, grant)
		if !waited {
			err = fmt.Errorf("did not wait on the lead (err %v)", err)
		}
		joined <- err
	}()
	for s.Cache().Waits() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	close(refuse)
	for _, ch := range []chan error{led, joined} {
		if err := <-ch; !errors.Is(err, errShed) {
			t.Fatalf("refused admission: err %v, want it for the leader and its waiter", err)
		}
	}
	if got := factorState(s.cache, pk.k); got != "absent" {
		t.Fatalf("refused admission left the key %s, want absent", got)
	}
	if h, m := s.Cache().Stats(); h != 0 || m != 0 {
		t.Fatalf("refused admission counted hits/misses %d/%d, want 0/0", h, m)
	}

	unpin, waited, err := s.Warm(ctx, locs, spec, st, grant)
	if err != nil || waited {
		t.Fatalf("second lead: waited %v, err %v", waited, err)
	}
	if h, m := s.Cache().Stats(); h != 0 || m != 1 {
		t.Fatalf("admitted lead counted hits/misses %d/%d, want 0/1", h, m)
	}
	if err := s.Prefactorize(locs, KernelSpec{Family: "exponential", Range: 0.3}); err != nil {
		t.Fatal(err)
	}
	if got := factorState(s.cache, pk.k); got != "ready" {
		t.Fatalf("pinned factor is %s after a second key filled the cap", got)
	}
	if _, err := s.MVNProb(locs, spec, a, b); err != nil {
		t.Fatal(err)
	}
	if h, m := s.Cache().Stats(); h != 1 || m != 2 {
		t.Fatalf("query after Warm counted hits/misses %d/%d, want 1/2", h, m)
	}
	unpin()
	if got := s.Cache().Len(); got != 1 {
		t.Fatalf("%d factors cached after unpin, want the cap 1", got)
	}
	s.Close()
	if !stored(st, pk) {
		t.Fatal("Close returned before the write-through")
	}

	s2 := NewSession(cfg)
	defer s2.Close()
	for i := 0; i < 2; i++ {
		unpin, waited, err := s2.Warm(ctx, locs, spec, st, func() (func(), error) {
			t.Error("admission asked for despite the stored factor")
			return grant()
		})
		if err != nil || waited {
			t.Fatalf("store lead %d: waited %v, err %v", i, waited, err)
		}
		unpin()
	}
	if h, m := s2.Cache().Stats(); h != 0 || m != 0 {
		t.Fatalf("store load counted hits/misses %d/%d, want 0/0", h, m)
	}
	if hits, misses, saves, errs := st.Stats(); hits != 1 || misses != 2 || saves != 1 || errs != 0 {
		t.Fatalf("store hits/misses/saves/errors = %d/%d/%d/%d, want 1/2/1/0", hits, misses, saves, errs)
	}
}

func storeTestProblem() (locs []Point, spec KernelSpec, a, b []float64) {
	locs = Grid(5, 5)
	spec = KernelSpec{Family: "exponential", Range: 0.15}
	n := len(locs)
	a = make([]float64, n)
	b = make([]float64, n)
	for i := range a {
		a[i] = -1
		b[i] = 1
	}
	return locs, spec, a, b
}

// TestStoreRoundTripBitIdentical is the store's end-to-end property: for
// every factorization method, and for MVN and MVT queries alike, a session
// that loaded its factor from disk answers bit-identically to the session
// that built and saved it — the factor round-trips exactly, and the loaded
// session never factorizes.
func TestStoreRoundTripBitIdentical(t *testing.T) {
	locs, spec, a, b := storeTestProblem()
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"dense", Config{Method: Dense, TileSize: 8, QMCSize: 256, Replicates: 2, Workers: 1}},
		{"tlr", Config{Method: TLR, TileSize: 8, TLRTol: 1e-6, QMCSize: 256, Replicates: 2, Workers: 1}},
		{"adaptive", Config{Method: MethodAdaptive, TileSize: 8, QMCSize: 256, Replicates: 2, Workers: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, err := OpenFactorStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			s1 := NewSession(tc.cfg)
			defer s1.Close()
			if err := s1.SaveFactor(st, locs, spec); err != nil {
				t.Fatalf("save: %v", err)
			}
			pk, err := s1.ProblemKey(locs, spec)
			if err != nil {
				t.Fatal(err)
			}
			if !stored(st, pk) {
				t.Fatal("store reports no factor after SaveFactor")
			}
			mvn1, err := s1.MVNProb(locs, spec, a, b)
			if err != nil {
				t.Fatal(err)
			}
			mvt1, err := s1.MVTProb(locs, spec, 5, a, b)
			if err != nil {
				t.Fatal(err)
			}

			s2 := NewSession(tc.cfg)
			defer s2.Close()
			if err := s2.LoadFactor(st, pk); err != nil {
				t.Fatalf("load: %v", err)
			}
			if status := factorState(s2.cache, pk.k); status != "ready" {
				t.Fatalf("loaded factor state = %v, want ready", status)
			}
			mvn2, err := s2.MVNProb(locs, spec, a, b)
			if err != nil {
				t.Fatal(err)
			}
			mvt2, err := s2.MVTProb(locs, spec, 5, a, b)
			if err != nil {
				t.Fatal(err)
			}
			if mvn1.Prob != mvn2.Prob || mvn1.StdErr != mvn2.StdErr {
				t.Errorf("MVN not bit-identical: %v/%v vs %v/%v",
					mvn1.Prob, mvn1.StdErr, mvn2.Prob, mvn2.StdErr)
			}
			if mvt1.Prob != mvt2.Prob || mvt1.StdErr != mvt2.StdErr {
				t.Errorf("MVT not bit-identical: %v/%v vs %v/%v",
					mvt1.Prob, mvt1.StdErr, mvt2.Prob, mvt2.StdErr)
			}
			if _, misses := s2.Cache().Stats(); misses != 0 {
				t.Errorf("loaded session paid %d factorizations, want 0", misses)
			}
			// A second load is a no-op success (entry already resident).
			if err := s2.LoadFactor(st, pk); err != nil {
				t.Errorf("re-load over a resident factor: %v", err)
			}
		})
	}
}

// TestStoreMissAndKeyVerification checks the miss paths: an absent file is
// ErrStoreMiss, and a file whose embedded key disagrees with the requested
// problem (here: a stored factor copied under another key's file name) is a
// miss too — never an installed wrong factor.
func TestStoreMissAndKeyVerification(t *testing.T) {
	locs, spec, _, _ := storeTestProblem()
	cfg := Config{TileSize: 8, QMCSize: 200, Workers: 1}
	st, err := OpenFactorStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(cfg)
	defer s.Close()

	pk, err := s.ProblemKey(locs, spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LoadFactor(st, pk); !errors.Is(err, ErrStoreMiss) {
		t.Fatalf("load from empty store: %v, want ErrStoreMiss", err)
	}
	if err := s.SaveFactor(st, locs, spec); err != nil {
		t.Fatal(err)
	}

	// Copy the stored container under the file name of a different problem:
	// the embedded key must be caught on load.
	other := KernelSpec{Family: "exponential", Range: 0.33}
	pkOther, err := s.ProblemKey(locs, other)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(st.path(pk))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(st.path(pkOther), data, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := NewSession(cfg)
	defer s2.Close()
	if err := s2.LoadFactor(st, pkOther); !errors.Is(err, ErrStoreMiss) {
		t.Fatalf("load with mismatched embedded key: %v, want ErrStoreMiss", err)
	}
	if status := factorState(s2.cache, pkOther.k); status != "absent" {
		t.Error("mismatched factor was installed")
	}
}

// TestStoreCorruption truncates and corrupts stored files: loads surface
// the typed factorio errors and never install a factor.
func TestStoreCorruption(t *testing.T) {
	locs, spec, _, _ := storeTestProblem()
	cfg := Config{TileSize: 8, QMCSize: 200, Workers: 1}
	st, err := OpenFactorStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(cfg)
	defer s.Close()
	if err := s.SaveFactor(st, locs, spec); err != nil {
		t.Fatal(err)
	}
	pk, err := s.ProblemKey(locs, spec)
	if err != nil {
		t.Fatal(err)
	}
	path := st.path(pk)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	fresh := func() *Session { return NewSession(cfg) }

	// Truncation mid-file.
	if err := os.WriteFile(path, orig[:len(orig)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := fresh()
	if err := s2.LoadFactor(st, pk); !errors.Is(err, factorio.ErrFormat) {
		t.Errorf("truncated file: %v, want ErrFormat", err)
	}
	s2.Close()

	// One flipped payload byte.
	mut := make([]byte, len(orig))
	copy(mut, orig)
	mut[len(mut)/2] ^= 0x10
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	s3 := fresh()
	if err := s3.LoadFactor(st, pk); !errors.Is(err, factorio.ErrChecksum) {
		t.Errorf("flipped byte: %v, want ErrChecksum", err)
	}
	s3.Close()

	// Future container version.
	fut := make([]byte, len(orig))
	copy(fut, orig)
	fut[8]++
	if err := os.WriteFile(path, fut, 0o644); err != nil {
		t.Fatal(err)
	}
	s4 := fresh()
	if err := s4.LoadFactor(st, pk); !errors.Is(err, factorio.ErrVersion) {
		t.Errorf("future version: %v, want ErrVersion", err)
	}
	if status := factorState(s4.cache, pk.k); status != "absent" {
		t.Error("corrupt factor was installed")
	}
	s4.Close()
}

// TestWarmReplacesUnreadableStoreFile: a file the store cannot load under a
// key's name — here seven bytes of garbage — is replaced by the factor the
// leader builds instead, so the next session loads it and factorizes nothing.
func TestWarmReplacesUnreadableStoreFile(t *testing.T) {
	locs, spec, a, b := storeTestProblem()
	cfg := Config{TileSize: 8, QMCSize: 200, Workers: 1}
	st, err := OpenFactorStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	pk, err := cfg.ProblemKey(locs, spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(st.path(pk), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	grant := func() (func(), error) { return func() {}, nil }
	s := NewSession(cfg)
	unpin, _, err := s.Warm(context.Background(), locs, spec, st, grant)
	if err != nil {
		t.Fatal(err)
	}
	unpin()
	want, err := s.MVNProb(locs, spec, a, b)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2 := NewSession(cfg)
	defer s2.Close()
	if err := s2.LoadFactor(st, pk); err != nil {
		t.Fatalf("load after the write-through: %v", err)
	}
	got, err := s2.MVNProb(locs, spec, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if _, misses := s2.Cache().Stats(); misses != 0 || got != want {
		t.Errorf("loaded session: %d factorizations, answer %+v; want 0 and %+v", misses, got, want)
	}
	if hits, _, saves, errs := st.Stats(); hits != 1 || saves != 1 || errs != 1 {
		t.Errorf("store hits/saves/errors = %d/%d/%d, want 1/1/1 (the garbage read once)", hits, saves, errs)
	}
}

// TestFactorKeyBlobSeparatesKeys checks the key serialization LoadFactor
// compares byte for byte: it leads with keyBlobVersion, equal keys encode
// equally, and changing any one field — the content hash, n, the method, the
// tile size, the tolerance or any kernel parameter — changes the blob.
func TestFactorKeyBlobSeparatesKeys(t *testing.T) {
	k := factorKey{
		kind:   'k',
		hash:   [2]uint64{0x0123456789abcdef, 0xfedcba9876543210},
		n:      400,
		kernel: KernelSpec{Family: "matern", Sigma2: 1.5, Range: 0.2, Nu: 2.5, Nugget: 1e-8},
		method: MethodAdaptive,
		tile:   64,
		tol:    1e-7,
	}
	blob := encodeFactorKey(k)
	if blob[0] != keyBlobVersion {
		t.Errorf("blob version %d, want %d", blob[0], keyBlobVersion)
	}
	if !bytes.Equal(blob, encodeFactorKey(k)) {
		t.Error("equal keys encode differently")
	}
	for name, edit := range map[string]func(*factorKey){
		"kind":   func(k *factorKey) { k.kind = 's' },
		"hash0":  func(k *factorKey) { k.hash[0]++ },
		"hash1":  func(k *factorKey) { k.hash[1]++ },
		"n":      func(k *factorKey) { k.n++ },
		"method": func(k *factorKey) { k.method = TLR },
		"tile":   func(k *factorKey) { k.tile++ },
		"tol":    func(k *factorKey) { k.tol *= 2 },
		"family": func(k *factorKey) { k.kernel.Family = "maternx" },
		"sigma2": func(k *factorKey) { k.kernel.Sigma2++ },
		"range":  func(k *factorKey) { k.kernel.Range++ },
		"nu":     func(k *factorKey) { k.kernel.Nu++ },
		"nugget": func(k *factorKey) { k.kernel.Nugget++ },
	} {
		k2 := k
		edit(&k2)
		if bytes.Equal(blob, encodeFactorKey(k2)) {
			t.Errorf("changing %s leaves the blob unchanged", name)
		}
	}
}
