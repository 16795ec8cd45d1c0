package parmvn

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/cov"
	"repro/internal/engine"
	"repro/internal/mvn"
)

// factorKey identifies one factorization: what matrix was factorized (a
// content hash of the locations or of the explicit covariance entries, plus
// the kernel for the assembled path) and how (method, tile size, TLR
// accuracy). Two queries with equal keys can share one Cholesky factor; the
// 128-bit content hash plus the dimension makes an accidental collision —
// which would silently serve the wrong factor — astronomically unlikely.
type factorKey struct {
	kind   byte      // 'k' = kernel at locations, 'c' = explicit matrix content
	hash   [2]uint64 // FNV-1a/128 over the locations' float64 bits ('k'), or sigmaKey's ('c')
	n      int       // problem dimension, cheap collision guard
	kernel KernelSpec
	method Method // the preset: band and rank limit
	tile   int
	tol    float64
}

// cacheEntry is one key's factor and its only build: the caller that inserts
// the entry leads the build, and every other caller for the key waits on
// ready, which closes when f and err are final. done flips at the same
// moment, opening the allocation-free hit fast path.
type cacheEntry struct {
	f       *mvn.Factor
	err     error
	dropped bool // the build was refused and the entry removed; set before ready closes
	done    atomic.Bool
	ready   chan struct{}
	lastUse int64 // LRU stamp, guarded by FactorCache.mu
	pins    int   // callers holding the entry (its leader among them while it builds), guarded by FactorCache.mu
}

// settle publishes the build's outcome to the entry's waiters.
func (e *cacheEntry) settle(f *mvn.Factor, err error) {
	e.f, e.err = f, err
	e.done.Store(true)
	close(e.ready)
}

// FactorCache memoizes Cholesky factors (dense tiled or TLR) across the
// queries of a Session, so repeated MVN probabilities against one
// covariance pay the factorization cost once. Keys combine a content hash
// of the inputs with every configuration knob that changes the factor;
// entries whose build failed stay cached (factorization errors, e.g. a
// non-SPD matrix, are deterministic). The cache holds at most cap factors
// (least-recently-used eviction; cap ≤ 0 means unbounded), since a dense
// factor is O(n²) memory and workflows that stream ever-new covariances
// would otherwise grow the session without limit. Every build in flight is
// pinned by its leader, and a Warm caller's factor until its query has run;
// only while entries are pinned does the cache sit above the cap. Safe for
// concurrent use.
type FactorCache struct {
	mu      sync.Mutex
	cap     int
	tick    int64
	entries map[factorKey]*cacheEntry
	hits    int
	misses  int
	waits   int
}

func newFactorCache(cap int) *FactorCache {
	return &FactorCache{cap: cap, entries: map[factorKey]*cacheEntry{}}
}

// lookupDone returns the entry for key when its factor is already built,
// recording a cache hit — the warm-query fast path, which performs no
// allocation. It returns nil on a miss or while the first build is still in
// flight; callers then take the pinned flight (Session.acquire).
func (c *FactorCache) lookupDone(key factorKey) *cacheEntry {
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok || !e.done.Load() {
		c.mu.Unlock()
		return nil
	}
	c.hits++
	c.tick++
	e.lastUse = c.tick
	c.mu.Unlock()
	return e
}

// pin returns key's entry pinned, so evictOldest spares it until unpin, with
// its LRU stamp ticked; hit counts a cache hit when the entry exists. lead
// reports that pin inserted the entry: the caller then leads its build, and
// calls keep once it is admitted or has loaded the factor, or drop when the
// build is refused.
func (c *FactorCache) pin(key factorKey, hit bool) (e *cacheEntry, lead bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		e = &cacheEntry{ready: make(chan struct{})}
		c.entries[key] = e
	} else if hit {
		c.hits++
	}
	e.pins++
	c.tick++
	e.lastUse = c.tick
	return e, !ok
}

// unpin releases a pin and evicts down to the cap, which the pin may have
// held the cache above.
func (c *FactorCache) unpin(e *cacheEntry) {
	c.mu.Lock()
	e.pins--
	c.evictOldest()
	c.mu.Unlock()
}

// wait blocks until e settles or ctx ends, counting the wait.
func (c *FactorCache) wait(ctx context.Context, e *cacheEntry) error {
	c.mu.Lock()
	c.waits++
	c.mu.Unlock()
	select {
	case <-e.ready:
		return e.err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// keep counts a led entry into the cache once its build may proceed: a miss
// when it will factorize (a store load counts none), then eviction down to
// the cap. Until then the entry neither evicts nor counts, so a request that
// is shed leaves the cache as it found it.
func (c *FactorCache) keep(miss bool) {
	c.mu.Lock()
	if miss {
		c.misses++
	}
	c.evictOldest()
	c.mu.Unlock()
}

// install settles e, the entry its caller leads for key, with the factor st
// holds, or returns the load's error and leaves e unsettled.
func (c *FactorCache) install(key factorKey, e *cacheEntry, st *FactorStore) error {
	f, err := st.load(key)
	if err == nil {
		c.keep(false)
		e.settle(f, nil)
	}
	return err
}

// drop settles a led entry whose build was refused with err and removes it
// (its leader's pin kept it from eviction), so the refusal is not cached: the
// next caller for its key leads again.
func (c *FactorCache) drop(key factorKey, e *cacheEntry, err error) {
	c.mu.Lock()
	delete(c.entries, key)
	c.mu.Unlock()
	e.dropped = true
	e.settle(nil, err)
}

// evictOldest evicts the least-recently-used unpinned entries down to the
// cap. A build in flight is pinned by its leader, so only built entries are
// evicted; when every entry is pinned the cache stays above the cap until
// the last unpin. Called with mu held.
func (c *FactorCache) evictOldest() {
	for c.cap > 0 && len(c.entries) > c.cap {
		var victim factorKey
		age, found := int64(math.MaxInt64), false
		for k, e := range c.entries {
			if e.pins == 0 && e.lastUse < age {
				victim, age, found = k, e.lastUse, true
			}
		}
		if !found {
			return
		}
		delete(c.entries, victim)
	}
}

// Stats returns the cumulative hit and miss counts.
func (c *FactorCache) Stats() (hits, misses int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Waits returns how many callers found their key's build in flight and
// waited for it instead of building the factor again.
func (c *FactorCache) Waits() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.waits
}

// Len returns the number of cached factors.
func (c *FactorCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// fnv128a is an inline 128-bit FNV-1a hash (identical output to
// hash/fnv.New128a over the same byte stream) without the stdlib's
// per-query Sum allocation — content hashing runs on every warm query, so
// the cache key must be allocation-free.
type fnv128a struct{ hi, lo uint64 }

const fnvPrimeLo128 = 0x13b // FNV-128 prime is 2^88 + 0x13b

func newFNV128a() fnv128a {
	return fnv128a{hi: 0x6c62272e07bb0142, lo: 0x62b821756295c58d}
}

// writeFloat absorbs the little-endian bytes of v's bit pattern.
func (h *fnv128a) writeFloat(v float64) { h.writeUint(math.Float64bits(v)) }

// writeUint absorbs the little-endian bytes of u.
func (h *fnv128a) writeUint(u uint64) {
	for i := 0; i < 8; i++ {
		h.lo ^= uint64(byte(u >> (8 * i)))
		// state *= 2^88 + 0x13b (mod 2^128): the 2^88 term folds the low
		// word's bottom 40 bits into the high word.
		carry, lo := bits.Mul64(h.lo, fnvPrimeLo128)
		h.hi = h.hi*fnvPrimeLo128 + carry + h.lo<<24
		h.lo = lo
	}
}

func (h *fnv128a) sum() [2]uint64 { return [2]uint64{h.hi, h.lo} }

// hashPoints content-hashes a location set.
func hashPoints(locs []Point) [2]uint64 {
	h := newFNV128a()
	for _, p := range locs {
		h.writeFloat(p.X)
		h.writeFloat(p.Y)
	}
	return h.sum()
}

// hashRow digests one row of an explicit covariance two entries at a time —
// two lanes of multiply-and-fold (the halves of a 128-bit product xored, both
// factors carrying data) over the bit patterns, every entry contributing — and
// returns the index of the row's first NaN or infinite entry, or -1. It keys
// the session cache only: store files and routers see the byte-wise FNV above.
func hashRow(row []float64) (d [2]uint64, bad int) {
	const k0, k1, abs, one = 0x9e3779b97f4a7c15, 0xc2b2ae3d27d4eb4f, 1<<63 - 1, 1 << 52
	h0, h1 := uint64(len(row)), uint64(k1)
	var nonFinite uint64 // bit 63: some exponent field was all ones
	for i := 0; i < len(row); i += 2 {
		x, y := math.Float64bits(row[i]), math.Float64bits(row[min(i+1, len(row)-1)])
		nonFinite |= (x&abs + one) | (y&abs + one)
		hi, lo := bits.Mul64(x^h0, y^k0)
		h0 = hi ^ lo
		hi, lo = bits.Mul64(bits.RotateLeft64(x, 32)^k1, bits.RotateLeft64(y, 17)^h1)
		h1 = hi ^ lo
	}
	if nonFinite>>63 == 0 {
		return [2]uint64{h0, h1}, -1
	}
	return d, slices.IndexFunc(row, func(v float64) bool { return v-v != 0 })
}

// key assembles the cache key under an effective (already defaulted)
// configuration. It records the tile the factor is built at, TileSize capped
// at n (see factorize), so configurations that differ only in tile sizes of
// n or more share the key.
func (c Config) key(kind byte, hash [2]uint64, n int, spec KernelSpec) factorKey {
	return factorKey{
		kind: kind, hash: hash, n: n, kernel: spec,
		method: c.Method, tile: min(c.TileSize, n), tol: c.TLRTol,
	}
}

// ProblemKey identifies one factorization problem — the covariance content
// (locations and kernel) plus every configuration knob that changes the
// factor — exactly as the session factor cache keys it. The type is opaque
// and comparable (usable as a map key); serving layers use it to route all
// requests for one problem to one place, where Warm coalesces concurrent
// cold queries onto a single factorization. MVN and MVT queries over the same
// covariance share a key: the Cholesky factor does not depend on ν.
type ProblemKey struct{ k factorKey }

// Hash returns a well-mixed 64-bit digest of the key, suitable for sharding.
func (p ProblemKey) Hash() uint64 {
	h := newFNV128a()
	h.writeUint(p.k.hash[0])
	h.writeUint(p.k.hash[1])
	h.writeUint(uint64(p.k.kind)<<32 | uint64(uint32(p.k.n)))
	h.writeUint(uint64(p.k.method)<<32 | uint64(uint32(p.k.tile)))
	h.writeFloat(p.k.tol)
	for i := 0; i < len(p.k.kernel.Family); i++ {
		h.writeUint(uint64(p.k.kernel.Family[i]))
	}
	h.writeFloat(p.k.kernel.Sigma2)
	h.writeFloat(p.k.kernel.Range)
	h.writeFloat(p.k.kernel.Nu)
	h.writeFloat(p.k.kernel.Nugget)
	s := h.sum()
	return s[0] ^ s[1]
}

// ProblemKey returns the key under which a session built from this
// configuration caches the factor for spec's kernel at locs, or an error for
// an invalid spec. The configuration is defaulted first, so pass the same
// raw Config later given to NewSession; keys computed here and keys the
// session uses then agree. This lets a serving layer pick a shard (Hash)
// before any session exists.
func (c Config) ProblemKey(locs []Point, spec KernelSpec) (ProblemKey, error) {
	if err := spec.validate(); err != nil {
		return ProblemKey{}, err
	}
	return ProblemKey{c.withDefaults().key('k', hashPoints(locs), len(locs), spec.normalized())}, nil
}

// ProblemKey returns the factor-cache key for spec's kernel at locs under
// the session's effective configuration.
func (s *Session) ProblemKey(locs []Point, spec KernelSpec) (ProblemKey, error) {
	if err := spec.validate(); err != nil {
		return ProblemKey{}, err
	}
	return ProblemKey{s.cfg.key('k', hashPoints(locs), len(locs), spec.normalized())}, nil
}

// Warm makes the factor for spec's kernel at locs resident in the session
// cache and pins it there until unpin, so the query that follows runs warm
// and no eviction in between makes it factorize again. It is the cold-path
// hook for serving layers: the first caller for a key leads the key's one
// build, installing the factor st holds (st may be nil) or else factorizing
// once admit grants it a slot — release follows the factorization — and
// writing the new factor through to st in the background (Close waits for
// the write). Every other caller waits for the leader's outcome until ctx
// ends; waited reports that it did. An admit error reaches the leader and
// the Warm callers waiting on it and is not cached, so the next caller leads
// again (a direct query waiting on it leads the key itself); a factorization
// error is cached as for a query. Warm counts no cache hit (the query that
// follows does) and refuses what Prefactorize refuses.
func (s *Session) Warm(ctx context.Context, locs []Point, spec KernelSpec, st *FactorStore, admit func() (release func(), err error)) (unpin func(), waited bool, err error) {
	if err := validateDim(len(locs)); err != nil {
		return nil, false, err
	}
	if err := spec.validate(); err != nil {
		return nil, false, err
	}
	key := s.cfg.key('k', hashPoints(locs), len(locs), spec.normalized())
	e, waited, err := s.join(ctx, key, source{locs: locs, spec: spec}, st, admit, false)
	if err != nil {
		s.cache.unpin(e)
		return nil, waited, err
	}
	return func() { s.cache.unpin(e) }, waited, nil
}

// acquire returns key's (possibly cached) factor, building it from src on a
// miss: the warm fast path, else the key's one pinned flight, led with no
// store and an admission that always grants, or waited on. A direct caller
// has no admission of its own to be refused, so when the flight it joined is
// dropped (a Warm lead refused, a LoadFactor that found nothing to install)
// it joins again and leads the key itself.
func (s *Session) acquire(key factorKey, src source) (*mvn.Factor, error) {
	if e := s.cache.lookupDone(key); e != nil {
		return e.f, e.err
	}
	for {
		e, _, _ := s.join(context.Background(), key, src, nil, granted, true)
		s.cache.unpin(e)
		if !e.dropped {
			return e.f, e.err
		}
	}
}

// granted is the admission of a caller that has none of its own.
func granted() (func(), error) { return func() {}, nil }

// join pins key's entry and settles it: the caller that inserted it leads its
// build (lead), every other caller waits for the build in flight until ctx
// ends, counting a wait. hit counts a cache hit when the entry was found. The
// caller unpins e.
func (s *Session) join(ctx context.Context, key factorKey, src source, st *FactorStore, admit func() (func(), error), hit bool) (e *cacheEntry, waited bool, err error) {
	e, lead := s.cache.pin(key, hit)
	switch {
	case lead:
		err = s.lead(e, key, src, st, admit)
	case !e.done.Load():
		waited = true
		err = s.cache.wait(ctx, e)
	default:
		err = e.err
	}
	return e, waited, err
}

// lead settles e, the entry its caller just inserted for key: with the factor
// st holds, or with src's factorization under admit's slot, written through
// to st on a goroutine of its own. The write replaces whatever file st held
// under the key's name, which st could not load (corrupt, another version,
// another key hashing alike); the rename that ends it is atomic. A refused
// admission drops the entry.
func (s *Session) lead(e *cacheEntry, key factorKey, src source, st *FactorStore, admit func() (func(), error)) error {
	if st != nil && s.cache.install(key, e, st) == nil {
		return nil
	}
	release, err := admit()
	if err != nil {
		s.cache.drop(key, e, err)
		return err
	}
	s.cache.keep(true)
	f, err := s.build(src)
	release()
	e.settle(f, err)
	if err == nil && st != nil {
		s.saves.Add(1)
		go func() {
			defer s.saves.Done()
			_ = st.write(key, f) // counted in st.Stats; the factor stays cached either way
		}()
	}
	return err
}

// Prefactorize assembles, factorizes and caches the Cholesky factor for
// spec's kernel at locs without running a query. Concurrent calls for one key
// share a single build. A factorization failure (e.g. a non-SPD kernel
// matrix) is returned and also cached, deterministically, for subsequent
// queries.
func (s *Session) Prefactorize(locs []Point, spec KernelSpec) error {
	_, err := s.factor(problem{locs: locs, kernel: spec})
	return err
}

// source is what a lead factorizes: spec's kernel at locs or, when fill is
// set, the explicit n×n Σ that fill reads in place.
type source struct {
	locs []Point
	spec KernelSpec
	n    int
	fill engine.RunFill
}

// build factorizes src: the kernel is built from its spec and its
// covariance at locs assembled tile by tile, or Σ is read through fill.
func (s *Session) build(src source) (*mvn.Factor, error) {
	if src.fill != nil {
		return s.factorize("sigma", src.n, src.fill, true)
	}
	k, err := src.spec.build()
	if err != nil {
		return nil, err
	}
	g := toGeom(src.locs)
	return s.factorize("kernel", g.Len(), func(dst []float64, row0, j int) { cov.Fill(k, dst, g.Pts[row0:], g.Pts[j]) }, false)
}

// sigmaKey is the cache key of the caller's explicit n×n Σ, row(i) its i-th
// row, factored through order and sd (nil: as given): every entry hashed, the
// row digests combined in index order with order and sd. The digests are tasks
// on the session's runtime (a Workers: 1 session stays on one thread), so the
// key does not depend on the worker count. A NaN or infinite entry is refused,
// as is a row that is not n long.
func (s *Session) sigmaKey(row func(i int) []float64, n int, order []int, sd []float64) (factorKey, error) {
	const rowsPerTask = 32
	digest := make([][2]uint64, n)
	bad := make([]int, n)
	grp := s.rt.NewGroup()
	for i0 := 0; i0 < n; i0 += rowsPerTask {
		i0 := i0
		grp.Submit("key", 0, func() {
			for i := i0; i < min(i0+rowsPerTask, n); i++ {
				digest[i], bad[i] = hashRow(row(i))
			}
		})
	}
	grp.Wait()
	h := newFNV128a()
	for i, d := range digest {
		if len(row(i)) != n {
			return factorKey{}, fmt.Errorf("parmvn: covariance row %d has %d entries, want %d", i, len(row(i)), n)
		}
		if j := bad[i]; j >= 0 {
			return factorKey{}, &DetectInputError{What: "covariance", Index: i, Value: row(i)[j]}
		}
		h.writeUint(d[0])
		h.writeUint(d[1])
	}
	for _, l := range order {
		h.writeUint(uint64(l))
	}
	for _, v := range sd {
		h.writeFloat(v)
	}
	return s.cfg.key('c', h.sum(), n, KernelSpec{}), nil
}
