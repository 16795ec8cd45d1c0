package parmvn

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"

	"repro/internal/factorio"
	"repro/internal/mvn"
)

// FactorStore is a directory of persisted Cholesky factors, one file per
// factorization problem, in the versioned, checksummed internal/factorio
// container format. It is the restart/replica warm-start mechanism of the
// serving layer: Prefactorize once, SaveFactor, and every later process —
// a restarted server, a new replica — installs the deserialized factor
// straight into its session factor cache instead of paying the O(n³)
// factorization again. A loaded factor answers queries bit-identically to
// the factor that was saved.
//
// Files are written to a temporary name and renamed into place, so a crash
// mid-write never leaves a partial file under a live name; every section of
// the format carries its own CRC, so on-disk corruption surfaces as a typed
// error on load, never as a wrong factor. Safe for concurrent use by any
// number of processes sharing the directory.
type FactorStore struct {
	dir                         string
	hits, misses, saves, errors atomic.Uint64
}

// ErrStoreMiss reports that the store holds no factor for the requested
// problem (distinguishable from an I/O or corruption failure).
var ErrStoreMiss = errors.New("parmvn: factor not in store")

// storeExt is the factor file suffix.
const storeExt = ".fac"

// OpenFactorStore opens (creating if needed) a factor store directory.
func OpenFactorStore(dir string) (*FactorStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("parmvn: empty factor store path")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("parmvn: factor store: %w", err)
	}
	return &FactorStore{dir: dir}, nil
}

// path is the file a problem key persists under: the key's well-mixed
// 64-bit hash in hex. Two distinct keys colliding on all 64 bits is
// astronomically unlikely; the full key is verified on load regardless, so
// a collision degrades to a store miss, never to a wrong factor.
func (st *FactorStore) path(pk ProblemKey) string {
	return filepath.Join(st.dir, fmt.Sprintf("%016x%s", pk.Hash(), storeExt))
}

// Stats returns the store's cumulative counts: loads that installed a
// stored factor (hits) and loads that found none to install (misses, an
// unreadable file included), factors written (saves), and files that could
// not be read or written (errors).
func (st *FactorStore) Stats() (hits, misses, saves, errors uint64) {
	return st.hits.Load(), st.misses.Load(), st.saves.Load(), st.errors.Load()
}

// keyBlobVersion versions the factorKey serialization inside the container
// key section (the container itself is versioned separately). Version 1 keys
// carried the rank cap and adaptive thresholds, and a TLR factor saved under
// them may hold tiles truncated past TLRTol: a version-1 blob is refused, so
// its factor is rebuilt.
const keyBlobVersion = 2

// appendString appends a length-prefixed string.
func appendString(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

// encodeFactorKey serializes a factorKey deterministically; equal keys
// produce equal blobs, so key identity on load is a bytes.Equal.
func encodeFactorKey(k factorKey) []byte {
	b := make([]byte, 0, 96)
	b = append(b, keyBlobVersion, k.kind)
	b = binary.LittleEndian.AppendUint64(b, k.hash[0])
	b = binary.LittleEndian.AppendUint64(b, k.hash[1])
	b = binary.LittleEndian.AppendUint64(b, uint64(k.n))
	b = binary.LittleEndian.AppendUint32(b, uint32(k.method))
	b = binary.LittleEndian.AppendUint32(b, uint32(k.tile))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(k.tol))
	b = appendString(b, k.kernel.Family)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(k.kernel.Sigma2))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(k.kernel.Range))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(k.kernel.Nu))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(k.kernel.Nugget))
	return b
}

// SaveFactor persists the Cholesky factor for spec's kernel at locs —
// building and caching it first if the session has not already — into the
// store, atomically (write temp, fsync, rename). Factorization failures
// are returned and never persisted.
func (s *Session) SaveFactor(st *FactorStore, locs []Point, spec KernelSpec) error {
	f, err := s.factor(problem{locs: locs, kernel: spec})
	if err != nil {
		return err
	}
	return st.write(s.cfg.key('k', hashPoints(locs), len(locs), spec.normalized()), f)
}

// write encodes key's factor container to a temp file and renames it into
// place under the key's name, counting a save or an error.
func (st *FactorStore) write(key factorKey, f *mvn.Factor) (err error) {
	defer func() {
		if err != nil {
			st.errors.Add(1)
		} else {
			st.saves.Add(1)
		}
	}()
	tmp, err := os.CreateTemp(st.dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("parmvn: factor store: %w", err)
	}
	defer os.Remove(tmp.Name())
	w := bufio.NewWriterSize(tmp, 1<<20)
	encErr := factorio.Encode(w, encodeFactorKey(key), f)
	if encErr == nil {
		encErr = w.Flush()
	}
	if encErr == nil {
		encErr = tmp.Sync()
	}
	if cerr := tmp.Close(); encErr == nil {
		encErr = cerr
	}
	if encErr != nil {
		return fmt.Errorf("parmvn: factor store write: %w", encErr)
	}
	if err := os.Rename(tmp.Name(), st.path(ProblemKey{key})); err != nil {
		return fmt.Errorf("parmvn: factor store: %w", err)
	}
	return nil
}

// LoadFactor installs the stored factor for pk into the session's factor
// cache, so the next query for that problem runs warm without ever
// factorizing. It returns ErrStoreMiss when the store has no (matching)
// factor for pk, and the typed factorio errors (checksum, version,
// format) for unreadable files. A factor already cached — or being built —
// is left alone and reported as success.
//
// The stored key must match pk exactly — same content hash, method, tile
// size and tolerances — otherwise the file is treated as a miss; a stored
// factor can therefore never be installed under a configuration it was not
// built for.
func (s *Session) LoadFactor(st *FactorStore, pk ProblemKey) error {
	e, lead := s.cache.pin(pk.k, false)
	defer s.cache.unpin(e)
	if !lead {
		return nil
	}
	err := s.cache.install(pk.k, e, st)
	if err != nil {
		s.cache.drop(pk.k, e, err)
	}
	return err
}

// load decodes key's container from disk and verifies the key it embeds (a
// mismatch is ErrStoreMiss). It counts a hit, or a miss and — for a file that
// cannot be read or decoded — an error.
func (st *FactorStore) load(key factorKey) (f *mvn.Factor, err error) {
	defer func() {
		switch {
		case err == nil:
			st.hits.Add(1)
		case errors.Is(err, ErrStoreMiss):
			st.misses.Add(1)
		default:
			st.misses.Add(1)
			st.errors.Add(1)
		}
	}()
	data, err := os.ReadFile(st.path(ProblemKey{key}))
	if os.IsNotExist(err) {
		return nil, ErrStoreMiss
	} else if err != nil {
		return nil, fmt.Errorf("parmvn: factor store: %w", err)
	}
	blob, f, err := factorio.Decode(data)
	if err == nil && !bytes.Equal(blob, encodeFactorKey(key)) {
		return nil, ErrStoreMiss
	}
	return f, err
}
