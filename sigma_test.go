package parmvn

import (
	"context"
	"errors"
	"log/slog"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/tile"
)

// TestExplicitSigmaRejectsNonFinite: one NaN or infinite off-diagonal entry
// in an explicit Σ is refused with a *DetectInputError naming its row, under
// every method and through both entry points, before anything is factored or
// cached. (Under TLR the parent commit died in a worker goroutine: the entry
// reached tile.Compress and the Golub–Reinsch SVD indexed out of range.)
func TestExplicitSigmaRejectsNonFinite(t *testing.T) {
	_, _, sigma, mean := detectProblem()
	n := len(mean)
	a, b := make([]float64, n), make([]float64, n)
	for i := range a {
		a[i], b[i] = -1, math.Inf(1)
	}
	const row, col = 17, 90
	for _, m := range []Method{Dense, TLR, MethodAdaptive} {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			bad := append([][]float64(nil), sigma...)
			bad[row] = append([]float64(nil), sigma[row]...)
			bad[row][col] = v
			s := NewSession(Config{Method: m, Workers: 2, TileSize: 36, QMCSize: 100})
			for name, call := range map[string]func() error{
				"DetectRegionCov": func() error { _, err := s.DetectRegionCov(bad, mean, 0, 0.9, 0); return err },
				"MVNProbCov":      func() error { _, err := s.MVNProbCov(bad, a, b); return err },
			} {
				err := call()
				var in *DetectInputError
				if !errors.As(err, &in) || in.What != "covariance" || in.Index != row {
					t.Errorf("%v %s, Σ[%d][%d] = %v: error %v, want DetectInputError{covariance, %d}", m, name, row, col, v, err, row)
				}
			}
			if hits, misses := s.Cache().Stats(); hits != 0 || misses != 0 || s.Cache().Len() != 0 {
				t.Errorf("%v, entry %v: rejected calls touched the factor cache: %d hits, %d misses, %d entries", m, v, hits, misses, s.Cache().Len())
			}
			s.Close()
		}
	}
}

// TestSigmaKey: the explicit-Σ cache key sees every entry, the row order, the
// factoring order and the standardization, and does not see the worker count.
func TestSigmaKey(t *testing.T) {
	_, _, sigma, mean := detectProblem()
	n := len(mean)
	rowsOf := func(m [][]float64) func(int) []float64 { return func(i int) []float64 { return m[i] } }
	order, sd := make([]int, n), make([]float64, n)
	for i := range order {
		order[i], sd[i] = i, math.Sqrt(sigma[i][i])
	}
	with := func(mut func(m [][]float64)) [][]float64 {
		m := append([][]float64(nil), sigma...)
		mut(m)
		return m
	}
	s1 := NewSession(Config{Workers: 1, TileSize: 36})
	defer s1.Close()
	s2 := NewSession(Config{Workers: 2, TileSize: 36})
	defer s2.Close()
	base, err := s1.sigmaKey(rowsOf(sigma), n, order, sd)
	if err != nil {
		t.Fatal(err)
	}
	if k, err := s2.sigmaKey(rowsOf(sigma), n, order, sd); err != nil || k != base {
		t.Errorf("two workers: key %x (%v), one worker %x", k.hash, err, base.hash)
	}
	swapped := append([]int(nil), order...)
	swapped[3], swapped[100] = swapped[100], swapped[3]
	scaled := append([]float64(nil), sd...)
	scaled[n-1] = math.Nextafter(scaled[n-1], 2)
	for name, k := range map[string]func() (factorKey, error){
		"one ulp in the last entry": func() (factorKey, error) {
			return s2.sigmaKey(rowsOf(with(func(m [][]float64) {
				m[n-1] = append([]float64(nil), m[n-1]...)
				m[n-1][n-1] = math.Nextafter(m[n-1][n-1], 2)
			})), n, order, sd)
		},
		"one ulp mid-row, odd index": func() (factorKey, error) {
			return s2.sigmaKey(rowsOf(with(func(m [][]float64) {
				m[40] = append([]float64(nil), m[40]...)
				m[40][77] = math.Nextafter(m[40][77], -1)
			})), n, order, sd)
		},
		"two rows swapped": func() (factorKey, error) {
			return s2.sigmaKey(rowsOf(with(func(m [][]float64) { m[5], m[6] = m[6], m[5] })), n, order, sd)
		},
		"another ordering": func() (factorKey, error) { return s2.sigmaKey(rowsOf(sigma), n, swapped, sd) },
		"another sd":       func() (factorKey, error) { return s2.sigmaKey(rowsOf(sigma), n, order, scaled) },
		"no ordering, no sd": func() (factorKey, error) {
			return s2.sigmaKey(rowsOf(sigma), n, nil, nil)
		},
	} {
		got, err := k()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got == base {
			t.Errorf("%s: key unchanged", name)
		}
	}

	// The key is what the cache is looked up by: a repeated call is a hit.
	a, b := make([]float64, n), make([]float64, n)
	for i := range a {
		a[i], b[i] = -1, math.Inf(1)
	}
	for i := 0; i < 2; i++ {
		if _, err := s2.DetectRegionCov(sigma, mean, 0, 0.9, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := s2.MVNProbCov(sigma, a, b); err != nil {
			t.Fatal(err)
		}
	}
	if hits, misses := s2.Cache().Stats(); hits != 2 || misses != 2 {
		t.Errorf("a detection and a query, each twice: %d hits, %d misses, want 2 and 2", hits, misses)
	}
}

// explicitSigmaHeapCeiling is the checked-in budget for the growth of the Go
// heap during the n = 2048 detection below, over the heap with the caller's Σ
// (8n² = 32 MiB) already on it. The observed peak is 23–24 MiB: the factor's
// tiles (9 MiB, most of them low rank), the pooled assembly and sketch buffers
// and the integration's working set. Gathering Σ into a reordered copy and
// tiling that, as the path did before it streamed, cannot stay under
// 2·8n² = 64 MiB (measured at the parent commit: 81 MiB).
const explicitSigmaHeapCeiling = 32 << 20

// TestExplicitSigmaMemorySmoke: DetectRegionCov reads the caller's Σ in place
// — no gathered copy, no tiled copy — and the cached factor keeps none of it
// reachable. Runs in short mode by design.
func TestExplicitSigmaMemorySmoke(t *testing.T) {
	locs := Grid(64, 32) // n = 2048
	n := len(locs)
	sigma := CovarianceMatrix(locs, KernelSpec{Family: "exponential", Range: 0.1})
	mean := make([]float64, n)
	for i, p := range locs {
		mean[i] = 1.5 - 3*p.X
	}
	s := NewSession(Config{Method: MethodAdaptive, Workers: 2, TileSize: 256, TLRTol: 1e-4, QMCSize: 200})
	defer s.Close()

	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	runtime.GC()
	before := heap()
	var peak atomic.Uint64
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			if h := heap(); h > peak.Load() {
				peak.Store(h)
			}
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	exc, err := s.DetectRegionCov(sigma, mean, 0, 0.9, 0)
	close(stop)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if len(exc.Region) == 0 || len(exc.Region) == n {
		t.Errorf("region %d of %d is degenerate", len(exc.Region), n)
	}

	runtime.GC()
	runtime.GC() // twice: sync.Pool's victim buffers go with the second
	held := heap()
	runtime.KeepAlive(sigma)
	sigma = nil
	runtime.GC()
	released := held - min(held, heap())
	dense := uint64(8 * n * n)
	growth := peak.Load() - min(before, peak.Load())
	t.Logf("Σ %d MiB; heap grew %.1f MiB during the call (ceiling %d MiB); dropping Σ afterwards released %.1f MiB",
		dense>>20, float64(growth)/(1<<20), explicitSigmaHeapCeiling>>20, float64(released)/(1<<20))
	if s.Cache().Len() != 1 {
		t.Fatalf("%d cached factors, want 1", s.Cache().Len())
	}
	if raceEnabled {
		// Shadow memory and sync.Pool's put-dropping under the race detector
		// inflate the heap; the budget is for uninstrumented builds.
		return
	}
	if growth > explicitSigmaHeapCeiling || growth >= dense*3/2 {
		t.Errorf("heap grew %d bytes during the call, ceiling %d (and 1.5·8n² = %d)", growth, explicitSigmaHeapCeiling, dense*3/2)
	}
	if released < dense*9/10 {
		t.Errorf("dropping Σ released %d bytes of its %d: the cached factor keeps the caller's rows reachable", released, dense)
	}
}

// TestExplicitSigmaSubmissionIsWindowed: an explicit Σ is factored under the
// in-flight bound a kernel is, 2·NT² tasks. On 24×24 tiles of 32 rows the
// graph holds ≈ 2 950 tasks, past the bound of 1 152 and its 1 024-task
// floor, and a single worker falls behind submission at once: without the
// window ≈ 2 600 of them are in flight together. The runtime may count one
// task per worker past the bound: the one that has released its slot and not
// yet retired.
func TestExplicitSigmaSubmissionIsWindowed(t *testing.T) {
	const ts, workers = 32, 1
	locs := Grid(32, 24) // n = 768
	n, nt := len(locs), len(locs)/ts
	sigma := CovarianceMatrix(locs, KernelSpec{Range: 0.1})
	a, b := make([]float64, n), make([]float64, n)
	for i := range a {
		a[i], b[i] = -1, math.Inf(1)
	}
	s := NewSession(Config{Workers: workers, TileSize: ts, QMCSize: 100})
	defer s.Close()
	if _, err := s.MVNProbCov(sigma, a, b); err != nil {
		t.Fatal(err)
	}
	st := s.SchedulerStats()
	if bound := 2 * nt * nt; st.Total() <= bound || st.PeakInflight > bound+workers {
		t.Errorf("%d tasks, peak in flight %d: want more tasks than the bound %d and at most %d in flight",
			st.Total(), st.PeakInflight, bound, bound+workers)
	}
}

// recordHandler keeps every record it is handed.
type recordHandler struct {
	mu   sync.Mutex
	recs []slog.Record
}

func (h *recordHandler) Enabled(context.Context, slog.Level) bool { return true }
func (h *recordHandler) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h *recordHandler) WithGroup(string) slog.Handler            { return h }
func (h *recordHandler) Handle(_ context.Context, r slog.Record) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.recs = append(h.recs, r.Clone())
	return nil
}

// TestFactorizationLogLine: a cold build — from a kernel or from an explicit
// Σ — emits one debug record on the default logger carrying the factor's
// facts; a warm call emits nothing.
func TestFactorizationLogLine(t *testing.T) {
	h := &recordHandler{}
	defer slog.SetDefault(slog.Default())
	slog.SetDefault(slog.New(h))

	q := maternBox()
	locs, kernel, a, b := q.locs, q.kernel, q.a, q.b
	sigma := CovarianceMatrix(locs, kernel)
	s := NewSession(Config{Method: MethodAdaptive, Workers: 2, TileSize: 64, TLRTol: 1e-4, QMCSize: 100})
	defer s.Close()
	for i := 0; i < 2; i++ { // the second round is warm
		if _, err := s.MVNProb(locs, kernel, a, b); err != nil {
			t.Fatal(err)
		}
		if _, err := s.MVNProbCov(sigma, a, b); err != nil {
			t.Fatal(err)
		}
	}
	if len(h.recs) != 2 {
		t.Fatalf("%d log records for two cold builds and two warm calls, want 2", len(h.recs))
	}
	for i, source := range []string{"kernel", "sigma"} {
		r := h.recs[i]
		attrs := map[string]slog.Value{}
		r.Attrs(func(a slog.Attr) bool { attrs[a.Key] = a.Value; return true })
		if r.Level != slog.LevelDebug || r.Message != "parmvn: factorization" {
			t.Errorf("%s: record %v %q", source, r.Level, r.Message)
		}
		if attrs["source"].String() != source || attrs["method"].String() != "adaptive" ||
			attrs["n"].Int64() != 1024 || attrs["tile"].Int64() != 64 {
			t.Errorf("%s: attrs %v", source, attrs)
		}
		mix, _ := attrs["mix"].Any().(engine.Mix)
		if mix.Dense64+mix.LowRank != 136 || mix.LowRank == 0 || mix.MaxRank == 0 {
			t.Errorf("%s: tile mix %+v, want 136 tiles, some low rank", source, mix)
		}
		if attrs["factor_bytes"].Int64() <= 0 || attrs["elapsed"].Duration() <= 0 || !attrs["err"].Equal(slog.AnyValue(nil)) {
			t.Errorf("%s: bytes %v elapsed %v err %v", source, attrs["factor_bytes"], attrs["elapsed"], attrs["err"])
		}
		if rej, early := attrs["probes_rejected"].Int64(), attrs["probes_rejected_early"].Int64(); rej < early || (source == "kernel" && early != 0) {
			t.Errorf("%s: %d probes rejected, %d early", source, rej, early)
		}
		// 105 off-band tiles at NT = 16, each probed once against a quarter of
		// the tile side: column 0 accepts, so no probe is skipped.
		if probes, rej := attrs["probes"].Int64(), attrs["probes_rejected"].Int64(); attrs["rank_limit"].Int64() != 16 ||
			probes != 105 || probes-rej != int64(mix.LowRank) || attrs["probes_skipped"].Int64() != 0 {
			t.Errorf("%s: rank_limit %v, %d probes, %d rejected, %v skipped, %d low-rank tiles",
				source, attrs["rank_limit"], probes, rej, attrs["probes_skipped"], mix.LowRank)
		}
	}
}

// TestFactorizationLogLineCountsSkippedProbes: on an explicit Σ with no
// low-rank structure (GᵀG/n + I, G Gaussian) column 0's NT − 2 off-band probes
// all reject, and the record counts every other off-band tile as skipped.
func TestFactorizationLogLineCountsSkippedProbes(t *testing.T) {
	h := &recordHandler{}
	defer slog.SetDefault(slog.Default())
	slog.SetDefault(slog.New(h))

	const n, ts = 144, 24
	rng := rand.New(rand.NewSource(6))
	g := make([][]float64, n)
	for k := range g {
		g[k] = make([]float64, n)
		for i := range g[k] {
			g[k][i] = rng.NormFloat64()
		}
	}
	sigma := make([][]float64, n)
	for i := range sigma {
		sigma[i] = make([]float64, n)
		for j := range sigma[i] {
			for k := range g {
				sigma[i][j] += g[k][i] * g[k][j] / n
			}
		}
		sigma[i][i]++
	}
	a, b := make([]float64, n), make([]float64, n)
	for i := range a {
		a[i], b[i] = -2, 2
	}
	s := NewSession(Config{Method: MethodAdaptive, Workers: 2, TileSize: ts, TLRTol: 1e-4, QMCSize: 100})
	defer s.Close()
	if _, err := s.MVNProbCov(sigma, a, b); err != nil {
		t.Fatal(err)
	}
	if len(h.recs) != 1 {
		t.Fatalf("%d log records for one cold build, want 1", len(h.recs))
	}
	attrs := map[string]slog.Value{}
	h.recs[0].Attrs(func(a slog.Attr) bool { attrs[a.Key] = a.Value; return true })
	const nt = n / ts
	offBand := int64((nt - 1) * (nt - 2) / 2)
	if probes, rej, skipped := attrs["probes"].Int64(), attrs["probes_rejected"].Int64(), attrs["probes_skipped"].Int64(); probes != nt-2 || rej != nt-2 || skipped != offBand-(nt-2) {
		t.Errorf("%d probes, %d rejected, %d skipped: want %d, %d and %d", probes, rej, skipped, nt-2, nt-2, offBand-(nt-2))
	}
	if mix, _ := attrs["mix"].Any().(engine.Mix); mix.LowRank != 0 {
		t.Errorf("tile mix %+v, want no low-rank tile", mix)
	}
}

// TestFootprintIsTilePayload: FactorFootprint.Bytes, and the cold build's
// factor_bytes record, is the payload of the factor's live tiles, each held
// once in its representation, for the dense, TLR and adaptive presets on
// maternBox, whose TLR and adaptive factors hold low-rank tiles, so neither
// is larger than the dense one.
func TestFootprintIsTilePayload(t *testing.T) {
	h := &recordHandler{}
	defer slog.SetDefault(slog.Default())
	slog.SetDefault(slog.New(h))

	q := maternBox()
	footprint := map[Method]FactorFootprint{}
	for _, m := range []Method{Dense, TLR, MethodAdaptive} {
		h.recs = nil
		s := NewSession(Config{Method: m, Workers: 2, TileSize: 64, TLRTol: 1e-4, QMCSize: 100})
		defer s.Close()
		fp, err := s.FactorFootprint(q.locs, q.kernel)
		if err != nil {
			t.Fatal(err)
		}
		footprint[m] = fp
		f, err := s.factor(problem{locs: q.locs, kernel: q.kernel})
		if err != nil {
			t.Fatal(err)
		}
		var live int64
		for i := 0; i < f.NT(); i++ {
			for j := 0; j <= i; j++ {
				switch tt := f.G.At(i, j).(type) {
				case *tile.DenseF64:
					live += 8 * int64(len(tt.D.Data))
				case *tile.PackedF64:
					live += 8 * int64(len(tt.P.Data))
				case *tile.LowRank:
					if tt.Rank() > 0 {
						live += 8 * int64(len(tt.U.Data)+len(tt.V.Data))
					}
				default:
					t.Fatalf("%v: tile (%d,%d) is %T", m, i, j, tt)
				}
			}
		}
		if fp.Bytes != live {
			t.Errorf("%v: footprint %d bytes, live tiles %d", m, fp.Bytes, live)
		}
		if len(h.recs) != 1 {
			t.Fatalf("%v: %d log records for one cold build, want 1", m, len(h.recs))
		}
		var logged int64
		h.recs[0].Attrs(func(a slog.Attr) bool {
			if a.Key == "factor_bytes" {
				logged = a.Value.Int64()
			}
			return true
		})
		if logged != fp.Bytes {
			t.Errorf("%v: record factor_bytes %d, footprint %d", m, logged, fp.Bytes)
		}
	}
	for _, m := range []Method{TLR, MethodAdaptive} {
		if fp := footprint[m]; fp.LowRank == 0 || fp.Bytes > footprint[Dense].Bytes {
			t.Errorf("%v factor %+v: want low-rank tiles and no more bytes than dense's %d", m, fp, footprint[Dense].Bytes)
		}
	}
}
