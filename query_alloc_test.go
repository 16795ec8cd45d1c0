package parmvn

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime/debug"
	"strings"
	"testing"
	"time"
)

// The zero-allocation gate. A warm query — its factor cached, the pools
// settled — allocates nothing on the heap from the facade call down to the
// micro-kernels: content hash, cache hit, validation, the pooled wave state,
// the sweep over every tile representation, the special functions. The warmRows table measures exactly that, with
// testing.AllocsPerRun, one row per warm path; it is the one allocation gate,
// so it sees the compiler's escape decisions (a stack array that moves to the
// heap fails here) and every function the warm paths reach. Four tests run
// it, each its own share of the rows (warmSuite): TestWarmQueryZeroAllocs,
// TestWarmQueryZeroAllocsEarlyStop and TestWarmMVTQueryZeroAllocs. The rows
// that
// start below the facade (mvn.PMVNPrefix, cov.Fill) sit in their packages'
// ZeroAllocs tests. `go test -run ZeroAllocs ./...` runs them all; CI runs it
// on the vector kernels and again with REPRO_NOASM=1, which routes the same
// rows through the scalar fallbacks.

// warmBox is the problem a warm row queries.
type warmBox struct {
	locs   []Point
	kernel KernelSpec
	a, b   []float64
}

// mixedBox is bitsProblem's n = 144 Matérn-5/2 field with a nugget, with
// finite, half-open and free rows in the box; at tile 24 and TLRTol 1e-4 the
// TLR preset stores 3 of its 15 off-diagonal tiles low rank.
func mixedBox() warmBox {
	locs, kernel, a, b := bitsProblem(12, 12)
	return warmBox{locs, kernel, a, b}
}

// maternBox is a Matérn-3/2 field of range 0.1 on the n = 1024 grid, a box
// of half-open rows with every seventh free: at tile 64 and TLRTol 1e-4 the
// adaptive preset stores its 136 tiles as maternMix says.
func maternBox() warmBox {
	locs := Grid(32, 32)
	a, b := make([]float64, len(locs)), make([]float64, len(locs))
	for i := range a {
		a[i], b[i] = -2, math.Inf(1)
		if i%7 == 5 {
			a[i] = math.Inf(-1)
		}
	}
	return warmBox{locs, KernelSpec{Family: "matern", Range: 0.1, Nu: 1.5}, a, b}
}

// maternMix is maternBox's adaptive factor at tile 64, TLRTol 1e-4: both
// representations, the low-rank tiles both in column 0 and past it.
var maternMix = [2]int{121, 15} // Dense64, LowRank

// mixIs checks a footprint's exact tile counts.
func mixIs(fp FactorFootprint, want [2]int) error {
	if got := [2]int{fp.Dense64, fp.LowRank}; got != want {
		return fmt.Errorf("tiles %v (Dense64, LowRank), want %v: %+v", got, want, fp)
	}
	return nil
}

// largeBox is wide enough at tile 64 that a low-rank apply's second product
// (lanes × tile × rank) passes linalg's naive-GEMM cutoff.
func largeBox() warmBox {
	locs := Grid(16, 16)
	a, b := make([]float64, len(locs)), make([]float64, len(locs))
	for i := range a {
		a[i], b[i] = -1.5, math.Inf(1)
	}
	return warmBox{locs, KernelSpec{Family: "exponential", Range: 0.2}, a, b}
}

// deadBox kills most lanes at its second row and few afterwards: the field
// is almost perfectly correlated, the first row is free and every later one
// asks y ≥ 1, so only chains that drew y₀ near or above 1 survive it. The
// rest of the sweep runs the sparse arm (chainStep over the survivors).
func deadBox() warmBox {
	locs := Grid(6, 6)
	a, b := make([]float64, len(locs)), make([]float64, len(locs))
	for i := range a {
		a[i], b[i] = 1, math.Inf(1)
	}
	a[0] = math.Inf(-1)
	return warmBox{locs, KernelSpec{Family: "exponential", Range: 1000}, a, b}
}

const warmNu = 5

// warmBudget makes a query budgeted: several waves and the stop test, under
// a deadline a second from the call.
func warmBudget() QueryOpts {
	return QueryOpts{MaxRelErr: 1e-2, Deadline: time.Now().Add(time.Second)}
}

// warmCalls are the four allocation-free facade entry points.
var warmCalls = []struct {
	name string
	call func(s *Session, q warmBox) (Result, error)
}{
	{"MVNProb", func(s *Session, q warmBox) (Result, error) { return s.MVNProb(q.locs, q.kernel, q.a, q.b) }},
	{"MVNProbOpts", func(s *Session, q warmBox) (Result, error) {
		return s.MVNProbOpts(q.locs, q.kernel, q.a, q.b, warmBudget())
	}},
	{"MVTProb", func(s *Session, q warmBox) (Result, error) { return s.MVTProb(q.locs, q.kernel, warmNu, q.a, q.b) }},
	{"MVTProbOpts", func(s *Session, q warmBox) (Result, error) {
		return s.MVTProbOpts(q.locs, q.kernel, warmNu, q.a, q.b, warmBudget())
	}},
}

// warmRow is one measured path: a session configuration, a box, an entry
// point, and the allocations one warm call must perform. layout, when set,
// checks the cached factor holds the representations the row is named for,
// so a drifting default cannot quietly empty a row.
type warmRow struct {
	name   string
	entry  string // the facade entry point measured (a warmCalls name)
	cfg    Config
	box    warmBox
	call   func(s *Session, q warmBox) (Result, error)
	want   float64
	layout func(FactorFootprint) error
	check  func(Result) error
}

func warmRows() []warmRow {
	base := Config{Workers: 1, TileSize: 24, QMCSize: 200, TLRTol: 1e-4}
	layouts := []struct {
		name   string
		method Method
		tile   int
		box    warmBox
		layout func(FactorFootprint) error
	}{
		{"dense", Dense, 24, mixedBox(), nil},
		{"tlr", TLR, 24, mixedBox(), func(fp FactorFootprint) error { return mixIs(fp, [2]int{18, 3}) }},
		{"adaptive", MethodAdaptive, 64, maternBox(), func(fp FactorFootprint) error { return mixIs(fp, maternMix) }},
	}
	var rows []warmRow
	for _, l := range layouts {
		cfg := base
		cfg.Method, cfg.TileSize = l.method, l.tile
		for _, c := range warmCalls {
			rows = append(rows, warmRow{
				name: l.name + "/f64/" + c.name, entry: c.name,
				cfg: cfg, box: l.box, call: c.call, layout: l.layout,
			})
		}
	}

	// A replicated fixed-N query draws its replicate shifts from a math/rand
	// source that waveState.open allocates per query: the one allocation a
	// warm query still makes. ROADMAP item 1(A) moves every replicate onto
	// the seeded shift recurrence, which takes this row to 0.
	replicated := base
	replicated.Replicates = 4
	rows = append(rows, warmRow{
		name: "dense/f64/MVNProb/replicated", entry: warmCalls[0].name, cfg: replicated,
		box: mixedBox(), call: warmCalls[0].call, want: 1,
	})

	large := base
	large.Method, large.TileSize, large.TLRTol = TLR, 64, 1e-6
	rows = append(rows, warmRow{
		name: "tlr-ts64/f32=false/MVNProb", entry: warmCalls[0].name,
		cfg: large, box: largeBox(), call: warmCalls[0].call,
		layout: func(fp FactorFootprint) error {
			// 64 lanes × 64 rows × rank must exceed the 8192-flop threshold.
			if fp.MaxRank < 3 {
				return fmt.Errorf("max rank %d: the low-rank products stay below the blocked kernel", fp.MaxRank)
			}
			return nil
		},
	})

	// What the server runs per warm request before and around the query.
	rows = append(rows, warmRow{
		name: "dense/f64/serve-checks+MVNProbOpts", entry: warmCalls[1].name, cfg: base,
		box: mixedBox(),
		call: func(s *Session, q warmBox) (Result, error) {
			if err := q.kernel.Validate(); err != nil {
				return Result{}, err
			}
			if err := ValidateQuery(len(q.locs), q.a, q.b); err != nil {
				return Result{}, err
			}
			if EmptyQuery(q.a, q.b) {
				return Result{}, fmt.Errorf("box is empty")
			}
			return s.MVNProbOpts(q.locs, q.kernel, q.a, q.b, warmBudget())
		},
	})

	for _, c := range warmCalls[:3] {
		rows = append(rows, warmRow{
			name: "dense/f64/" + c.name + "/mostly-dead", entry: c.name, cfg: base, box: deadBox(),
			call: c.call,
			check: func(r Result) error {
				if !(r.Prob > 0 && r.Prob < 0.5) {
					return fmt.Errorf("prob %v: the box no longer kills most lanes but not all", r.Prob)
				}
				return nil
			},
		})
	}
	return rows
}

// warmSuite names the test that runs a row; every row lands in exactly one.
// The Student-t entry points go to TestWarmMVTQueryZeroAllocs, the budgeted
// Gaussian rows to TestWarmQueryZeroAllocsEarlyStop and the fixed-N ones to
// TestWarmQueryZeroAllocs.
func warmSuite(row warmRow) string {
	switch {
	case strings.HasPrefix(row.entry, "MVT"):
		return "TestWarmMVTQueryZeroAllocs"
	case row.entry == "MVNProbOpts":
		return "TestWarmQueryZeroAllocsEarlyStop"
	default:
		return "TestWarmQueryZeroAllocs"
	}
}

func TestWarmQueryZeroAllocs(t *testing.T)          { runWarmRows(t) }
func TestWarmQueryZeroAllocsEarlyStop(t *testing.T) { runWarmRows(t) }
func TestWarmMVTQueryZeroAllocs(t *testing.T)       { runWarmRows(t) }

// runWarmRows runs the calling test's share of the warm rows, each on its own
// session (one worker, so the sweep runs inline) after two settling calls —
// the first factorizes — with the collector paused so sync.Pool contents
// survive the measurement. A row must read exactly its count: more is a
// regression, fewer means the row's comment is stale.
func runWarmRows(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under the race detector")
	}
	ran := 0
	for _, row := range warmRows() {
		if warmSuite(row) != t.Name() {
			continue
		}
		ran++
		t.Run(row.name, func(t *testing.T) {
			s := NewSession(row.cfg)
			defer s.Close()
			var res Result
			var err error
			warm := func() {
				if res, err = row.call(s, row.box); err != nil {
					t.Fatal(err)
				}
			}
			warm()
			warm()
			if row.layout != nil {
				fp, err := s.FactorFootprint(row.box.locs, row.box.kernel)
				if err != nil {
					t.Fatal(err)
				}
				if err := row.layout(fp); err != nil {
					t.Fatal(err)
				}
			}
			if row.check != nil {
				if err := row.check(res); err != nil {
					t.Fatal(err)
				}
			}
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			if got := testing.AllocsPerRun(20, warm); got != row.want {
				t.Errorf("warm call allocated %.2f times per query, want %v", got, row.want)
			}
		})
	}
	if ran == 0 {
		t.Fatalf("no warm row belongs to %s", t.Name())
	}
}

// TestFNV128aMatchesStdlib pins the inline allocation-free FNV-1a/128
// implementation the cache keys use against hash/fnv byte for byte.
func TestFNV128aMatchesStdlib(t *testing.T) {
	vals := []float64{0, 1, -1, math.Pi, 1e300, -1e-300, math.Inf(1), 0.5}
	ref := fnv.New128a()
	var buf [8]byte
	h := newFNV128a()
	for _, v := range vals {
		u := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			buf[i] = byte(u >> (8 * i))
		}
		ref.Write(buf[:])
		h.writeFloat(v)
	}
	var want [2]uint64
	for i, c := range ref.Sum(nil) {
		want[i/8] = want[i/8]<<8 | uint64(c)
	}
	if got := h.sum(); got != want {
		t.Errorf("fnv128a = %x, stdlib %x", got, want)
	}
}
