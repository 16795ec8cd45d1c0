package parmvn

import (
	"errors"
	"fmt"
	"math"
	"os"
	"testing"

	"repro/internal/linalg"
)

// The explicit-Σ Dense and TLR paths used to run through their own factor
// types (a tiled dense matrix and a TLR matrix, each behind its own adapter
// to the sweep) and now build an engine.Grid like every other path.
// parentBits holds what a named earlier commit returned for the cases of
// sigmaBitsCases, bit for bit, on a host with the AVX2 kernels; the same
// table also covers the kernel-built paths through the streaming assemblers.

// bitsProblem is an n = nx·ny Matérn field with a nugget (smooth enough that
// the adaptive policy mixes representations) and a box with finite, half-open
// and free rows.
func bitsProblem(nx, ny int) (locs []Point, kernel KernelSpec, a, b []float64) {
	locs = Grid(nx, ny)
	kernel = KernelSpec{Family: "matern", Range: 0.2, Nu: 2.5, Nugget: 0.05}
	n := len(locs)
	a, b = make([]float64, n), make([]float64, n)
	for i := range a {
		a[i] = -1.2 - 0.3*math.Sin(float64(i))
		b[i] = 1.5 + 0.2*math.Cos(float64(i))
		switch i % 7 {
		case 3:
			b[i] = math.Inf(1)
		case 5:
			a[i], b[i] = math.Inf(-1), math.Inf(1)
		}
	}
	return locs, kernel, a, b
}

func bitsConfig(m Method, ts, reps int) Config {
	return Config{
		Method: m, Workers: 2, TileSize: ts, QMCSize: 300, Replicates: reps,
		TLRTol: 1e-4,
	}
}

// sigmaBitsCases evaluates every pinned case and returns name → float bits.
func sigmaBitsCases(t *testing.T) map[string][]uint64 {
	t.Helper()
	out := map[string][]uint64{}
	bitsOf := func(r Result) []uint64 {
		return []uint64{math.Float64bits(r.Prob), math.Float64bits(r.StdErr)}
	}
	for _, dims := range [][2]int{{9, 5}, {12, 12}} { // n = 45 (ragged last tile), 144
		locs, kernel, a, b := bitsProblem(dims[0], dims[1])
		sigma := CovarianceMatrix(locs, kernel)
		for _, m := range []Method{Dense, TLR, MethodAdaptive} {
			for _, ts := range []int{8, 24} {
				for _, reps := range []int{1, 3} {
					s := NewSession(bitsConfig(m, ts, reps))
					res, err := s.MVNProbCov(sigma, a, b)
					s.Close()
					if err != nil {
						t.Fatalf("%v n=%d ts=%d reps=%d: %v", m, len(locs), ts, reps, err)
					}
					out[fmt.Sprintf("cov/%v/n%d/ts%d/r%d", m, len(locs), ts, reps)] = bitsOf(res)
				}
			}
		}
	}

	// Kernel-built factors (streaming assembly) and one Student-t query.
	locs, kernel, a, b := bitsProblem(12, 12)
	for _, m := range []Method{TLR, MethodAdaptive} {
		s := NewSession(bitsConfig(m, 24, 3))
		res, err := s.MVNProb(locs, kernel, a, b)
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("kernel/%v/mvn", m)] = bitsOf(res)
		res, err = s.MVTProb(locs, kernel, 5, a, b)
		s.Close()
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("kernel/%v/mvt5", m)] = bitsOf(res)
	}

	// Kernel-built factors of the families whose entries the run evaluator
	// must not move: exponential, powered exponential, general-ν Matérn.
	for name, kernel := range map[string]KernelSpec{
		"exponential": {Family: "exponential", Range: 0.2, Nugget: 0.05},
		"powexp1.4":   {Family: "powexp", Range: 0.2, Nu: 1.4, Nugget: 0.05},
		"matern1.3":   {Family: "matern", Range: 0.2, Nu: 1.3, Nugget: 0.05},
	} {
		for _, m := range []Method{Dense, TLR} {
			s := NewSession(bitsConfig(m, 24, 3))
			res, err := s.MVNProb(locs, kernel, a, b)
			s.Close()
			if err != nil {
				t.Fatal(err)
			}
			out[fmt.Sprintf("kernel/%v/%s/mvn", m, name)] = bitsOf(res)
		}
	}

	// DetectRegionCov's confidence function under TLR: a 128-bit content hash
	// of F's float bits, then the region size.
	_, _, sigma, mean := detectProblem()
	s := NewSession(bitsConfig(TLR, 24, 1))
	ex, err := s.DetectRegionCov(sigma, mean, 0, 0.9, 0)
	s.Close()
	if err != nil {
		t.Fatal(err)
	}
	h := newFNV128a()
	for _, v := range ex.F {
		h.writeFloat(v)
	}
	sum := h.sum()
	out["detect/tlr/n144/F"] = []uint64{sum[0], sum[1], uint64(len(ex.Region))}
	return out
}

// TestExplicitSigmaMatchesParentBits asserts every case against the bits the
// parent commit produced.
func TestExplicitSigmaMatchesParentBits(t *testing.T) {
	if !linalg.HasVectorKernels() {
		t.Skip("parentBits were recorded with the AVX2 kernels; the portable kernels round differently")
	}
	got := sigmaBitsCases(t)
	if len(got) != len(parentBits) {
		t.Errorf("%d cases evaluated, %d recorded", len(got), len(parentBits))
	}
	for name, want := range parentBits {
		g := got[name]
		if len(g) != len(want) {
			t.Errorf("%s: got %x, parent %x", name, g, want)
			continue
		}
		for i := range want {
			if g[i] != want[i] {
				t.Errorf("%s[%d]: got %#016x, parent %#016x", name, i, g[i], want[i])
			}
		}
	}
}

// parentBits: recorded by sigmaBitsCases (Prob, StdErr float bits per case;
// the detect row is the two hash words and the region size). The detect row
// and the kernel/*/{exponential,powexp1.4,matern1.3} rows are the parent's
// (0eb4a2d) — the exponential-kernel detection since e8c79e4 — and pin
// everything the run evaluator must not move: math.Hypot distances, the
// exponential, powered-exponential and general-ν Matérn expressions, and the
// run-based ACA. The 28 rows of the Matérn-5/2 bitsProblem were re-recorded
// at the commit that evaluates half-integer Matérn kernels in closed form
// (polynomial × one exp in place of Pow·BesselK; entries within 1e-13
// relative, measured worst 7.6e-16 on the n = 4096 benchmark grid): every
// probability moved by at most 7.4e-15 relative, old → new listed in
// CHANGES.md (PR 17).
//
// Every row with a low-rank tile that receives a Schur update — the 8 cov/tlr
// and cov/adaptive rows at n = 144, the 2 cov/tlr rows at n = 45 with ts = 8,
// the 7 kernel/tlr and kernel/adaptive rows and the detect row, 18 in all —
// was re-recorded at the
// commit that compresses such a tile once, after its updates have been
// accumulated densely, instead of rounding after each of them (PR 18): a
// different, no less accurate factor at the same TLRTol = 1e-4. The
// probabilities moved by 5e-9 to 8.8e-4 relative; CHANGES.md lists each old →
// new with its distance to the dense row before and after. The 8 cov/dense and
// 3 kernel/dense rows, and the 6 n = 45 rows whose low-rank tiles all sit in
// column 0 or do not exist, are untouched.
//
// The 4 cov/adaptive rows at n = 144 and the 2 kernel/adaptive rows (10 values)
// were re-recorded at the commit that moves the policy's default rank limit
// from half to a quarter of the tile side (PR 24): the low-rank tiles those
// rows held (ranks up to 4 of 8, up to 11 of 24) no longer pass and are dense
// float32 or float64 — a smaller factor, 88 704 → 82 944 bytes at ts = 24 —
// and every row landed within 9e-7 relative of its dense twin (from up to
// 5.8e-4; old → new per value in CHANGES.md). That is the only cause: the same
// commit's blocked float32 panel solve is one diagonal block at a tile side
// ≤ 32, the old arithmetic exactly, and at a default of 0.5 the old bits
// return. The n = 45 adaptive rows have no off-band tile.
//
// The 14 rows with a TLR factor (24 values) were re-recorded at the commit
// that builds TLR through the one tile policy and stops truncating: a tile is
// low rank only if its probe meets TLRTol within half the tile side, and a
// finished tile that misses it there stays dense. Every factor is at least as
// accurate (‖LLᵀ − Σ‖/‖Σ‖ at n = 144: 9.8e-5 → 3.4e-5 at ts = 24, 8.3e-4 →
// 2.5e-5 at ts = 8); old → new, with the dense twin, per row in CHANGES.md.
// The dense and adaptive rows are untouched.
//
// The 8 adaptive rows that moved (13 values) were re-recorded at the commit
// that removes Config.AdaptiveF32Norm, the one cause: bitsConfig set it to
// 0.5, and the adaptive preset's 0.1 keeps more tiles in float64. Each row
// moved toward its dense twin, to within 2e-9 relative (from up to 4.7e-8);
// the ts = 24 rows and both kernel rows now equal it.
//
// The 4 adaptive rows at ts = 8 (6 values) were re-recorded at the commit
// that deletes the float32 tile, the one cause: the off-band tiles those rows
// held in float32 are dense float64 now, and no tile of theirs compresses, so
// each row equals its cov/dense twin bit for bit.
var parentBits = map[string][]uint64{
	"cov/adaptive/n144/ts24/r1":    {0x3f96b395e9bb7254, 0x0000000000000000},
	"cov/adaptive/n144/ts24/r3":    {0x3f96b64758886ff4, 0x3f5993e17d1a43ec},
	"cov/adaptive/n144/ts8/r1":     {0x3f96b395e9bb725c, 0x0000000000000000},
	"cov/adaptive/n144/ts8/r3":     {0x3f96b64758886ffd, 0x3f5993e17d1a43ff},
	"cov/adaptive/n45/ts24/r1":     {0x3faf31c131fce887, 0x0000000000000000},
	"cov/adaptive/n45/ts24/r3":     {0x3fae2fe3aad1ffb9, 0x3f5c8f0f498f97e4},
	"cov/adaptive/n45/ts8/r1":      {0x3faf31c131fce87e, 0x0000000000000000},
	"cov/adaptive/n45/ts8/r3":      {0x3fae2fe3aad1ffb1, 0x3f5c8f0f498f97f1},
	"cov/dense/n144/ts24/r1":       {0x3f96b395e9bb7254, 0x0000000000000000},
	"cov/dense/n144/ts24/r3":       {0x3f96b64758886ff4, 0x3f5993e17d1a43ec},
	"cov/dense/n144/ts8/r1":        {0x3f96b395e9bb725c, 0x0000000000000000},
	"cov/dense/n144/ts8/r3":        {0x3f96b64758886ffd, 0x3f5993e17d1a43ff},
	"cov/dense/n45/ts24/r1":        {0x3faf31c131fce887, 0x0000000000000000},
	"cov/dense/n45/ts24/r3":        {0x3fae2fe3aad1ffb9, 0x3f5c8f0f498f97e4},
	"cov/dense/n45/ts8/r1":         {0x3faf31c131fce87e, 0x0000000000000000},
	"cov/dense/n45/ts8/r3":         {0x3fae2fe3aad1ffb1, 0x3f5c8f0f498f97f1},
	"cov/tlr/n144/ts24/r1":         {0x3f96b50b4102daff, 0x0000000000000000},
	"cov/tlr/n144/ts24/r3":         {0x3f96b7fc75c0ed88, 0x3f599015182c85c7},
	"cov/tlr/n144/ts8/r1":          {0x3f96b34f662e36de, 0x0000000000000000},
	"cov/tlr/n144/ts8/r3":          {0x3f96b5ddb7a13169, 0x3f59949c69ab750b},
	"cov/tlr/n45/ts24/r1":          {0x3faf31c131fce887, 0x0000000000000000},
	"cov/tlr/n45/ts24/r3":          {0x3fae2fe3aad1ffb9, 0x3f5c8f0f498f97e4},
	"cov/tlr/n45/ts8/r1":           {0x3faf31c131fce87e, 0x0000000000000000},
	"cov/tlr/n45/ts8/r3":           {0x3fae2fe3aad1ffb1, 0x3f5c8f0f498f97f1},
	"detect/tlr/n144/F":            {0xc079b506169dd009, 0x1036ba415eff2fa1, 0x0000000000000006},
	"kernel/adaptive/mvn":          {0x3f96b64758886ff4, 0x3f5993e17d1a43ec},
	"kernel/adaptive/mvt5":         {0x3fadc4b3287d9147, 0x3f6e645c1b862aa1},
	"kernel/dense/exponential/mvn": {0x3ea01fefec90ec60, 0x3e4c8e6a8941e82a},
	"kernel/dense/matern1.3/mvn":   {0x3f5531608cda6967, 0x3f085834f67fe9ba},
	"kernel/dense/powexp1.4/mvn":   {0x3ec252fbe5cc76d8, 0x3e8717bc6caa1430},
	"kernel/tlr/exponential/mvn":   {0x3ea01fefec90ec60, 0x3e4c8e6a8941e82a},
	"kernel/tlr/matern1.3/mvn":     {0x3f55315d01ebdd2d, 0x3f0859173a41219a},
	"kernel/tlr/mvn":               {0x3f96b63cb3ef4765, 0x3f59928b98d37a88},
	"kernel/tlr/mvt5":              {0x3fadc4c39e15ffad, 0x3f6e6444a3371ef1},
	"kernel/tlr/powexp1.4/mvn":     {0x3ec252fbe5cc76d8, 0x3e8717bc6caa1430},
}

// TestStoreRefusesParentKeyBlob: a store file the parent of the key-blob
// version bump wrote (the fixture internal/factorio also decodes) carries a
// version-1 key, under which a TLR factor may hold tiles truncated past
// TLRTol. Put where this commit's problem key looks, it is refused — a store
// miss for LoadFactor — and the session rebuilds the factor, answering as a
// session that never saw the file.
func TestStoreRefusesParentKeyBlob(t *testing.T) {
	file, err := os.ReadFile("internal/factorio/testdata/parent_tlr_n16_ts8.fac")
	if err != nil {
		t.Fatal(err)
	}
	locs, kernel := Grid(4, 4), KernelSpec{Family: "exponential", Range: 0.3}
	cfg := Config{Method: TLR, Workers: 2, TileSize: 8, QMCSize: 300, TLRTol: 1e-4}
	s := NewSession(cfg)
	defer s.Close()
	pk, err := s.ProblemKey(locs, kernel)
	if err != nil {
		t.Fatal(err)
	}
	st, err := OpenFactorStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(st.path(pk), file, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadFactor(st, pk); !errors.Is(err, ErrStoreMiss) {
		t.Fatalf("LoadFactor of a version-1 key: %v, want ErrStoreMiss", err)
	}
	a, b := make([]float64, 16), make([]float64, 16)
	for i := range a {
		a[i], b[i] = -1, math.Inf(1)
	}
	res, err := s.MVNProb(locs, kernel, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if _, misses := s.Cache().Stats(); misses != 1 {
		t.Errorf("%d factorizations after refusing the stored factor, want 1", misses)
	}
	fresh := NewSession(cfg)
	defer fresh.Close()
	want, err := fresh.MVNProb(locs, kernel, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res != want {
		t.Errorf("answer %+v after refusing the store file, a fresh session's %+v", res, want)
	}
}
