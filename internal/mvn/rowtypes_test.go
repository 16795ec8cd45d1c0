package mvn

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/cov"
	"repro/internal/geo"
	"repro/internal/linalg"
	"repro/internal/taskrt"
)

// rowTypeBoxes are the two boxes of TestRowTypesMatchParentBits over n rows.
// "mixed" cycles lower-only, upper-only, two-sided and free rows with an
// irregular stride, so every tile of 16 holds all four kinds next to each
// other. "dying" is the same box with three limits pushed far enough into the
// tail of a smooth field (pivots ≈ 0.07, so a shifted limit moves by ≈ 14 per
// unit of conditioning sum) that the step's every fix-up runs: recorded at
// N = 256 it clamps ≈ 480 tail draws, kills ≈ 600 lane-rows through the
// running product and sends 180 of 256 block-rows down the sparse arm — and
// under REPRO_NOASM, where erfc really underflows to 0, it meets empty
// intervals as well. Its probability is ≈ 4e-99: a pin, not an estimate.
func rowTypeBoxes(n int) map[string][2][]float64 {
	mixed := [2][]float64{make([]float64, n), make([]float64, n)}
	for i := 0; i < n; i++ {
		lo := -1.1 - 0.4*math.Sin(float64(3*i))
		hi := 1.3 + 0.3*math.Cos(float64(5*i))
		switch (i + i/5) % 4 {
		case 0:
			hi = math.Inf(1)
		case 1:
			lo = math.Inf(-1)
		case 3:
			lo, hi = math.Inf(-1), math.Inf(1)
		}
		mixed[0][i], mixed[1][i] = lo, hi
	}
	dying := [2][]float64{append([]float64(nil), mixed[0]...), append([]float64(nil), mixed[1]...)}
	dying[0][5], dying[1][5] = math.Inf(-1), -1.5
	dying[0][38], dying[1][38] = 1.5, math.Inf(1)
	dying[0][75], dying[1][75] = 1.7, 1.75
	return map[string][2][]float64{"mixed": mixed, "dying": dying}
}

// rowTypeCases evaluates every pinned case: name → float bits (Prob, StdErr,
// and in the integrator's rows Samples and Converged; for a prefix case a hash
// of every Prob and StdErr, then the last Prob).
func rowTypeCases(t *testing.T) map[string][]uint64 {
	t.Helper()
	const n, ts = 80, 16
	sigma := cov.Matrix(geo.RegularGrid(10, 8), &cov.Nugget{Kernel: cov.NewMatern(1, 0.4, 2.5), Tau2: 0.002})
	rt := taskrt.New(2)
	defer rt.Shutdown()
	factors := map[string]*Factor{
		"dense": denseFactorOn(t, rt, sigma, ts),
		"tlr":   tlrFactorOn(t, rt, sigma, ts, 1e-5),
	}
	out := map[string][]uint64{}
	for fname, f := range factors {
		for bname, box := range rowTypeBoxes(n) {
			a, b := box[0], box[1]
			// N = 256 in blocks of 64: every lane vector a multiple of 4.
			// N = 203 in blocks of 50: ragged vectors (48 + 2) and a last block
			// of 3 lanes, below the vector kernels' minimum length.
			for _, shape := range [][2]int{{256, 64}, {203, 50}} {
				for _, f32 := range []bool{false, true} {
					opt := Options{N: shape[0], SampleTile: shape[1], Replicates: 2, SweepF32: f32}
					name := fmt.Sprintf("%s/%s/N%d/f32=%v", fname, bname, shape[0], f32)
					r := PMVN(rt, f, a, b, opt)
					out[name+"/mvn"] = []uint64{math.Float64bits(r.Prob), math.Float64bits(r.StdErr)}
					r = PMVT(rt, f, a, b, 7, opt)
					out[name+"/mvt7"] = []uint64{math.Float64bits(r.Prob), math.Float64bits(r.StdErr)}
					out[name+"/prefix"] = prefixBits(PMVNPrefix(rt, f, a, b, opt))
				}
			}
		}
	}
	// The integrator's own rows, recorded at 1226c44 — the commit before the
	// three integrators became one loop. Fixed N: 203 samples in blocks of 50
	// (a ragged last block) over 1, 3 and 5 replicates. Budgeted: a total of
	// 1999 samples, a target PMVN meets 2 to 4 waves in and PMVT late or never
	// (5e-2; 1e-2 is out of this box's reach at 2000 samples and would pin no
	// stopping point) and one nothing meets (1e-9), the default replicate count
	// (0 → 4) and 3. Every case runs inline and as tasks on the 2-worker
	// runtime and must agree with itself before it is compared with the parent.
	box := rowTypeBoxes(n)["mixed"]
	a, b := box[0], box[1]
	for fname, f := range factors {
		for _, f32 := range []bool{false, true} {
			for _, reps := range []int{1, 3, 5} {
				name := fmt.Sprintf("%s/fixed/R%d/f32=%v", fname, reps, f32)
				integratorBits(t, out, name, rt, f, a, b, Options{N: 203, SampleTile: 50, Replicates: reps, SweepF32: f32})
			}
			for _, target := range []float64{5e-2, 1e-9} {
				for _, reps := range []int{0, 3} {
					name := fmt.Sprintf("%s/budget%g/R%d/f32=%v", fname, target, reps, f32)
					integratorBits(t, out, name, rt, f, a, b, Options{N: 1999, SampleTile: 50, Replicates: reps, MaxRelErr: target, SweepF32: f32})
				}
			}
		}
	}
	return out
}

// integratorBits evaluates one integrator case of rowTypeCases, inline and as
// tasks: Prob, StdErr, Samples and Converged of PMVN and PMVT (ν = 7), and for
// a fixed-N case PMVNPrefix hashed like the row-step cases.
func integratorBits(t *testing.T, out map[string][]uint64, name string, rt *taskrt.Runtime, f *Factor, a, b []float64, opt Options) {
	t.Helper()
	resultBits := func(r Result) []uint64 {
		conv := uint64(0)
		if r.Converged {
			conv = 1
		}
		return []uint64{math.Float64bits(r.Prob), math.Float64bits(r.StdErr), uint64(r.Samples), conv}
	}
	eval := func(inline bool) map[string][]uint64 {
		opt.Inline = inline
		m := map[string][]uint64{
			"/mvn":  resultBits(PMVN(rt, f, a, b, opt)),
			"/mvt7": resultBits(PMVT(rt, f, a, b, 7, opt)),
		}
		if opt.MaxRelErr == 0 {
			m["/prefix"] = prefixBits(PMVNPrefix(rt, f, a, b, opt))
		}
		return m
	}
	tasks := eval(false)
	for kind, in := range eval(true) {
		if !slices.Equal(in, tasks[kind]) {
			t.Errorf("%s%s: inline %x != tasks %x", name, kind, in, tasks[kind])
		}
		out[name+kind] = in
	}
}

// prefixBits is a prefix case's row: a hash of every Prob and StdErr, then the
// last Prob.
func prefixBits(pre Prefix) []uint64 {
	h := fnv.New64a()
	for _, vs := range [][]float64{pre.Prob, pre.StdErr} {
		for _, v := range vs {
			h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
		}
	}
	return []uint64{h.Sum64(), math.Float64bits(pre.Prob[len(pre.Prob)-1])}
}

// TestRowTypesMatchParentBits pins the diagonal kernel's row step — the
// shifted limits, the interval probability, the conditioning value and every
// fix-up — against what the commit before the row-typed step (128bec9)
// returned, bit for bit, on a factor small enough that every row kind, both
// arms and every lane-vector shape occur: rowBitsVec with the vector kernels,
// rowBitsGo under REPRO_NOASM=1. The fixed/ and budget/ rows pin the
// integration loop around that step the same way, against 1226c44 (see
// rowTypeCases). A failure prints every got/parent pair.
func TestRowTypesMatchParentBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("both tables were recorded on amd64 (the portable kernels contract differently elsewhere)")
	}
	got := rowTypeCases(t)
	want := rowBitsGo
	if linalg.HasVectorKernels() {
		want = rowBitsVec
	}
	if len(got) != len(want) {
		t.Errorf("%d cases evaluated, %d recorded", len(got), len(want))
	}
	for name, w := range want {
		g := got[name]
		if len(g) != len(w) {
			t.Errorf("%s: got %x, parent %x", name, g, w)
			continue
		}
		for i := range w {
			if g[i] != w[i] {
				t.Errorf("%s[%d]: got %#016x, parent %#016x", name, i, g[i], w[i])
			}
		}
	}
	// The pins are only worth something if the boxes reach what they claim to.
	for name, g := range got {
		p := math.Float64frombits(g[0])
		if strings.HasSuffix(name, "/prefix") {
			p = math.Float64frombits(g[1])
		}
		if !(p > 0 && p < 1) {
			t.Errorf("%s: probability %g is not inside (0,1)", name, p)
		}
	}
}

var rowBitsVec = map[string][]uint64{
	"dense/budget0.05/R0/f32=false/mvn":   {0x3fc49a9d3ce35214, 0x3f7ee8104edf70d4, 400, 1},
	"dense/budget0.05/R0/f32=false/mvt7":  {0x3fc4be1b112b0ef1, 0x3f8063444d3f669f, 1600, 1},
	"dense/budget0.05/R0/f32=true/mvn":    {0x3fc49a9d3b80c69d, 0x3f7ee8106cbaf2b0, 400, 1},
	"dense/budget0.05/R0/f32=true/mvt7":   {0x3fc4be1b1302893e, 0x3f8063444ca1e87f, 1600, 1},
	"dense/budget0.05/R3/f32=false/mvn":   {0x3fc3edc021d369ce, 0x3f7f403761da8f66, 300, 1},
	"dense/budget0.05/R3/f32=false/mvt7":  {0x3fc5e618f96abdf4, 0x3f841b75465e8743, 2100, 0},
	"dense/budget0.05/R3/f32=true/mvn":    {0x3fc3edc020aade11, 0x3f7f4037a6efb198, 300, 1},
	"dense/budget0.05/R3/f32=true/mvt7":   {0x3fc5e618f678a2a8, 0x3f841b755e13b70d, 2100, 0},
	"dense/budget1e-09/R0/f32=false/mvn":  {0x3fc532e41c9c3cc0, 0x3f66e0add621071e, 2000, 0},
	"dense/budget1e-09/R0/f32=false/mvt7": {0x3fc58b7b11a68094, 0x3f805a416c697c24, 2000, 0},
	"dense/budget1e-09/R0/f32=true/mvn":   {0x3fc532e4185f3f3d, 0x3f66e0ad868d82e3, 2000, 0},
	"dense/budget1e-09/R0/f32=true/mvt7":  {0x3fc58b7b0f5fb334, 0x3f805a417c410bf5, 2000, 0},
	"dense/budget1e-09/R3/f32=false/mvn":  {0x3fc5546e4a8f8503, 0x3f80a88abe78870d, 2100, 0},
	"dense/budget1e-09/R3/f32=false/mvt7": {0x3fc5e618f96abdf4, 0x3f841b75465e8743, 2100, 0},
	"dense/budget1e-09/R3/f32=true/mvn":   {0x3fc5546e46fd17e8, 0x3f80a88ab883955d, 2100, 0},
	"dense/budget1e-09/R3/f32=true/mvt7":  {0x3fc5e618f678a2a8, 0x3f841b755e13b70d, 2100, 0},
	"dense/dying/N203/f32=false/mvn":      {0x2c21adca22b5e6cd, 0x2c21a898e59e2723},
	"dense/dying/N203/f32=false/mvt7":     {0x35e369c7bb63664e, 0x35d50e0701df3a2f},
	"dense/dying/N203/f32=false/prefix":   {0x39e42e594c654504, 0x2c21adca22b5e6cd},
	"dense/dying/N203/f32=true/mvn":       {0x2c21ade56fcb0281, 0x2c21a8b4216e6f6f},
	"dense/dying/N203/f32=true/mvt7":      {0x35e369fe526ef61e, 0x35d50e79d0618323},
	"dense/dying/N203/f32=true/prefix":    {0x841589287a9fce92, 0x2c21ade56fcb0281},
	"dense/dying/N256/f32=false/mvn":      {0x2c1c099e930c7c0a, 0x2c1c01627c28d212},
	"dense/dying/N256/f32=false/mvt7":     {0x367ae41f92b7d163, 0x367ae099a9eaa47b},
	"dense/dying/N256/f32=false/prefix":   {0x15f94beb8bdd091d, 0x2c1c099e930c7c0a},
	"dense/dying/N256/f32=true/mvn":       {0x2c1c09c9df4bf5f9, 0x2c1c018dad0524b9},
	"dense/dying/N256/f32=true/mvt7":      {0x367ae3fc6c27102c, 0x367ae07684777082},
	"dense/dying/N256/f32=true/prefix":    {0xd0327bae1cf835df, 0x2c1c09c9df4bf5f9},
	"dense/fixed/R1/f32=false/mvn":        {0x3fc407f91aec1ca1, 0x0000000000000000, 203, 0},
	"dense/fixed/R1/f32=false/mvt7":       {0x3fc8a677c71ef8b1, 0x0000000000000000, 203, 0},
	"dense/fixed/R1/f32=false/prefix":     {0xd9e0eb1008ec4ddc, 0x3fc407f91aec1ca1},
	"dense/fixed/R1/f32=true/mvn":         {0x3fc407f913dbe35e, 0x0000000000000000, 203, 0},
	"dense/fixed/R1/f32=true/mvt7":        {0x3fc8a677d0352b0b, 0x0000000000000000, 203, 0},
	"dense/fixed/R1/f32=true/prefix":      {0xa60f7d506604934b, 0x3fc407f913dbe35e},
	"dense/fixed/R3/f32=false/mvn":        {0x3fc481021bdb5d11, 0x3f824606e1e678ba, 609, 0},
	"dense/fixed/R3/f32=false/mvt7":       {0x3fc756c0ea17e030, 0x3f894188f7107f5c, 609, 0},
	"dense/fixed/R3/f32=false/prefix":     {0x7c460b41318d427c, 0x3fc481021bdb5d11},
	"dense/fixed/R3/f32=true/mvn":         {0x3fc48102191c3916, 0x3f82460726fdd5a9, 609, 0},
	"dense/fixed/R3/f32=true/mvt7":        {0x3fc756c0f2f7ef93, 0x3f89418919b77da8, 609, 0},
	"dense/fixed/R3/f32=true/prefix":      {0x983e06ba3ff9f394, 0x3fc48102191c3916},
	"dense/fixed/R5/f32=false/mvn":        {0x3fc60e4e26450862, 0x3f82867333325bc1, 1015, 0},
	"dense/fixed/R5/f32=false/mvt7":       {0x3fc7cf6f3c8d4c27, 0x3f7eaf9bc8d84e96, 1015, 0},
	"dense/fixed/R5/f32=false/prefix":     {0xec10a4657c7b5021, 0x3fc60e4e26450862},
	"dense/fixed/R5/f32=true/mvn":         {0x3fc60e4e2461276a, 0x3f82867340c8993c, 1015, 0},
	"dense/fixed/R5/f32=true/mvt7":        {0x3fc7cf6f44efdd3a, 0x3f7eaf9c0791e78f, 1015, 0},
	"dense/fixed/R5/f32=true/prefix":      {0x78f514718d1ed1bc, 0x3fc60e4e2461276a},
	"dense/mixed/N203/f32=false/mvn":      {0x3fc36b06f6d2f5a3, 0x3f739e448324dfc0},
	"dense/mixed/N203/f32=false/mvt7":     {0x3fc66c587c77f07c, 0x3f91d0fa553841a4},
	"dense/mixed/N203/f32=false/prefix":   {0x5ae1c88e891b51e1, 0x3fc36b06f6d2f5a3},
	"dense/mixed/N203/f32=true/mvn":       {0x3fc36b06ef923cf4, 0x3f739e448934cd30},
	"dense/mixed/N203/f32=true/mvt7":      {0x3fc66c5883606318, 0x3f91d0fa66a63f98},
	"dense/mixed/N203/f32=true/prefix":    {0x18f09d4e168ee0f8, 0x3fc36b06ef923cf4},
	"dense/mixed/N256/f32=false/mvn":      {0x3fc3df27d884bd77, 0x3f6b3696af41d4c0},
	"dense/mixed/N256/f32=false/mvt7":     {0x3fc6e712992a0a5e, 0x3f94fe1278dbd474},
	"dense/mixed/N256/f32=false/prefix":   {0xc9466139b75646c3, 0x3fc3df27d884bd77},
	"dense/mixed/N256/f32=true/mvn":       {0x3fc3df27d2813b2b, 0x3f6b3695de19a8c0},
	"dense/mixed/N256/f32=true/mvt7":      {0x3fc6e7129e8aa8a9, 0x3f94fe128101d7a0},
	"dense/mixed/N256/f32=true/prefix":    {0x405222f88fbcba90, 0x3fc3df27d2813b2b},
	"tlr/budget0.05/R0/f32=false/mvn":     {0x3fc499349ac428e0, 0x3f7edaaf47157c65, 400, 1},
	"tlr/budget0.05/R0/f32=false/mvt7":    {0x3fc4bdbdc841807d, 0x3f806023fd4aed6e, 1600, 1},
	"tlr/budget0.05/R0/f32=true/mvn":      {0x3fc499349364c696, 0x3f7edaaf322dc1e5, 400, 1},
	"tlr/budget0.05/R0/f32=true/mvt7":     {0x3fc4bdbdceea4986, 0x3f8060242b3de668, 1600, 1},
	"tlr/budget0.05/R3/f32=false/mvn":     {0x3fc3ecac5a08c6c3, 0x3f7f346b9a5faebc, 300, 1},
	"tlr/budget0.05/R3/f32=false/mvt7":    {0x3fc5e6392cc0f491, 0x3f841f32bbca7c2b, 2100, 0},
	"tlr/budget0.05/R3/f32=true/mvn":      {0x3fc3ecac54663142, 0x3f7f346bbde2f904, 300, 1},
	"tlr/budget0.05/R3/f32=true/mvt7":     {0x3fc5e6393311f2ac, 0x3f841f32ea70856a, 2100, 0},
	"tlr/budget1e-09/R0/f32=false/mvn":    {0x3fc53338282c0e24, 0x3f66d84e4b78da8c, 2000, 0},
	"tlr/budget1e-09/R0/f32=false/mvt7":   {0x3fc58b890fd49417, 0x3f805c3948284a2f, 2000, 0},
	"tlr/budget1e-09/R0/f32=true/mvn":     {0x3fc533382a187bba, 0x3f66d84d1f5b071f, 2000, 0},
	"tlr/budget1e-09/R0/f32=true/mvt7":    {0x3fc58b89174dab14, 0x3f805c395332d334, 2000, 0},
	"tlr/budget1e-09/R3/f32=false/mvn":    {0x3fc55467c4259c13, 0x3f80a6214fb7f0f6, 2100, 0},
	"tlr/budget1e-09/R3/f32=false/mvt7":   {0x3fc5e6392cc0f491, 0x3f841f32bbca7c2b, 2100, 0},
	"tlr/budget1e-09/R3/f32=true/mvn":     {0x3fc55467ccf40213, 0x3f80a6212d97f19d, 2100, 0},
	"tlr/budget1e-09/R3/f32=true/mvt7":    {0x3fc5e6393311f2ac, 0x3f841f32ea70856a, 2100, 0},
	"tlr/dying/N203/f32=false/mvn":        {0x2c2200899818a6d3, 0x2c21f7757580dc2e},
	"tlr/dying/N203/f32=false/mvt7":       {0x35e6b94d7d19b106, 0x35d85ce991c9db10},
	"tlr/dying/N203/f32=false/prefix":     {0x12eed5cc09c1000d, 0x2c2200899818a6d3},
	"tlr/dying/N203/f32=true/mvn":         {0x2c2200c4cec1481c, 0x2c21f7b0761e8cc1},
	"tlr/dying/N203/f32=true/mvt7":        {0x35e6b96d48d817b2, 0x35d85d34c85a9b21},
	"tlr/dying/N203/f32=true/prefix":      {0x3bf4d5ea7150cd95, 0x2c2200c4cec1481c},
	"tlr/dying/N256/f32=false/mvn":        {0x2c1c8cda373713bd, 0x2c1c7e74485a585d},
	"tlr/dying/N256/f32=false/mvt7":       {0x3681ebde709685ad, 0x3681e9c76a20cc37},
	"tlr/dying/N256/f32=false/prefix":     {0x3151321e6bc660a4, 0x2c1c8cda373713bd},
	"tlr/dying/N256/f32=true/mvn":         {0x2c1c8cf36cb1c6ad, 0x2c1c7e8d6765e911},
	"tlr/dying/N256/f32=true/mvt7":        {0x3681ebd2ca2f509a, 0x3681e9bbc5b46d84},
	"tlr/dying/N256/f32=true/prefix":      {0x5a6976714d0ec11e, 0x2c1c8cf36cb1c6ad},
	"tlr/fixed/R1/f32=false/mvn":          {0x3fc407e715bc2d25, 0x0000000000000000, 203, 0},
	"tlr/fixed/R1/f32=false/mvt7":         {0x3fc8a641da7b074e, 0x0000000000000000, 203, 0},
	"tlr/fixed/R1/f32=false/prefix":       {0xcefa80fca726f9e8, 0x3fc407e715bc2d25},
	"tlr/fixed/R1/f32=true/mvn":           {0x3fc407e717916c4c, 0x0000000000000000, 203, 0},
	"tlr/fixed/R1/f32=true/mvt7":          {0x3fc8a641ec0ad025, 0x0000000000000000, 203, 0},
	"tlr/fixed/R1/f32=true/prefix":        {0x39bcc7d19e0ed7b0, 0x3fc407e717916c4c},
	"tlr/fixed/R3/f32=false/mvn":          {0x3fc480a0ff5da1a9, 0x3f8244013cc49245, 609, 0},
	"tlr/fixed/R3/f32=false/mvt7":         {0x3fc756943bf76105, 0x3f893eee4de3f1ec, 609, 0},
	"tlr/fixed/R3/f32=false/prefix":       {0xb3fe99155ecb7d56, 0x3fc480a0ff5da1a9},
	"tlr/fixed/R3/f32=true/mvn":           {0x3fc480a10520dfc9, 0x3f824401a758894f, 609, 0},
	"tlr/fixed/R3/f32=true/mvt7":          {0x3fc7569444906f04, 0x3f893eee76f89835, 609, 0},
	"tlr/fixed/R3/f32=true/prefix":        {0x9653856c1995b6e7, 0x3fc480a10520dfc9},
	"tlr/fixed/R5/f32=false/mvn":          {0x3fc60dadfa55202a, 0x3f8284af9a1a0e81, 1015, 0},
	"tlr/fixed/R5/f32=false/mvt7":         {0x3fc7cf5a2dcf8c97, 0x3f7ead4cd2e250a0, 1015, 0},
	"tlr/fixed/R5/f32=false/prefix":       {0xee39eea639814021, 0x3fc60dadfa55202a},
	"tlr/fixed/R5/f32=true/mvn":           {0x3fc60dae00b7b390, 0x3f8284afc9f0bd5c, 1015, 0},
	"tlr/fixed/R5/f32=true/mvt7":          {0x3fc7cf5a319db48f, 0x3f7ead4cf33b5952, 1015, 0},
	"tlr/fixed/R5/f32=true/prefix":        {0x08153a4df652b648, 0x3fc60dae00b7b390},
	"tlr/mixed/N203/f32=false/mvn":        {0x3fc36acf06757c75, 0x3f73a301e8d61600},
	"tlr/mixed/N203/f32=false/mvt7":       {0x3fc66c4f561972e0, 0x3f91cf94230ca374},
	"tlr/mixed/N203/f32=false/prefix":     {0xad18bb8ed64c7ca4, 0x3fc36acf06757c75},
	"tlr/mixed/N203/f32=true/mvn":         {0x3fc36acf05b3da26, 0x3f73a3023bb244b0},
	"tlr/mixed/N203/f32=true/mvt7":        {0x3fc66c4f6044493c, 0x3f91cf945e343744},
	"tlr/mixed/N203/f32=true/prefix":      {0x8186364a22bde798, 0x3fc36acf05b3da26},
	"tlr/mixed/N256/f32=false/mvn":        {0x3fc3df49b9f164c4, 0x3f6b15546f4215a0},
	"tlr/mixed/N256/f32=false/mvt7":       {0x3fc6e6921afd1c02, 0x3f94fcaed4b086ac},
	"tlr/mixed/N256/f32=false/prefix":     {0xd4850a7b2b534c3c, 0x3fc3df49b9f164c4},
	"tlr/mixed/N256/f32=true/mvn":         {0x3fc3df49ba29e97a, 0x3f6b1555bd673560},
	"tlr/mixed/N256/f32=true/mvt7":        {0x3fc6e6921cce6ef5, 0x3f94fcaefef08f28},
	"tlr/mixed/N256/f32=true/prefix":      {0x3c1f720e41ba11e9, 0x3fc3df49ba29e97a},
}

var rowBitsGo = map[string][]uint64{
	"dense/budget0.05/R0/f32=false/mvn":   {0x3fc49a9d3ce35205, 0x3f7ee8104edf6db7, 400, 1},
	"dense/budget0.05/R0/f32=false/mvt7":  {0x3fc4be1b112b0ef0, 0x3f8063444d3f66d8, 1600, 1},
	"dense/budget0.05/R0/f32=true/mvn":    {0x3fc49a9d464dcf0a, 0x3f7ee810dd1c7b63, 400, 1},
	"dense/budget0.05/R0/f32=true/mvt7":   {0x3fc4be1b12f7eb37, 0x3f80634431d583ab, 1600, 1},
	"dense/budget0.05/R3/f32=false/mvn":   {0x3fc3edc021d369b9, 0x3f7f403761da8860, 300, 1},
	"dense/budget0.05/R3/f32=false/mvt7":  {0x3fc5e618f96abdf5, 0x3f841b75465e879c, 2100, 0},
	"dense/budget0.05/R3/f32=true/mvn":    {0x3fc3edc0246a9dc9, 0x3f7f40374d297991, 300, 1},
	"dense/budget0.05/R3/f32=true/mvt7":   {0x3fc5e618f9028309, 0x3f841b753221370f, 2100, 0},
	"dense/budget1e-09/R0/f32=false/mvn":  {0x3fc532e41c9c3cb5, 0x3f66e0add6210753, 2000, 0},
	"dense/budget1e-09/R0/f32=false/mvt7": {0x3fc58b7b11a68092, 0x3f805a416c697c9b, 2000, 0},
	"dense/budget1e-09/R0/f32=true/mvn":   {0x3fc532e416ea0d1b, 0x3f66e0adc3522a58, 2000, 0},
	"dense/budget1e-09/R0/f32=true/mvt7":  {0x3fc58b7b0fd83452, 0x3f805a415803f4e6, 2000, 0},
	"dense/budget1e-09/R3/f32=false/mvn":  {0x3fc5546e4a8f84fd, 0x3f80a88abe78867c, 2100, 0},
	"dense/budget1e-09/R3/f32=false/mvt7": {0x3fc5e618f96abdf5, 0x3f841b75465e879c, 2100, 0},
	"dense/budget1e-09/R3/f32=true/mvn":   {0x3fc5546e49a5727a, 0x3f80a88abb56a0f5, 2100, 0},
	"dense/budget1e-09/R3/f32=true/mvt7":  {0x3fc5e618f9028309, 0x3f841b753221370f, 2100, 0},
	"dense/dying/N203/f32=false/mvn":      {0x2c21adca22b779ba, 0x2c21a898e59fb93b},
	"dense/dying/N203/f32=false/mvt7":     {0x35e369c7bb6426f2, 0x35d50e0701e01b4f},
	"dense/dying/N203/f32=false/prefix":   {0xce72b57a55aa80a0, 0x2c21adca22b779ba},
	"dense/dying/N203/f32=true/mvn":       {0x2c21ae0957bde45d, 0x2c21a8d8169e0ab2},
	"dense/dying/N203/f32=true/mvt7":      {0x35e369ed3bc08e5a, 0x35d50e45a8046e9b},
	"dense/dying/N203/f32=true/prefix":    {0x3be3a88438fe2e8b, 0x2c21ae0957bde45d},
	"dense/dying/N256/f32=false/mvn":      {0x2c1c099e930efb0d, 0x2c1c01627c2b4fc5},
	"dense/dying/N256/f32=false/mvt7":     {0x367ae41f92b8875a, 0x367ae099a9eb5a52},
	"dense/dying/N256/f32=false/prefix":   {0x204592b666f3bc43, 0x2c1c099e930efb0d},
	"dense/dying/N256/f32=true/mvn":       {0x2c1c0a02d127282b, 0x2c1c01c6b3dea4f7},
	"dense/dying/N256/f32=true/mvt7":      {0x367ae426edd57fc9, 0x367ae0a102955dd1},
	"dense/dying/N256/f32=true/prefix":    {0x5bf10f7fcd30d7a4, 0x2c1c0a02d127282b},
	"dense/fixed/R1/f32=false/mvn":        {0x3fc407f91aec1c31, 0x0000000000000000, 203, 0},
	"dense/fixed/R1/f32=false/mvt7":       {0x3fc8a677c71ef8b1, 0x0000000000000000, 203, 0},
	"dense/fixed/R1/f32=false/prefix":     {0x37c331270f46c38b, 0x3fc407f91aec1c31},
	"dense/fixed/R1/f32=true/mvn":         {0x3fc407f91a001edd, 0x0000000000000000, 203, 0},
	"dense/fixed/R1/f32=true/mvt7":        {0x3fc8a677d29526de, 0x0000000000000000, 203, 0},
	"dense/fixed/R1/f32=true/prefix":      {0xc80c10b791a7f18c, 0x3fc407f91a001edd},
	"dense/fixed/R3/f32=false/mvn":        {0x3fc481021bdb5d09, 0x3f824606e1e67bc1, 609, 0},
	"dense/fixed/R3/f32=false/mvt7":       {0x3fc756c0ea17e031, 0x3f894188f7107ee1, 609, 0},
	"dense/fixed/R3/f32=false/prefix":     {0x82f494460cdfcf77, 0x3fc481021bdb5d09},
	"dense/fixed/R3/f32=true/mvn":         {0x3fc481021b2fabe5, 0x3f824606d13f8c3e, 609, 0},
	"dense/fixed/R3/f32=true/mvt7":        {0x3fc756c0e891c669, 0x3f894188e50f9c5b, 609, 0},
	"dense/fixed/R3/f32=true/prefix":      {0xc4cca82592a0de6b, 0x3fc481021b2fabe5},
	"dense/fixed/R5/f32=false/mvn":        {0x3fc60e4e26450858, 0x3f82867333325c7a, 1015, 0},
	"dense/fixed/R5/f32=false/mvt7":       {0x3fc7cf6f3c8d4c22, 0x3f7eaf9bc8d84d30, 1015, 0},
	"dense/fixed/R5/f32=false/prefix":     {0xe1e30e59eceaf0c3, 0x3fc60e4e26450858},
	"dense/fixed/R5/f32=true/mvn":         {0x3fc60e4e1fc46b8a, 0x3f828672fa1b4d80, 1015, 0},
	"dense/fixed/R5/f32=true/mvt7":        {0x3fc7cf6f3cb8f9c4, 0x3f7eaf9bc080005b, 1015, 0},
	"dense/fixed/R5/f32=true/prefix":      {0xe73e30e4f93fa395, 0x3fc60e4e1fc46b8a},
	"dense/mixed/N203/f32=false/mvn":      {0x3fc36b06f6d2f560, 0x3f739e448324da10},
	"dense/mixed/N203/f32=false/mvt7":     {0x3fc66c587c77f084, 0x3f91d0fa55384168},
	"dense/mixed/N203/f32=false/prefix":   {0x955fb7f5a7ea423f, 0x3fc36b06f6d2f560},
	"dense/mixed/N203/f32=true/mvn":       {0x3fc36b06f708ed99, 0x3f739e445ee62880},
	"dense/mixed/N203/f32=true/mvt7":      {0x3fc66c5881d47b06, 0x3f91d0fa86055ebc},
	"dense/mixed/N203/f32=true/prefix":    {0xe9aa6751141a1a71, 0x3fc36b06f708ed99},
	"dense/mixed/N256/f32=false/mvn":      {0x3fc3df27d884bd38, 0x3f6b3696af41d8a0},
	"dense/mixed/N256/f32=false/mvt7":     {0x3fc6e712992a0a50, 0x3f94fe1278dbd4e0},
	"dense/mixed/N256/f32=false/prefix":   {0xca1c3fd523036a8e, 0x3fc3df27d884bd38},
	"dense/mixed/N256/f32=true/mvn":       {0x3fc3df27dc5acb4c, 0x3f6b3696a8cb6a80},
	"dense/mixed/N256/f32=true/mvt7":      {0x3fc6e7129b564042, 0x3f94fe1295b1aa08},
	"dense/mixed/N256/f32=true/prefix":    {0x5733140ae2d4f033, 0x3fc3df27dc5acb4c},
	"tlr/budget0.05/R0/f32=false/mvn":     {0x3fc499349ac42868, 0x3f7edaaf47157c98, 400, 1},
	"tlr/budget0.05/R0/f32=false/mvt7":    {0x3fc4bdbdc8418052, 0x3f806023fd4aedb2, 1600, 1},
	"tlr/budget0.05/R0/f32=true/mvn":      {0x3fc49934920e799c, 0x3f7edaaf12cf2fca, 400, 1},
	"tlr/budget0.05/R0/f32=true/mvt7":     {0x3fc4bdbdd23e9d72, 0x3f806024279037f2, 1600, 1},
	"tlr/budget0.05/R3/f32=false/mvn":     {0x3fc3ecac5a08c644, 0x3f7f346b9a5fae09, 300, 1},
	"tlr/budget0.05/R3/f32=false/mvt7":    {0x3fc5e6392cc0f48b, 0x3f841f32bbca7d24, 2100, 0},
	"tlr/budget0.05/R3/f32=true/mvn":      {0x3fc3ecac535348dd, 0x3f7f346b8b7f312a, 300, 1},
	"tlr/budget0.05/R3/f32=true/mvt7":     {0x3fc5e63931b93425, 0x3f841f32e15b4fc6, 2100, 0},
	"tlr/budget1e-09/R0/f32=false/mvn":    {0x3fc53338282c0df2, 0x3f66d84e4b78e017, 2000, 0},
	"tlr/budget1e-09/R0/f32=false/mvt7":   {0x3fc58b890fd493fb, 0x3f805c3948284b0a, 2000, 0},
	"tlr/budget1e-09/R0/f32=true/mvn":     {0x3fc533382a9ccfa1, 0x3f66d84e3bffdf59, 2000, 0},
	"tlr/budget1e-09/R0/f32=true/mvt7":    {0x3fc58b8918992402, 0x3f805c3950e989da, 2000, 0},
	"tlr/budget1e-09/R3/f32=false/mvn":    {0x3fc55467c4259be8, 0x3f80a6214fb7f2d1, 2100, 0},
	"tlr/budget1e-09/R3/f32=false/mvt7":   {0x3fc5e6392cc0f48b, 0x3f841f32bbca7d24, 2100, 0},
	"tlr/budget1e-09/R3/f32=true/mvn":     {0x3fc55467cae11291, 0x3f80a6215fc35852, 2100, 0},
	"tlr/budget1e-09/R3/f32=true/mvt7":    {0x3fc5e63931b93425, 0x3f841f32e15b4fc6, 2100, 0},
	"tlr/dying/N203/f32=false/mvn":        {0x2c2200899817f8bf, 0x2c21f77575802dc7},
	"tlr/dying/N203/f32=false/mvt7":       {0x35e6b94d7d19acb4, 0x35d85ce991ca7813},
	"tlr/dying/N203/f32=false/prefix":     {0xf33fabd5460ada89, 0x2c2200899817f8bf},
	"tlr/dying/N203/f32=true/mvn":         {0x2c2200c84fac01f9, 0x2c21f7b40f235200},
	"tlr/dying/N203/f32=true/mvt7":        {0x35e6b9706fa3f29a, 0x35d85d37cf6fd4b8},
	"tlr/dying/N203/f32=true/prefix":      {0xbbb863377d5ab73f, 0x2c2200c84fac01f9},
	"tlr/dying/N256/f32=false/mvn":        {0x2c1c8cda37360480, 0x2c1c7e744859489a},
	"tlr/dying/N256/f32=false/mvt7":       {0x3681ebde7095da1d, 0x3681e9c76a2020b8},
	"tlr/dying/N256/f32=false/prefix":     {0xa687231ddfab918f, 0x2c1c8cda37360480},
	"tlr/dying/N256/f32=true/mvn":         {0x2c1c8d3dae5acb1f, 0x2c1c7ed79002040a},
	"tlr/dying/N256/f32=true/mvt7":        {0x3681ebea3f7fc1bf, 0x3681e9d339ddcfb4},
	"tlr/dying/N256/f32=true/prefix":      {0xc432e5a039d5c128, 0x2c1c8d3dae5acb1f},
	"tlr/fixed/R1/f32=false/mvn":          {0x3fc407e715bc2d49, 0x0000000000000000, 203, 0},
	"tlr/fixed/R1/f32=false/mvt7":         {0x3fc8a641da7b06eb, 0x0000000000000000, 203, 0},
	"tlr/fixed/R1/f32=false/prefix":       {0xbd14ae9fe626f56b, 0x3fc407e715bc2d49},
	"tlr/fixed/R1/f32=true/mvn":           {0x3fc407e70df7940d, 0x0000000000000000, 203, 0},
	"tlr/fixed/R1/f32=true/mvt7":          {0x3fc8a641f33b7f6e, 0x0000000000000000, 203, 0},
	"tlr/fixed/R1/f32=true/prefix":        {0x6b980c64da996d9c, 0x3fc407e70df7940d},
	"tlr/fixed/R3/f32=false/mvn":          {0x3fc480a0ff5da22b, 0x3f8244013cc48b69, 609, 0},
	"tlr/fixed/R3/f32=false/mvt7":         {0x3fc756943bf76115, 0x3f893eee4de3ebcb, 609, 0},
	"tlr/fixed/R3/f32=false/prefix":       {0xf171b0164daa9e30, 0x3fc480a0ff5da22b},
	"tlr/fixed/R3/f32=true/mvn":           {0x3fc480a0febb2f4f, 0x3f824401a9a09d13, 609, 0},
	"tlr/fixed/R3/f32=true/mvt7":          {0x3fc7569443ad234f, 0x3f893eee89ee6ab2, 609, 0},
	"tlr/fixed/R3/f32=true/prefix":        {0xf63ef346bb222a75, 0x3fc480a0febb2f4f},
	"tlr/fixed/R5/f32=false/mvn":          {0x3fc60dadfa55203a, 0x3f8284af9a1a0843, 1015, 0},
	"tlr/fixed/R5/f32=false/mvt7":         {0x3fc7cf5a2dcf8ca6, 0x3f7ead4cd2e24a7d, 1015, 0},
	"tlr/fixed/R5/f32=false/prefix":       {0xa735a72894d30950, 0x3fc60dadfa55203a},
	"tlr/fixed/R5/f32=true/mvn":           {0x3fc60dadf99c6835, 0x3f8284afbdeaf1d4, 1015, 0},
	"tlr/fixed/R5/f32=true/mvt7":          {0x3fc7cf5a2e899a7d, 0x3f7ead4cdc919b30, 1015, 0},
	"tlr/fixed/R5/f32=true/prefix":        {0x4f57089ce3b9ce76, 0x3fc60dadf99c6835},
	"tlr/mixed/N203/f32=false/mvn":        {0x3fc36acf06757d4a, 0x3f73a301e8d5fff0},
	"tlr/mixed/N203/f32=false/mvt7":       {0x3fc66c4f5619731a, 0x3f91cf94230c9e84},
	"tlr/mixed/N203/f32=false/prefix":     {0x871eb852513ab367, 0x3fc36acf06757d4a},
	"tlr/mixed/N203/f32=true/mvn":         {0x3fc36acefeabc82e, 0x3f73a301e9797bf0},
	"tlr/mixed/N203/f32=true/mvt7":        {0x3fc66c4f61de35b0, 0x3f91cf948aea4df0},
	"tlr/mixed/N203/f32=true/prefix":      {0xf1c0545988c639b0, 0x3fc36acefeabc82e},
	"tlr/mixed/N256/f32=false/mvn":        {0x3fc3df49b9f16571, 0x3f6b15546f4247c0},
	"tlr/mixed/N256/f32=false/mvt7":       {0x3fc6e6921afd1c82, 0x3f94fcaed4b0827c},
	"tlr/mixed/N256/f32=false/prefix":     {0x95c7e49493eb6455, 0x3fc3df49b9f16571},
	"tlr/mixed/N256/f32=true/mvn":         {0x3fc3df49b543812e, 0x3f6b15555535c2a0},
	"tlr/mixed/N256/f32=true/mvt7":        {0x3fc6e69226fb585b, 0x3f94fcaf03fccb90},
	"tlr/mixed/N256/f32=true/prefix":      {0x864bb9fd3e733ac3, 0x3fc3df49b543812e},
}
