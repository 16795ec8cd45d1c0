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
// of every Prob and StdErr, then the last Prob). The cases call integrate and
// prefix — PMVN, PMVT and PMVNPrefix past their argument checks — with the
// lane widths the tables were recorded at, 64 and 50: wider than the factors'
// tile of 16, the width the entry points use. Every name ends in the
// f32=false its row was recorded under, when a float32 sweep had rows of its
// own.
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
				opt, mc := Options{N: shape[0], Replicates: 2}, shape[1]
				name := fmt.Sprintf("%s/%s/N%d/f32=false", fname, bname, shape[0])
				r := integrate(rt, f, a, b, opt, mc, 0, nil)
				out[name+"/mvn"] = []uint64{math.Float64bits(r.Prob), math.Float64bits(r.StdErr)}
				r = integrate(rt, f, a, b, opt, mc, 7, nil)
				out[name+"/mvt7"] = []uint64{math.Float64bits(r.Prob), math.Float64bits(r.StdErr)}
				out[name+"/prefix"] = prefixBits(prefix(rt, f, a, b, opt, mc))
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
		for _, reps := range []int{1, 3, 5} {
			name := fmt.Sprintf("%s/fixed/R%d/f32=false", fname, reps)
			integratorBits(t, out, name, rt, f, a, b, Options{N: 203, Replicates: reps}, 50)
		}
		for _, target := range []float64{5e-2, 1e-9} {
			for _, reps := range []int{0, 3} {
				name := fmt.Sprintf("%s/budget%g/R%d/f32=false", fname, target, reps)
				integratorBits(t, out, name, rt, f, a, b, Options{N: 1999, Replicates: reps, MaxRelErr: target}, 50)
			}
		}
	}
	return out
}

// integratorBits evaluates one integrator case of rowTypeCases, inline and as
// tasks, in lane blocks of mc: Prob, StdErr, Samples and Converged of PMVN and
// PMVT (ν = 7), and for a fixed-N case PMVNPrefix hashed like the row-step
// cases.
func integratorBits(t *testing.T, out map[string][]uint64, name string, rt *taskrt.Runtime, f *Factor, a, b []float64, opt Options, mc int) {
	t.Helper()
	resultBits := func(r Result) []uint64 {
		conv := uint64(0)
		if r.Converged {
			conv = 1
		}
		return []uint64{math.Float64bits(r.Prob), math.Float64bits(r.StdErr), uint64(r.Samples), conv}
	}
	// A nil runtime runs the integration inline.
	o := opt.withDefaults()
	eval := func(rt *taskrt.Runtime) map[string][]uint64 {
		m := map[string][]uint64{
			"/mvn":  resultBits(integrate(rt, f, a, b, o, mc, 0, nil)),
			"/mvt7": resultBits(integrate(rt, f, a, b, o, mc, 7, nil)),
		}
		if o.MaxRelErr == 0 {
			m["/prefix"] = prefixBits(prefix(rt, f, a, b, o, mc))
		}
		return m
	}
	tasks := eval(rt)
	for kind, in := range eval(nil) {
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
// rowTypeCases). A failure prints every got/parent pair. The 58 tlr/ rows of
// both tables were re-recorded when a finished low-rank tile that misses its
// tolerance within its byte break-even began to stay dense instead of being
// truncated: the factor changed, and every tlr/ probability outside the dying
// box moved toward its dense/ row (worst 2.7e-4 → 5.8e-5 relative).
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
	"dense/budget0.05/R3/f32=false/mvn":   {0x3fc3edc021d369ce, 0x3f7f403761da8f66, 300, 1},
	"dense/budget0.05/R3/f32=false/mvt7":  {0x3fc5e618f96abdf4, 0x3f841b75465e8743, 2100, 0},
	"dense/budget1e-09/R0/f32=false/mvn":  {0x3fc532e41c9c3cc0, 0x3f66e0add621071e, 2000, 0},
	"dense/budget1e-09/R0/f32=false/mvt7": {0x3fc58b7b11a68094, 0x3f805a416c697c24, 2000, 0},
	"dense/budget1e-09/R3/f32=false/mvn":  {0x3fc5546e4a8f8503, 0x3f80a88abe78870d, 2100, 0},
	"dense/budget1e-09/R3/f32=false/mvt7": {0x3fc5e618f96abdf4, 0x3f841b75465e8743, 2100, 0},
	"dense/dying/N203/f32=false/mvn":      {0x2c21adca22b5e6cd, 0x2c21a898e59e2723},
	"dense/dying/N203/f32=false/mvt7":     {0x35e369c7bb63664e, 0x35d50e0701df3a2f},
	"dense/dying/N203/f32=false/prefix":   {0x39e42e594c654504, 0x2c21adca22b5e6cd},
	"dense/dying/N256/f32=false/mvn":      {0x2c1c099e930c7c0a, 0x2c1c01627c28d212},
	"dense/dying/N256/f32=false/mvt7":     {0x367ae41f92b7d163, 0x367ae099a9eaa47b},
	"dense/dying/N256/f32=false/prefix":   {0x15f94beb8bdd091d, 0x2c1c099e930c7c0a},
	"dense/fixed/R1/f32=false/mvn":        {0x3fc407f91aec1ca1, 0x0000000000000000, 203, 0},
	"dense/fixed/R1/f32=false/mvt7":       {0x3fc8a677c71ef8b1, 0x0000000000000000, 203, 0},
	"dense/fixed/R1/f32=false/prefix":     {0xd9e0eb1008ec4ddc, 0x3fc407f91aec1ca1},
	"dense/fixed/R3/f32=false/mvn":        {0x3fc481021bdb5d11, 0x3f824606e1e678ba, 609, 0},
	"dense/fixed/R3/f32=false/mvt7":       {0x3fc756c0ea17e030, 0x3f894188f7107f5c, 609, 0},
	"dense/fixed/R3/f32=false/prefix":     {0x7c460b41318d427c, 0x3fc481021bdb5d11},
	"dense/fixed/R5/f32=false/mvn":        {0x3fc60e4e26450862, 0x3f82867333325bc1, 1015, 0},
	"dense/fixed/R5/f32=false/mvt7":       {0x3fc7cf6f3c8d4c27, 0x3f7eaf9bc8d84e96, 1015, 0},
	"dense/fixed/R5/f32=false/prefix":     {0xec10a4657c7b5021, 0x3fc60e4e26450862},
	"dense/mixed/N203/f32=false/mvn":      {0x3fc36b06f6d2f5a3, 0x3f739e448324dfc0},
	"dense/mixed/N203/f32=false/mvt7":     {0x3fc66c587c77f07c, 0x3f91d0fa553841a4},
	"dense/mixed/N203/f32=false/prefix":   {0x5ae1c88e891b51e1, 0x3fc36b06f6d2f5a3},
	"dense/mixed/N256/f32=false/mvn":      {0x3fc3df27d884bd77, 0x3f6b3696af41d4c0},
	"dense/mixed/N256/f32=false/mvt7":     {0x3fc6e712992a0a5e, 0x3f94fe1278dbd474},
	"dense/mixed/N256/f32=false/prefix":   {0xc9466139b75646c3, 0x3fc3df27d884bd77},
	"tlr/budget0.05/R0/f32=false/mvn":     {0x3fc49a93b4fbd61a, 0x3f7ee532c9505461, 400, 1},
	"tlr/budget0.05/R0/f32=false/mvt7":    {0x3fc4be1c737c59da, 0x3f8062879e02ba5d, 1600, 1},
	"tlr/budget0.05/R3/f32=false/mvn":     {0x3fc3eddd5d8b3f81, 0x3f7f413f62c7cd5a, 300, 1},
	"tlr/budget0.05/R3/f32=false/mvt7":    {0x3fc5e641e20922e3, 0x3f841c3eb700bd84, 2100, 0},
	"tlr/budget1e-09/R0/f32=false/mvn":    {0x3fc533120c90d59d, 0x3f66db5320083aca, 2000, 0},
	"tlr/budget1e-09/R0/f32=false/mvt7":   {0x3fc58b9cc6b9b2dd, 0x3f805b708fc74acf, 2000, 0},
	"tlr/budget1e-09/R3/f32=false/mvn":    {0x3fc554722cde1d29, 0x3f80a7b1f58fa7bf, 2100, 0},
	"tlr/budget1e-09/R3/f32=false/mvt7":   {0x3fc5e641e20922e3, 0x3f841c3eb700bd84, 2100, 0},
	"tlr/dying/N203/f32=false/mvn":        {0x2c21b4569f601e50, 0x2c21adc7ca691acb},
	"tlr/dying/N203/f32=false/mvt7":       {0x35e3f8f4d92bce54, 0x35d60e39ab64fed1},
	"tlr/dying/N203/f32=false/prefix":     {0x7b474ec4c000d82f, 0x2c21b4569f601e50},
	"tlr/dying/N256/f32=false/mvn":        {0x2c1c140160c27012, 0x2c1c099adb02b07d},
	"tlr/dying/N256/f32=false/mvt7":       {0x367baa1d948c2e52, 0x367ba691b166cdb9},
	"tlr/dying/N256/f32=false/prefix":     {0xbf5e5d09b22ecc25, 0x2c1c140160c27012},
	"tlr/fixed/R1/f32=false/mvn":          {0x3fc407f7b951d8f2, 0x0000000000000000, 203, 0},
	"tlr/fixed/R1/f32=false/mvt7":         {0x3fc8a636ea11d861, 0x0000000000000000, 203, 0},
	"tlr/fixed/R1/f32=false/prefix":       {0x4cd3fc180bb6da36, 0x3fc407f7b951d8f2},
	"tlr/fixed/R3/f32=false/mvn":          {0x3fc48139c89e1f9d, 0x3f824788219586e9, 609, 0},
	"tlr/fixed/R3/f32=false/mvt7":         {0x3fc756a3e81fef48, 0x3f8941ed49dcb57b, 609, 0},
	"tlr/fixed/R3/f32=false/prefix":       {0x364676a6bbe8c4ef, 0x3fc48139c89e1f9d},
	"tlr/fixed/R5/f32=false/mvn":          {0x3fc60e46a334b186, 0x3f8284f51b6174fe, 1015, 0},
	"tlr/fixed/R5/f32=false/mvt7":         {0x3fc7cf6d78254ef3, 0x3f7eb04bd396a661, 1015, 0},
	"tlr/fixed/R5/f32=false/prefix":       {0x4be60f090fa22f82, 0x3fc60e46a334b186},
	"tlr/mixed/N203/f32=false/mvn":        {0x3fc36b204aa655ee, 0x3f739aedd5706090},
	"tlr/mixed/N203/f32=false/mvt7":       {0x3fc66c257517f2a0, 0x3f91d08ba7cf2e0c},
	"tlr/mixed/N203/f32=false/prefix":     {0xff687a89688a0930, 0x3fc36b204aa655ee},
	"tlr/mixed/N256/f32=false/mvn":        {0x3fc3df30def18323, 0x3f6b30cd22b21940},
	"tlr/mixed/N256/f32=false/mvt7":       {0x3fc6e6bc3bed1de6, 0x3f94fef5ad25355c},
	"tlr/mixed/N256/f32=false/prefix":     {0xd16cfa12965ce59d, 0x3fc3df30def18323},
}

var rowBitsGo = map[string][]uint64{
	"dense/budget0.05/R0/f32=false/mvn":   {0x3fc49a9d3ce35205, 0x3f7ee8104edf6db7, 400, 1},
	"dense/budget0.05/R0/f32=false/mvt7":  {0x3fc4be1b112b0ef0, 0x3f8063444d3f66d8, 1600, 1},
	"dense/budget0.05/R3/f32=false/mvn":   {0x3fc3edc021d369b9, 0x3f7f403761da8860, 300, 1},
	"dense/budget0.05/R3/f32=false/mvt7":  {0x3fc5e618f96abdf5, 0x3f841b75465e879c, 2100, 0},
	"dense/budget1e-09/R0/f32=false/mvn":  {0x3fc532e41c9c3cb5, 0x3f66e0add6210753, 2000, 0},
	"dense/budget1e-09/R0/f32=false/mvt7": {0x3fc58b7b11a68092, 0x3f805a416c697c9b, 2000, 0},
	"dense/budget1e-09/R3/f32=false/mvn":  {0x3fc5546e4a8f84fd, 0x3f80a88abe78867c, 2100, 0},
	"dense/budget1e-09/R3/f32=false/mvt7": {0x3fc5e618f96abdf5, 0x3f841b75465e879c, 2100, 0},
	"dense/dying/N203/f32=false/mvn":      {0x2c21adca22b779ba, 0x2c21a898e59fb93b},
	"dense/dying/N203/f32=false/mvt7":     {0x35e369c7bb6426f2, 0x35d50e0701e01b4f},
	"dense/dying/N203/f32=false/prefix":   {0xce72b57a55aa80a0, 0x2c21adca22b779ba},
	"dense/dying/N256/f32=false/mvn":      {0x2c1c099e930efb0d, 0x2c1c01627c2b4fc5},
	"dense/dying/N256/f32=false/mvt7":     {0x367ae41f92b8875a, 0x367ae099a9eb5a52},
	"dense/dying/N256/f32=false/prefix":   {0x204592b666f3bc43, 0x2c1c099e930efb0d},
	"dense/fixed/R1/f32=false/mvn":        {0x3fc407f91aec1c31, 0x0000000000000000, 203, 0},
	"dense/fixed/R1/f32=false/mvt7":       {0x3fc8a677c71ef8b1, 0x0000000000000000, 203, 0},
	"dense/fixed/R1/f32=false/prefix":     {0x37c331270f46c38b, 0x3fc407f91aec1c31},
	"dense/fixed/R3/f32=false/mvn":        {0x3fc481021bdb5d09, 0x3f824606e1e67bc1, 609, 0},
	"dense/fixed/R3/f32=false/mvt7":       {0x3fc756c0ea17e031, 0x3f894188f7107ee1, 609, 0},
	"dense/fixed/R3/f32=false/prefix":     {0x82f494460cdfcf77, 0x3fc481021bdb5d09},
	"dense/fixed/R5/f32=false/mvn":        {0x3fc60e4e26450858, 0x3f82867333325c7a, 1015, 0},
	"dense/fixed/R5/f32=false/mvt7":       {0x3fc7cf6f3c8d4c22, 0x3f7eaf9bc8d84d30, 1015, 0},
	"dense/fixed/R5/f32=false/prefix":     {0xe1e30e59eceaf0c3, 0x3fc60e4e26450858},
	"dense/mixed/N203/f32=false/mvn":      {0x3fc36b06f6d2f560, 0x3f739e448324da10},
	"dense/mixed/N203/f32=false/mvt7":     {0x3fc66c587c77f084, 0x3f91d0fa55384168},
	"dense/mixed/N203/f32=false/prefix":   {0x955fb7f5a7ea423f, 0x3fc36b06f6d2f560},
	"dense/mixed/N256/f32=false/mvn":      {0x3fc3df27d884bd38, 0x3f6b3696af41d8a0},
	"dense/mixed/N256/f32=false/mvt7":     {0x3fc6e712992a0a50, 0x3f94fe1278dbd4e0},
	"dense/mixed/N256/f32=false/prefix":   {0xca1c3fd523036a8e, 0x3fc3df27d884bd38},
	"tlr/budget0.05/R0/f32=false/mvn":     {0x3fc49a93b4fbd632, 0x3f7ee532c9505373, 400, 1},
	"tlr/budget0.05/R0/f32=false/mvt7":    {0x3fc4be1c737c59be, 0x3f8062879e02b9f9, 1600, 1},
	"tlr/budget0.05/R3/f32=false/mvn":     {0x3fc3eddd5d8b3f8b, 0x3f7f413f62c7c8fe, 300, 1},
	"tlr/budget0.05/R3/f32=false/mvt7":    {0x3fc5e641e20922d5, 0x3f841c3eb700bca5, 2100, 0},
	"tlr/budget1e-09/R0/f32=false/mvn":    {0x3fc533120c90d5a8, 0x3f66db5320084168, 2000, 0},
	"tlr/budget1e-09/R0/f32=false/mvt7":   {0x3fc58b9cc6b9b2c6, 0x3f805b708fc74a54, 2000, 0},
	"tlr/budget1e-09/R3/f32=false/mvn":    {0x3fc554722cde1d13, 0x3f80a7b1f58fa916, 2100, 0},
	"tlr/budget1e-09/R3/f32=false/mvt7":   {0x3fc5e641e20922d5, 0x3f841c3eb700bca5, 2100, 0},
	"tlr/dying/N203/f32=false/mvn":        {0x2c21b4569f5fe14d, 0x2c21adc7ca68dddb},
	"tlr/dying/N203/f32=false/mvt7":       {0x35e3f8f4d92bed81, 0x35d60e39ab64f356},
	"tlr/dying/N203/f32=false/prefix":     {0x85916fa195143490, 0x2c21b4569f5fe14d},
	"tlr/dying/N256/f32=false/mvn":        {0x2c1c140160c20f4f, 0x2c1c099adb024fda},
	"tlr/dying/N256/f32=false/mvt7":       {0x367baa1d948bd9d3, 0x367ba691b166792c},
	"tlr/dying/N256/f32=false/prefix":     {0x1d214a3c2ac26764, 0x2c1c140160c20f4f},
	"tlr/fixed/R1/f32=false/mvn":          {0x3fc407f7b951d8f5, 0x0000000000000000, 203, 0},
	"tlr/fixed/R1/f32=false/mvt7":         {0x3fc8a636ea11d803, 0x0000000000000000, 203, 0},
	"tlr/fixed/R1/f32=false/prefix":       {0xce9b156b898ec167, 0x3fc407f7b951d8f5},
	"tlr/fixed/R3/f32=false/mvn":          {0x3fc48139c89e1f9d, 0x3f824788219586ea, 609, 0},
	"tlr/fixed/R3/f32=false/mvt7":         {0x3fc756a3e81fef30, 0x3f8941ed49dcb599, 609, 0},
	"tlr/fixed/R3/f32=false/prefix":       {0x9106b181b38afb7b, 0x3fc48139c89e1f9d},
	"tlr/fixed/R5/f32=false/mvn":          {0x3fc60e46a334b170, 0x3f8284f51b617410, 1015, 0},
	"tlr/fixed/R5/f32=false/mvt7":         {0x3fc7cf6d78254edd, 0x3f7eb04bd396a777, 1015, 0},
	"tlr/fixed/R5/f32=false/prefix":       {0x015951b23fa18a6f, 0x3fc60e46a334b170},
	"tlr/mixed/N203/f32=false/mvn":        {0x3fc36b204aa655ef, 0x3f739aedd57060c0},
	"tlr/mixed/N203/f32=false/mvt7":       {0x3fc66c257517f266, 0x3f91d08ba7cf2ce8},
	"tlr/mixed/N203/f32=false/prefix":     {0x3efe1285590daf70, 0x3fc36b204aa655ef},
	"tlr/mixed/N256/f32=false/mvn":        {0x3fc3df30def18336, 0x3f6b30cd22b220a0},
	"tlr/mixed/N256/f32=false/mvt7":       {0x3fc6e6bc3bed1dc8, 0x3f94fef5ad253374},
	"tlr/mixed/N256/f32=false/prefix":     {0x7b115494d00405f4, 0x3fc3df30def18336},
}
