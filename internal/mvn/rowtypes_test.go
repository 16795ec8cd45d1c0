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
// tile of 16, the width the entry points use.
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
					opt, mc := Options{N: shape[0], Replicates: 2, SweepF32: f32}, shape[1]
					name := fmt.Sprintf("%s/%s/N%d/f32=%v", fname, bname, shape[0], f32)
					r := integrate(rt, f, a, b, opt, mc, 0, nil)
					out[name+"/mvn"] = []uint64{math.Float64bits(r.Prob), math.Float64bits(r.StdErr)}
					r = integrate(rt, f, a, b, opt, mc, 7, nil)
					out[name+"/mvt7"] = []uint64{math.Float64bits(r.Prob), math.Float64bits(r.StdErr)}
					out[name+"/prefix"] = prefixBits(prefix(rt, f, a, b, opt, mc))
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
				integratorBits(t, out, name, rt, f, a, b, Options{N: 203, Replicates: reps, SweepF32: f32}, 50)
			}
			for _, target := range []float64{5e-2, 1e-9} {
				for _, reps := range []int{0, 3} {
					name := fmt.Sprintf("%s/budget%g/R%d/f32=%v", fname, target, reps, f32)
					integratorBits(t, out, name, rt, f, a, b, Options{N: 1999, Replicates: reps, MaxRelErr: target, SweepF32: f32}, 50)
				}
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
	"tlr/budget0.05/R0/f32=false/mvn":     {0x3fc49a93b4fbd61a, 0x3f7ee532c9505461, 400, 1},
	"tlr/budget0.05/R0/f32=false/mvt7":    {0x3fc4be1c737c59da, 0x3f8062879e02ba5d, 1600, 1},
	"tlr/budget0.05/R0/f32=true/mvn":      {0x3fc49a93bc5adc30, 0x3f7ee53353c0aa39, 400, 1},
	"tlr/budget0.05/R0/f32=true/mvt7":     {0x3fc4be1c760a6cba, 0x3f806287b3af17e0, 1600, 1},
	"tlr/budget0.05/R3/f32=false/mvn":     {0x3fc3eddd5d8b3f81, 0x3f7f413f62c7cd5a, 300, 1},
	"tlr/budget0.05/R3/f32=false/mvt7":    {0x3fc5e641e20922e3, 0x3f841c3eb700bd84, 2100, 0},
	"tlr/budget0.05/R3/f32=true/mvn":      {0x3fc3eddd65691ddb, 0x3f7f41408a6081f9, 300, 1},
	"tlr/budget0.05/R3/f32=true/mvt7":     {0x3fc5e641e20982f3, 0x3f841c3ee2cb9ba7, 2100, 0},
	"tlr/budget1e-09/R0/f32=false/mvn":    {0x3fc533120c90d59d, 0x3f66db5320083aca, 2000, 0},
	"tlr/budget1e-09/R0/f32=false/mvt7":   {0x3fc58b9cc6b9b2dd, 0x3f805b708fc74acf, 2000, 0},
	"tlr/budget1e-09/R0/f32=true/mvn":     {0x3fc533120e987332, 0x3f66db5323f63471, 2000, 0},
	"tlr/budget1e-09/R0/f32=true/mvt7":    {0x3fc58b9cc834e9af, 0x3f805b70a868c239, 2000, 0},
	"tlr/budget1e-09/R3/f32=false/mvn":    {0x3fc554722cde1d29, 0x3f80a7b1f58fa7bf, 2100, 0},
	"tlr/budget1e-09/R3/f32=false/mvt7":   {0x3fc5e641e20922e3, 0x3f841c3eb700bd84, 2100, 0},
	"tlr/budget1e-09/R3/f32=true/mvn":     {0x3fc554722efefa90, 0x3f80a7b1e6689456, 2100, 0},
	"tlr/budget1e-09/R3/f32=true/mvt7":    {0x3fc5e641e20982f3, 0x3f841c3ee2cb9ba7, 2100, 0},
	"tlr/dying/N203/f32=false/mvn":        {0x2c21b4569f601e50, 0x2c21adc7ca691acb},
	"tlr/dying/N203/f32=false/mvt7":       {0x35e3f8f4d92bce54, 0x35d60e39ab64fed1},
	"tlr/dying/N203/f32=false/prefix":     {0x7b474ec4c000d82f, 0x2c21b4569f601e50},
	"tlr/dying/N203/f32=true/mvn":         {0x2c21b43c30d66216, 0x2c21adad40d146a8},
	"tlr/dying/N203/f32=true/mvt7":        {0x35e3f8fbecda4dcf, 0x35d60e4cfe79ab66},
	"tlr/dying/N203/f32=true/prefix":      {0x828e10d3c36d4547, 0x2c21b43c30d66216},
	"tlr/dying/N256/f32=false/mvn":        {0x2c1c140160c27012, 0x2c1c099adb02b07d},
	"tlr/dying/N256/f32=false/mvt7":       {0x367baa1d948c2e52, 0x367ba691b166cdb9},
	"tlr/dying/N256/f32=false/prefix":     {0xbf5e5d09b22ecc25, 0x2c1c140160c27012},
	"tlr/dying/N256/f32=true/mvn":         {0x2c1c13d77573ff8d, 0x2c1c0970c4cbe60e},
	"tlr/dying/N256/f32=true/mvt7":        {0x367baa21471482c1, 0x367ba69564f58cd2},
	"tlr/dying/N256/f32=true/prefix":      {0x827958450eda98d7, 0x2c1c13d77573ff8d},
	"tlr/fixed/R1/f32=false/mvn":          {0x3fc407f7b951d8f2, 0x0000000000000000, 203, 0},
	"tlr/fixed/R1/f32=false/mvt7":         {0x3fc8a636ea11d861, 0x0000000000000000, 203, 0},
	"tlr/fixed/R1/f32=false/prefix":       {0x4cd3fc180bb6da36, 0x3fc407f7b951d8f2},
	"tlr/fixed/R1/f32=true/mvn":           {0x3fc407f7c027cb29, 0x0000000000000000, 203, 0},
	"tlr/fixed/R1/f32=true/mvt7":          {0x3fc8a636f1c34566, 0x0000000000000000, 203, 0},
	"tlr/fixed/R1/f32=true/prefix":        {0x22b2e607409a541b, 0x3fc407f7c027cb29},
	"tlr/fixed/R3/f32=false/mvn":          {0x3fc48139c89e1f9d, 0x3f824788219586e9, 609, 0},
	"tlr/fixed/R3/f32=false/mvt7":         {0x3fc756a3e81fef48, 0x3f8941ed49dcb57b, 609, 0},
	"tlr/fixed/R3/f32=false/prefix":       {0x364676a6bbe8c4ef, 0x3fc48139c89e1f9d},
	"tlr/fixed/R3/f32=true/mvn":           {0x3fc48139c131a879, 0x3f8247889606d08b, 609, 0},
	"tlr/fixed/R3/f32=true/mvt7":          {0x3fc756a3ed93811b, 0x3f8941ed40a52bcf, 609, 0},
	"tlr/fixed/R3/f32=true/prefix":        {0x34c492422a1431b2, 0x3fc48139c131a879},
	"tlr/fixed/R5/f32=false/mvn":          {0x3fc60e46a334b186, 0x3f8284f51b6174fe, 1015, 0},
	"tlr/fixed/R5/f32=false/mvt7":         {0x3fc7cf6d78254ef3, 0x3f7eb04bd396a661, 1015, 0},
	"tlr/fixed/R5/f32=false/prefix":       {0x4be60f090fa22f82, 0x3fc60e46a334b186},
	"tlr/fixed/R5/f32=true/mvn":           {0x3fc60e469f467122, 0x3f8284f5491a3417, 1015, 0},
	"tlr/fixed/R5/f32=true/mvt7":          {0x3fc7cf6d7ad612d0, 0x3f7eb04bae7bb858, 1015, 0},
	"tlr/fixed/R5/f32=true/prefix":        {0xb810fad9bb82e3f7, 0x3fc60e469f467122},
	"tlr/mixed/N203/f32=false/mvn":        {0x3fc36b204aa655ee, 0x3f739aedd5706090},
	"tlr/mixed/N203/f32=false/mvt7":       {0x3fc66c257517f2a0, 0x3f91d08ba7cf2e0c},
	"tlr/mixed/N203/f32=false/prefix":     {0xff687a89688a0930, 0x3fc36b204aa655ee},
	"tlr/mixed/N203/f32=true/mvn":         {0x3fc36b203f0a390a, 0x3f739af023b243d0},
	"tlr/mixed/N203/f32=true/mvt7":        {0x3fc66c257c18c600, 0x3f91d08bad53fb34},
	"tlr/mixed/N203/f32=true/prefix":      {0x76e8055e3903c4e0, 0x3fc36b203f0a390a},
	"tlr/mixed/N256/f32=false/mvn":        {0x3fc3df30def18323, 0x3f6b30cd22b21940},
	"tlr/mixed/N256/f32=false/mvt7":       {0x3fc6e6bc3bed1de6, 0x3f94fef5ad25355c},
	"tlr/mixed/N256/f32=false/prefix":     {0xd16cfa12965ce59d, 0x3fc3df30def18323},
	"tlr/mixed/N256/f32=true/mvn":         {0x3fc3df30dab18333, 0x3f6b30c953e84240},
	"tlr/mixed/N256/f32=true/mvt7":        {0x3fc6e6bc42cba6a0, 0x3f94fef5cba13bb4},
	"tlr/mixed/N256/f32=true/prefix":      {0xa23707ed9c99ba86, 0x3fc3df30dab18333},
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
	"tlr/budget0.05/R0/f32=false/mvn":     {0x3fc49a93b4fbd632, 0x3f7ee532c9505373, 400, 1},
	"tlr/budget0.05/R0/f32=false/mvt7":    {0x3fc4be1c737c59be, 0x3f8062879e02b9f9, 1600, 1},
	"tlr/budget0.05/R0/f32=true/mvn":      {0x3fc49a93b26e3dfc, 0x3f7ee533b9847c49, 400, 1},
	"tlr/budget0.05/R0/f32=true/mvt7":     {0x3fc4be1c810fce06, 0x3f806287a045cc26, 1600, 1},
	"tlr/budget0.05/R3/f32=false/mvn":     {0x3fc3eddd5d8b3f8b, 0x3f7f413f62c7c8fe, 300, 1},
	"tlr/budget0.05/R3/f32=false/mvt7":    {0x3fc5e641e20922d5, 0x3f841c3eb700bca5, 2100, 0},
	"tlr/budget0.05/R3/f32=true/mvn":      {0x3fc3eddd57521c63, 0x3f7f41409b6a75b4, 300, 1},
	"tlr/budget0.05/R3/f32=true/mvt7":     {0x3fc5e641e8827b1d, 0x3f841c3eaf4b902c, 2100, 0},
	"tlr/budget1e-09/R0/f32=false/mvn":    {0x3fc533120c90d5a8, 0x3f66db5320084168, 2000, 0},
	"tlr/budget1e-09/R0/f32=false/mvt7":   {0x3fc58b9cc6b9b2c6, 0x3f805b708fc74a54, 2000, 0},
	"tlr/budget1e-09/R0/f32=true/mvn":     {0x3fc533120e56aed5, 0x3f66db52fe1ac039, 2000, 0},
	"tlr/budget1e-09/R0/f32=true/mvt7":    {0x3fc58b9ccd35c6c2, 0x3f805b7086e8aaf1, 2000, 0},
	"tlr/budget1e-09/R3/f32=false/mvn":    {0x3fc554722cde1d13, 0x3f80a7b1f58fa916, 2100, 0},
	"tlr/budget1e-09/R3/f32=false/mvt7":   {0x3fc5e641e20922d5, 0x3f841c3eb700bca5, 2100, 0},
	"tlr/budget1e-09/R3/f32=true/mvn":     {0x3fc554722ecfd88b, 0x3f80a7b1eb5da2d7, 2100, 0},
	"tlr/budget1e-09/R3/f32=true/mvt7":    {0x3fc5e641e8827b1d, 0x3f841c3eaf4b902c, 2100, 0},
	"tlr/dying/N203/f32=false/mvn":        {0x2c21b4569f5fe14d, 0x2c21adc7ca68dddb},
	"tlr/dying/N203/f32=false/mvt7":       {0x35e3f8f4d92bed81, 0x35d60e39ab64f356},
	"tlr/dying/N203/f32=false/prefix":     {0x85916fa195143490, 0x2c21b4569f5fe14d},
	"tlr/dying/N203/f32=true/mvn":         {0x2c21b48ece4c9dae, 0x2c21adffad6e6781},
	"tlr/dying/N203/f32=true/mvt7":        {0x35e3f8ecc62be740, 0x35d60e28cc631add},
	"tlr/dying/N203/f32=true/prefix":      {0x437b5e23d1829d65, 0x2c21b48ece4c9dae},
	"tlr/dying/N256/f32=false/mvn":        {0x2c1c140160c20f4f, 0x2c1c099adb024fda},
	"tlr/dying/N256/f32=false/mvt7":       {0x367baa1d948bd9d3, 0x367ba691b166792c},
	"tlr/dying/N256/f32=false/prefix":     {0x1d214a3c2ac26764, 0x2c1c140160c20f4f},
	"tlr/dying/N256/f32=true/mvn":         {0x2c1c145a7b2d8213, 0x2c1c09f37d0d1827},
	"tlr/dying/N256/f32=true/mvt7":        {0x367baa5c201cc8f4, 0x367ba6d03cd2bb32},
	"tlr/dying/N256/f32=true/prefix":      {0x7c18556c3621ad83, 0x2c1c145a7b2d8213},
	"tlr/fixed/R1/f32=false/mvn":          {0x3fc407f7b951d8f5, 0x0000000000000000, 203, 0},
	"tlr/fixed/R1/f32=false/mvt7":         {0x3fc8a636ea11d803, 0x0000000000000000, 203, 0},
	"tlr/fixed/R1/f32=false/prefix":       {0xce9b156b898ec167, 0x3fc407f7b951d8f5},
	"tlr/fixed/R1/f32=true/mvn":           {0x3fc407f7c070b605, 0x0000000000000000, 203, 0},
	"tlr/fixed/R1/f32=true/mvt7":          {0x3fc8a63706f3b239, 0x0000000000000000, 203, 0},
	"tlr/fixed/R1/f32=true/prefix":        {0xb42923dc8f30d446, 0x3fc407f7c070b605},
	"tlr/fixed/R3/f32=false/mvn":          {0x3fc48139c89e1f9d, 0x3f824788219586ea, 609, 0},
	"tlr/fixed/R3/f32=false/mvt7":         {0x3fc756a3e81fef30, 0x3f8941ed49dcb599, 609, 0},
	"tlr/fixed/R3/f32=false/prefix":       {0x9106b181b38afb7b, 0x3fc48139c89e1f9d},
	"tlr/fixed/R3/f32=true/mvn":           {0x3fc48139c842cd38, 0x3f8247882b811650, 609, 0},
	"tlr/fixed/R3/f32=true/mvt7":          {0x3fc756a3efb7d317, 0x3f8941ed9b8160bd, 609, 0},
	"tlr/fixed/R3/f32=true/prefix":        {0x4d05ef3d40429142, 0x3fc48139c842cd38},
	"tlr/fixed/R5/f32=false/mvn":          {0x3fc60e46a334b170, 0x3f8284f51b617410, 1015, 0},
	"tlr/fixed/R5/f32=false/mvt7":         {0x3fc7cf6d78254edd, 0x3f7eb04bd396a777, 1015, 0},
	"tlr/fixed/R5/f32=false/prefix":       {0x015951b23fa18a6f, 0x3fc60e46a334b170},
	"tlr/fixed/R5/f32=true/mvn":           {0x3fc60e469d3f290a, 0x3f8284f4f417a2d0, 1015, 0},
	"tlr/fixed/R5/f32=true/mvt7":          {0x3fc7cf6d779ccc22, 0x3f7eb04bea3fa6da, 1015, 0},
	"tlr/fixed/R5/f32=true/prefix":        {0x22f74984aa7b5aa2, 0x3fc60e469d3f290a},
	"tlr/mixed/N203/f32=false/mvn":        {0x3fc36b204aa655ef, 0x3f739aedd57060c0},
	"tlr/mixed/N203/f32=false/mvt7":       {0x3fc66c257517f266, 0x3f91d08ba7cf2ce8},
	"tlr/mixed/N203/f32=false/prefix":     {0x3efe1285590daf70, 0x3fc36b204aa655ef},
	"tlr/mixed/N203/f32=true/mvn":         {0x3fc36b204aed6952, 0x3f739aeeb0699670},
	"tlr/mixed/N203/f32=true/mvt7":        {0x3fc66c25815bd3b8, 0x3f91d08c2cbef408},
	"tlr/mixed/N203/f32=true/prefix":      {0x59ac96a52a50585b, 0x3fc36b204aed6952},
	"tlr/mixed/N256/f32=false/mvn":        {0x3fc3df30def18336, 0x3f6b30cd22b220a0},
	"tlr/mixed/N256/f32=false/mvt7":       {0x3fc6e6bc3bed1dc8, 0x3f94fef5ad253374},
	"tlr/mixed/N256/f32=false/prefix":     {0x7b115494d00405f4, 0x3fc3df30def18336},
	"tlr/mixed/N256/f32=true/mvn":         {0x3fc3df30e654009e, 0x3f6b30cd2c953460},
	"tlr/mixed/N256/f32=true/mvt7":        {0x3fc6e6bc46df3ee1, 0x3f94fef60c9ed628},
	"tlr/mixed/N256/f32=true/prefix":      {0xab967ef58db2cc22, 0x3fc3df30e654009e},
}
