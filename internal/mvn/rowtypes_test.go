package mvn

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
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

// rowTypeCases evaluates every pinned case: name → float bits (Prob, StdErr;
// for a prefix case a hash of every Prob and StdErr, then the last Prob).
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
					pre := PMVNPrefix(rt, f, a, b, opt)
					h := fnv.New64a()
					for _, vs := range [][]float64{pre.Prob, pre.StdErr} {
						for _, v := range vs {
							h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
						}
					}
					out[name+"/prefix"] = []uint64{h.Sum64(), math.Float64bits(pre.Prob[n-1])}
				}
			}
		}
	}
	return out
}

// TestRowTypesMatchParentBits pins the diagonal kernel's row step — the
// shifted limits, the interval probability, the conditioning value and every
// fix-up — against what the commit before the row-typed step (128bec9)
// returned, bit for bit, on a factor small enough that every row kind, both
// arms and every lane-vector shape occur: rowBitsVec with the vector kernels,
// rowBitsGo under REPRO_NOASM=1. A failure prints every got/parent pair.
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
	"dense/dying/N203/f32=false/mvn":    {0x2c21adca22b5e6cd, 0x2c21a898e59e2723},
	"dense/dying/N203/f32=false/mvt7":   {0x35e369c7bb63664e, 0x35d50e0701df3a2f},
	"dense/dying/N203/f32=false/prefix": {0x39e42e594c654504, 0x2c21adca22b5e6cd},
	"dense/dying/N203/f32=true/mvn":     {0x2c21ade56fcb0281, 0x2c21a8b4216e6f6f},
	"dense/dying/N203/f32=true/mvt7":    {0x35e369fe526ef61e, 0x35d50e79d0618323},
	"dense/dying/N203/f32=true/prefix":  {0x841589287a9fce92, 0x2c21ade56fcb0281},
	"dense/dying/N256/f32=false/mvn":    {0x2c1c099e930c7c0a, 0x2c1c01627c28d212},
	"dense/dying/N256/f32=false/mvt7":   {0x367ae41f92b7d163, 0x367ae099a9eaa47b},
	"dense/dying/N256/f32=false/prefix": {0x15f94beb8bdd091d, 0x2c1c099e930c7c0a},
	"dense/dying/N256/f32=true/mvn":     {0x2c1c09c9df4bf5f9, 0x2c1c018dad0524b9},
	"dense/dying/N256/f32=true/mvt7":    {0x367ae3fc6c27102c, 0x367ae07684777082},
	"dense/dying/N256/f32=true/prefix":  {0xd0327bae1cf835df, 0x2c1c09c9df4bf5f9},
	"dense/mixed/N203/f32=false/mvn":    {0x3fc36b06f6d2f5a3, 0x3f739e448324dfc0},
	"dense/mixed/N203/f32=false/mvt7":   {0x3fc66c587c77f07c, 0x3f91d0fa553841a4},
	"dense/mixed/N203/f32=false/prefix": {0x5ae1c88e891b51e1, 0x3fc36b06f6d2f5a3},
	"dense/mixed/N203/f32=true/mvn":     {0x3fc36b06ef923cf4, 0x3f739e448934cd30},
	"dense/mixed/N203/f32=true/mvt7":    {0x3fc66c5883606318, 0x3f91d0fa66a63f98},
	"dense/mixed/N203/f32=true/prefix":  {0x18f09d4e168ee0f8, 0x3fc36b06ef923cf4},
	"dense/mixed/N256/f32=false/mvn":    {0x3fc3df27d884bd77, 0x3f6b3696af41d4c0},
	"dense/mixed/N256/f32=false/mvt7":   {0x3fc6e712992a0a5e, 0x3f94fe1278dbd474},
	"dense/mixed/N256/f32=false/prefix": {0xc9466139b75646c3, 0x3fc3df27d884bd77},
	"dense/mixed/N256/f32=true/mvn":     {0x3fc3df27d2813b2b, 0x3f6b3695de19a8c0},
	"dense/mixed/N256/f32=true/mvt7":    {0x3fc6e7129e8aa8a9, 0x3f94fe128101d7a0},
	"dense/mixed/N256/f32=true/prefix":  {0x405222f88fbcba90, 0x3fc3df27d2813b2b},
	"tlr/dying/N203/f32=false/mvn":      {0x2c2200899818a6d3, 0x2c21f7757580dc2e},
	"tlr/dying/N203/f32=false/mvt7":     {0x35e6b94d7d19b106, 0x35d85ce991c9db10},
	"tlr/dying/N203/f32=false/prefix":   {0x12eed5cc09c1000d, 0x2c2200899818a6d3},
	"tlr/dying/N203/f32=true/mvn":       {0x2c2200c4cec1481c, 0x2c21f7b0761e8cc1},
	"tlr/dying/N203/f32=true/mvt7":      {0x35e6b96d48d817b2, 0x35d85d34c85a9b21},
	"tlr/dying/N203/f32=true/prefix":    {0x3bf4d5ea7150cd95, 0x2c2200c4cec1481c},
	"tlr/dying/N256/f32=false/mvn":      {0x2c1c8cda373713bd, 0x2c1c7e74485a585d},
	"tlr/dying/N256/f32=false/mvt7":     {0x3681ebde709685ad, 0x3681e9c76a20cc37},
	"tlr/dying/N256/f32=false/prefix":   {0x3151321e6bc660a4, 0x2c1c8cda373713bd},
	"tlr/dying/N256/f32=true/mvn":       {0x2c1c8cf36cb1c6ad, 0x2c1c7e8d6765e911},
	"tlr/dying/N256/f32=true/mvt7":      {0x3681ebd2ca2f509a, 0x3681e9bbc5b46d84},
	"tlr/dying/N256/f32=true/prefix":    {0x5a6976714d0ec11e, 0x2c1c8cf36cb1c6ad},
	"tlr/mixed/N203/f32=false/mvn":      {0x3fc36acf06757c75, 0x3f73a301e8d61600},
	"tlr/mixed/N203/f32=false/mvt7":     {0x3fc66c4f561972e0, 0x3f91cf94230ca374},
	"tlr/mixed/N203/f32=false/prefix":   {0xad18bb8ed64c7ca4, 0x3fc36acf06757c75},
	"tlr/mixed/N203/f32=true/mvn":       {0x3fc36acf05b3da26, 0x3f73a3023bb244b0},
	"tlr/mixed/N203/f32=true/mvt7":      {0x3fc66c4f6044493c, 0x3f91cf945e343744},
	"tlr/mixed/N203/f32=true/prefix":    {0x8186364a22bde798, 0x3fc36acf05b3da26},
	"tlr/mixed/N256/f32=false/mvn":      {0x3fc3df49b9f164c4, 0x3f6b15546f4215a0},
	"tlr/mixed/N256/f32=false/mvt7":     {0x3fc6e6921afd1c02, 0x3f94fcaed4b086ac},
	"tlr/mixed/N256/f32=false/prefix":   {0xd4850a7b2b534c3c, 0x3fc3df49b9f164c4},
	"tlr/mixed/N256/f32=true/mvn":       {0x3fc3df49ba29e97a, 0x3f6b1555bd673560},
	"tlr/mixed/N256/f32=true/mvt7":      {0x3fc6e6921cce6ef5, 0x3f94fcaefef08f28},
	"tlr/mixed/N256/f32=true/prefix":    {0x3c1f720e41ba11e9, 0x3fc3df49ba29e97a},
}

var rowBitsGo = map[string][]uint64{
	"dense/dying/N203/f32=false/mvn":    {0x2c21adca22b779ba, 0x2c21a898e59fb93b},
	"dense/dying/N203/f32=false/mvt7":   {0x35e369c7bb6426f2, 0x35d50e0701e01b4f},
	"dense/dying/N203/f32=false/prefix": {0xce72b57a55aa80a0, 0x2c21adca22b779ba},
	"dense/dying/N203/f32=true/mvn":     {0x2c21ae0957bde45d, 0x2c21a8d8169e0ab2},
	"dense/dying/N203/f32=true/mvt7":    {0x35e369ed3bc08e5a, 0x35d50e45a8046e9b},
	"dense/dying/N203/f32=true/prefix":  {0x3be3a88438fe2e8b, 0x2c21ae0957bde45d},
	"dense/dying/N256/f32=false/mvn":    {0x2c1c099e930efb0d, 0x2c1c01627c2b4fc5},
	"dense/dying/N256/f32=false/mvt7":   {0x367ae41f92b8875a, 0x367ae099a9eb5a52},
	"dense/dying/N256/f32=false/prefix": {0x204592b666f3bc43, 0x2c1c099e930efb0d},
	"dense/dying/N256/f32=true/mvn":     {0x2c1c0a02d127282b, 0x2c1c01c6b3dea4f7},
	"dense/dying/N256/f32=true/mvt7":    {0x367ae426edd57fc9, 0x367ae0a102955dd1},
	"dense/dying/N256/f32=true/prefix":  {0x5bf10f7fcd30d7a4, 0x2c1c0a02d127282b},
	"dense/mixed/N203/f32=false/mvn":    {0x3fc36b06f6d2f560, 0x3f739e448324da10},
	"dense/mixed/N203/f32=false/mvt7":   {0x3fc66c587c77f084, 0x3f91d0fa55384168},
	"dense/mixed/N203/f32=false/prefix": {0x955fb7f5a7ea423f, 0x3fc36b06f6d2f560},
	"dense/mixed/N203/f32=true/mvn":     {0x3fc36b06f708ed99, 0x3f739e445ee62880},
	"dense/mixed/N203/f32=true/mvt7":    {0x3fc66c5881d47b06, 0x3f91d0fa86055ebc},
	"dense/mixed/N203/f32=true/prefix":  {0xe9aa6751141a1a71, 0x3fc36b06f708ed99},
	"dense/mixed/N256/f32=false/mvn":    {0x3fc3df27d884bd38, 0x3f6b3696af41d8a0},
	"dense/mixed/N256/f32=false/mvt7":   {0x3fc6e712992a0a50, 0x3f94fe1278dbd4e0},
	"dense/mixed/N256/f32=false/prefix": {0xca1c3fd523036a8e, 0x3fc3df27d884bd38},
	"dense/mixed/N256/f32=true/mvn":     {0x3fc3df27dc5acb4c, 0x3f6b3696a8cb6a80},
	"dense/mixed/N256/f32=true/mvt7":    {0x3fc6e7129b564042, 0x3f94fe1295b1aa08},
	"dense/mixed/N256/f32=true/prefix":  {0x5733140ae2d4f033, 0x3fc3df27dc5acb4c},
	"tlr/dying/N203/f32=false/mvn":      {0x2c2200899817f8bf, 0x2c21f77575802dc7},
	"tlr/dying/N203/f32=false/mvt7":     {0x35e6b94d7d19acb4, 0x35d85ce991ca7813},
	"tlr/dying/N203/f32=false/prefix":   {0xf33fabd5460ada89, 0x2c2200899817f8bf},
	"tlr/dying/N203/f32=true/mvn":       {0x2c2200c84fac01f9, 0x2c21f7b40f235200},
	"tlr/dying/N203/f32=true/mvt7":      {0x35e6b9706fa3f29a, 0x35d85d37cf6fd4b8},
	"tlr/dying/N203/f32=true/prefix":    {0xbbb863377d5ab73f, 0x2c2200c84fac01f9},
	"tlr/dying/N256/f32=false/mvn":      {0x2c1c8cda37360480, 0x2c1c7e744859489a},
	"tlr/dying/N256/f32=false/mvt7":     {0x3681ebde7095da1d, 0x3681e9c76a2020b8},
	"tlr/dying/N256/f32=false/prefix":   {0xa687231ddfab918f, 0x2c1c8cda37360480},
	"tlr/dying/N256/f32=true/mvn":       {0x2c1c8d3dae5acb1f, 0x2c1c7ed79002040a},
	"tlr/dying/N256/f32=true/mvt7":      {0x3681ebea3f7fc1bf, 0x3681e9d339ddcfb4},
	"tlr/dying/N256/f32=true/prefix":    {0xc432e5a039d5c128, 0x2c1c8d3dae5acb1f},
	"tlr/mixed/N203/f32=false/mvn":      {0x3fc36acf06757d4a, 0x3f73a301e8d5fff0},
	"tlr/mixed/N203/f32=false/mvt7":     {0x3fc66c4f5619731a, 0x3f91cf94230c9e84},
	"tlr/mixed/N203/f32=false/prefix":   {0x871eb852513ab367, 0x3fc36acf06757d4a},
	"tlr/mixed/N203/f32=true/mvn":       {0x3fc36acefeabc82e, 0x3f73a301e9797bf0},
	"tlr/mixed/N203/f32=true/mvt7":      {0x3fc66c4f61de35b0, 0x3f91cf948aea4df0},
	"tlr/mixed/N203/f32=true/prefix":    {0xf1c0545988c639b0, 0x3fc36acefeabc82e},
	"tlr/mixed/N256/f32=false/mvn":      {0x3fc3df49b9f16571, 0x3f6b15546f4247c0},
	"tlr/mixed/N256/f32=false/mvt7":     {0x3fc6e6921afd1c82, 0x3f94fcaed4b0827c},
	"tlr/mixed/N256/f32=false/prefix":   {0x95c7e49493eb6455, 0x3fc3df49b9f16571},
	"tlr/mixed/N256/f32=true/mvn":       {0x3fc3df49b543812e, 0x3f6b15555535c2a0},
	"tlr/mixed/N256/f32=true/mvt7":      {0x3fc6e69226fb585b, 0x3f94fcaf03fccb90},
	"tlr/mixed/N256/f32=true/prefix":    {0x864bb9fd3e733ac3, 0x3fc3df49b543812e},
}
