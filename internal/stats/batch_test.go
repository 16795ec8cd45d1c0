package stats

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// hardInputs are the deep-tail, endpoint and non-finite arguments the batch
// functions must handle consistently with their scalar counterparts.
var hardInputs = []float64{
	math.Inf(-1), -40, -37.6, -8.3, -8.2, -6, -1.5, -0.425001, -0.425,
	-1e-9, 0, 1e-9, 0.3, 0.425, 0.425001, 0.84374, 0.84375, 1.2, 1.25,
	2.857142, 2.857143, 6, 8.2, 8.3, 26.5, 26.6, 27.2, 28, 37.6, 40,
	math.Inf(1), math.NaN(),
}

// hardProbs covers PhiInv's regions: endpoints, subnormal-tail p, central
// band boundaries and out-of-range values.
var hardProbs = []float64{
	0, 5e-324, 1e-300, 1e-17, 1e-9, 0.074, 0.075, 0.0749999,
	0.3, 0.5, 0.7, 0.9249999, 0.925, 0.9250001, 1 - 1e-9, 1 - 1e-16, 1,
	-0.1, 1.1, math.NaN(),
}

func sameFloat(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return a == b
}

// tinyAbsTol is the absolute agreement floor for near-underflow erfc tails:
// the vector exp clamps at exp(−708), inflating results below
// ErfcVecTinyAbs by at most ~1.3e-309 (see batch.go).
const tinyAbsTol = 2e-309

// closeTol reports whether got agrees with want within an absolute
// tolerance, treating NaN/Inf by identity.
func closeTol(got, want, tol float64) bool {
	if math.IsNaN(want) || math.IsNaN(got) {
		return math.IsNaN(want) && math.IsNaN(got)
	}
	if math.IsInf(want, 0) || math.IsInf(got, 0) {
		return got == want
	}
	return math.Abs(got-want) <= tol
}

// erfcTol is the documented agreement bound for a single erfc-derived value:
// relative for results above the tiny floor, absolute below it.
func erfcTol(want float64) float64 {
	t := ErfcVecMaxRel * math.Abs(want)
	if math.Abs(want) < ErfcVecTinyAbs {
		t = tinyAbsTol
	}
	return t
}

// intervalTol bounds the interval probability dif = Φ(b)−Φ(a): the two erfc
// streams carry relative error, so a nearly-cancelled difference is accurate
// relative to the bounding tail mass 2·min(Φ(a),Φ(−a)) + |dif|, not to dif
// itself.
func intervalTol(a, dif float64) float64 {
	m := 0.5 * math.Erfc(math.Abs(a)/Sqrt2)
	return ErfcVecMaxRel*(2*m+math.Abs(dif)) + tinyAbsTol
}

// setVecSpecials flips the vector-kernel dispatch for the duration of a
// (sub)test, restoring the host default afterwards.
func setVecSpecials(t *testing.T, on bool) {
	t.Helper()
	old := hasVecSpecials
	if on && !old {
		t.Skip("no vector kernels on this host")
	}
	hasVecSpecials = on
	t.Cleanup(func() { hasVecSpecials = old })
}

func phiInputs() []float64 {
	xs := append([]float64(nil), hardInputs...)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		xs = append(xs, (rng.Float64()-0.5)*80)
	}
	for i := 0; i < 2000; i++ {
		xs = append(xs, rng.NormFloat64())
	}
	return xs
}

func intervalInputs(seed int64) (as, bs []float64) {
	for _, a := range hardInputs {
		for _, b := range hardInputs {
			as = append(as, a)
			bs = append(bs, b)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 2000; i++ {
		a := (rng.Float64() - 0.5) * 80
		as = append(as, a)
		bs = append(bs, a+rng.NormFloat64()*3)
	}
	// Nearly-degenerate intervals: a ≈ b stresses the cancellation bound.
	for i := 0; i < 500; i++ {
		a := rng.NormFloat64() * 4
		as = append(as, a)
		bs = append(bs, a+math.Abs(rng.NormFloat64())*1e-8)
	}
	return as, bs
}

func TestErfcBatchMatchesScalar(t *testing.T) {
	xs := phiInputs()
	dst := make([]float64, len(xs))
	ErfcBatch(xs, dst)
	for i, x := range xs {
		want := math.Erfc(x)
		if !closeTol(dst[i], want, erfcTol(want)) {
			t.Fatalf("ErfcBatch(%g) = %g, scalar %g", x, dst[i], want)
		}
	}
}

// TestBatchScalarPathIsExact pins the kill-switch fallback: with the vector
// kernels disabled every batch form is bit-identical to its scalar
// counterpart, which is what REPRO_NOASM=1 runs verify continuously.
func TestBatchScalarPathIsExact(t *testing.T) {
	setVecSpecials(t, false)
	xs := phiInputs()
	dst := make([]float64, len(xs))
	ErfcBatch(xs, dst)
	for i, x := range xs {
		if want := math.Erfc(x); !sameFloat(dst[i], want) {
			t.Fatalf("scalar ErfcBatch(%g) = %g, want %g", x, dst[i], want)
		}
	}
	as, bs := intervalInputs(11)
	for i := range as {
		checkGenzRow(t, as[i], bs[i], genzAcc, 0.7, nil, genzDraws)
		checkGenzRow(t, as[i], bs[i], genzAcc, 0.07, genzScales, genzDraws)
	}
	ps := append([]float64(nil), hardProbs...)
	inv := make([]float64, len(ps))
	PhiInvBatch(ps, inv)
	for i, p := range ps {
		if want := PhiInv(p); !sameFloat(inv[i], want) {
			t.Fatalf("scalar PhiInvBatch(%g) = %g, want %g", p, inv[i], want)
		}
	}
}

func TestPhiIntervalBatchMatchesScalar(t *testing.T) {
	as, bs := intervalInputs(2)
	dst := make([]float64, len(as))
	PhiIntervalBatch(as, bs, dst)
	for i := range as {
		want := PhiInterval(as[i], bs[i])
		if !closeTol(dst[i], want, intervalTol(as[i], want)) {
			t.Fatalf("PhiIntervalBatch(%g,%g) = %g, scalar %g", as[i], bs[i], dst[i], want)
		}
	}
}

// The lanes every GenzRow row of the tests below is evaluated over:
// conditioning sums that put the shifted limits in every erfc region and on
// both sides of zero (with the non-finite ones), χ² scales and draws that
// reach both Φ⁻¹ tails. 13 lanes: three vector blocks and a ragged one.
var (
	genzAcc    = []float64{0, -0.3, 0.3, 2, -2, 9, -9, 30, -30, math.Inf(1), math.Inf(-1), math.NaN(), 1e-9}
	genzScales = []float64{1, 0.5, 1.7, 0.9, 1.1, 3, 0.2, 1, 1e-3, 1, 1.3, 0.8, 0}
	genzDraws  = []float64{0.5, 1e-17, 1 - 1e-16, 0.074, 0.926, 0.3, 0.7, 0.999, 1e-300, 0.5, 0.5, 0.5, 0.25}
)

// checkGenzRow runs GenzRow over one row and compares every lane with the
// scalar forms it fuses — the shift, PhiIntervalAndPhi, PhiInv: exactly on
// the scalar path, within the documented tolerances on the vector path.
func checkGenzRow(t *testing.T, lo, hi float64, acc []float64, d float64, s, w []float64) {
	t.Helper()
	n := len(acc)
	g := GenzLanes{A: make([]float64, n), B: make([]float64, n), Dif: make([]float64, n), U: make([]float64, n)}
	y := make([]float64, n)
	GenzRow(lo, hi, acc, d, s, w[:n], y, g)
	exact := !hasVecSpecials || n < 4
	for l := range acc {
		sl := 1.0
		if s != nil {
			sl = s[l]
		}
		a, b := lo, hi
		if !math.IsInf(lo, 0) {
			a = (lo*sl - acc[l]) / d
		}
		if !math.IsInf(hi, 0) {
			b = (hi*sl - acc[l]) / d
		}
		if ga, gb := g.Limits(lo, hi, l); !sameFloat(ga, a) || !sameFloat(gb, b) {
			t.Fatalf("row (%g,%g) lane %d: shifted limits (%g,%g), want (%g,%g)", lo, hi, l, ga, gb, a, b)
		}
		dif, da := PhiIntervalAndPhi(a, b)
		u := da + w[l]*dif
		difTol, uTol, yRel := intervalTol(a, dif), erfcTol(da)+3e-16+math.Abs(w[l])*intervalTol(a, dif), PhiInvVecMaxRel
		if exact {
			difTol, uTol, yRel = 0, 0, 0
		}
		if !closeTol(g.Dif[l], dif, difTol) {
			t.Fatalf("row (%g,%g) lane %d (a′=%g b′=%g): dif = %g, scalar %g", lo, hi, l, a, b, g.Dif[l], dif)
		}
		// Structural invariants the sweep relies on, independent of path: an
		// empty interval is exactly 0 and a live dif is positive.
		if b <= a && g.Dif[l] != 0 || g.Dif[l] < 0 {
			t.Fatalf("row (%g,%g) lane %d (a′=%g b′=%g): dif = %g", lo, hi, l, a, b, g.Dif[l])
		}
		if onVec := !exact && !math.IsInf(lo, 1) && !math.IsInf(hi, -1) && !(math.IsInf(lo, 0) && math.IsInf(hi, 0)); onVec {
			// On the vector path a typed row must return, bit for bit, what the
			// two-sided arithmetic returns over both shifted limits with the
			// infinite one evaluated too — what the sweep ran before rows were
			// typed (a live lane's da included, through u).
			x := []float64{a / Sqrt2, b / Sqrt2}
			if !(a >= 0) {
				x[0], x[1] = -x[0], -x[1]
			}
			erfcVec(x, x, 1, 0.5)
			vdif, vda := math.NaN(), math.NaN()
			switch {
			case b <= a:
				vdif, vda = 0, 0
			case a >= 0:
				vdif, vda = x[0]-x[1], 1-x[0]
			case a < 0:
				vdif, vda = x[1]-x[0], x[0]
			}
			if vu := vda + w[l]*vdif; !sameFloat(g.Dif[l], vdif) || vdif > 0 && !sameFloat(g.U[l], vu) {
				t.Fatalf("row (%g,%g) lane %d (a′=%g b′=%g w=%g): (dif, u) = (%g, %g), two-sided arithmetic (%g, %g)",
					lo, hi, l, a, b, w[l], g.Dif[l], g.U[l], vdif, vu)
			}
		}
		// y is Φ⁻¹ of the lane's own u on every lane (checkPhiInvLane).
		checkPhiInvLane(t, g.U[l], y[l], yRel)
		// u is only consumed when the lane survives (dif > 0).
		if dif > 0 && !closeTol(g.U[l], u, uTol) {
			t.Fatalf("row (%g,%g) lane %d (a′=%g b′=%g w=%g): u = %g, scalar %g", lo, hi, l, a, b, w[l], g.U[l], u)
		}
	}
}

// phiInvCentral reports whether p lies in AS241's central region
// |p − ½| ≤ 0.425, where the vector Φ⁻¹ evaluates the central rational (with
// FMA, so to PhiInvVecMaxRel); elsewhere (NaN included) its value is
// PhiInv's tail, bit for bit, or the NaN flag.
func phiInvCentral(p float64) bool {
	q := p - 0.5
	return q >= -0.425 && q <= 0.425
}

// checkPhiInvLane checks one lane of phiInvLanes (and of GenzRow's y): for p
// a normal number in (0,1), y is PhiInv(p) — bit for bit on a tail lane,
// within centralRel on a central one (0 demands the scalar bits there too) —
// and elsewhere y is the NaN flag.
func checkPhiInvLane(t *testing.T, p, y, centralRel float64) {
	t.Helper()
	want := PhiInv(p)
	switch {
	case !(p >= 0x1p-1022 && p < 1):
		if !math.IsNaN(y) {
			t.Fatalf("Φ⁻¹ lane p = %g (%#x): y = %g, want the NaN flag", p, math.Float64bits(p), y)
		}
	case phiInvCentral(p):
		if !closeTol(y, want, centralRel*math.Abs(want)) {
			t.Fatalf("Φ⁻¹ central lane p = %g: y = %g, PhiInv %g", p, y, want)
		}
	case math.Float64bits(y) != math.Float64bits(want):
		t.Fatalf("Φ⁻¹ tail lane p = %g (%#x): y = %g (%#x), PhiInv %g (%#x)", p, math.Float64bits(p), y, math.Float64bits(y), want, math.Float64bits(want))
	}
}

// TestGenzRowMatchesScalar runs every interval of intervalInputs — the
// half-open, degenerate and NaN ones among them — as the scalar limits of a
// row, MVN and MVT.
func TestGenzRowMatchesScalar(t *testing.T) {
	as, bs := intervalInputs(7)
	for i := range as {
		checkGenzRow(t, as[i], bs[i], genzAcc, 0.7, nil, genzDraws)
		checkGenzRow(t, as[i], bs[i], genzAcc, 0.07, genzScales, genzDraws)
	}
}

func TestPhiInvBatchMatchesScalar(t *testing.T) {
	ps := append([]float64(nil), hardProbs...)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 4000; i++ {
		ps = append(ps, rng.Float64())
	}
	// Probabilities clustered hard against 0 and 1.
	for e := 1; e < 300; e += 7 {
		ps = append(ps, math.Pow(10, -float64(e)), 1-math.Pow(10, -float64(e)))
	}
	dst := make([]float64, len(ps))
	PhiInvBatch(ps, dst)
	for i, p := range ps {
		want := PhiInv(p)
		tol := PhiInvVecMaxRel * math.Abs(want)
		if !closeTol(dst[i], want, tol) {
			t.Fatalf("PhiInvBatch(%g) = %g, scalar %g", p, dst[i], want)
		}
	}
}

// TestBatchAliasing: dst may alias the input slice; aliased calls fall back
// to the scalar path, so they agree with the scalar reference exactly.
func TestBatchAliasing(t *testing.T) {
	p := []float64{0.01, 0.3, 0.5, 0.7, 0.99}
	wantInv := make([]float64, len(p))
	phiInvBatchScalar(p, wantInv)
	aliasedP := append([]float64(nil), p...)
	PhiInvBatch(aliasedP, aliasedP)
	for i := range p {
		if !sameFloat(aliasedP[i], wantInv[i]) {
			t.Fatalf("aliased PhiInvBatch diverged at %d: %g vs %g", i, aliasedP[i], wantInv[i])
		}
	}
}

// TestBatchRaggedLengths exercises every tail length of the 4-lane kernels.
func TestBatchRaggedLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for n := 0; n <= 17; n++ {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64() * 10
		}
		dst := make([]float64, n)
		ErfcBatch(x, dst)
		for i := range x {
			want := math.Erfc(x[i])
			if !closeTol(dst[i], want, erfcTol(want)) {
				t.Fatalf("n=%d: ErfcBatch(%g)[%d] = %g, scalar %g", n, x[i], i, dst[i], want)
			}
		}
		p := make([]float64, n)
		for i := range p {
			p[i] = rng.Float64()
		}
		inv := make([]float64, n)
		PhiInvBatch(p, inv)
		for i := range p {
			want := PhiInv(p[i])
			if !closeTol(inv[i], want, PhiInvVecMaxRel*math.Abs(want)) {
				t.Fatalf("n=%d: PhiInvBatch(%g)[%d] = %g, scalar %g", n, p[i], i, inv[i], want)
			}
		}
	}
}

// Bit-exact pins of the vector kernels. The hashes were recorded with the
// kernels of the commit before the all-tail erfc skip, the blended region-1/2
// division and the vector tail Φ⁻¹: changing how a block is evaluated may not
// change a single lane's bits.

// erfcBlockInputs builds 4-lane blocks whose lanes are drawn from the erfc
// kernel's regions — central, region 2, tail (finite and ±Inf) and NaN —
// so that every composition occurs: all-tail blocks, mixed ones, NaN ones.
func erfcBlockInputs() []float64 {
	rng := rand.New(rand.NewSource(35))
	lane := func(kind int) float64 {
		sign := 1.0
		if rng.Intn(2) == 0 {
			sign = -1
		}
		switch kind {
		case 0: // region 1
			return sign * rng.Float64() * 0.84375
		case 1: // region 2
			return sign * (0.84375 + rng.Float64()*0.40625)
		case 2: // tail, ra/sa
			return sign * (1.25 + rng.Float64()*(1/0.35-1.25))
		case 3: // tail, rb/sb, into underflow
			return sign * (1 / 0.35) * (1 + rng.Float64()*9)
		case 4:
			return sign * math.Inf(1)
		default:
			return math.NaN()
		}
	}
	var xs []float64
	edges := []float64{0, 0.84375, 1.25, 1 / 0.35, 26.5, 27.2, 28}
	for _, e := range edges {
		xs = append(xs, e, -e, math.Nextafter(e, 0), -math.Nextafter(e, 0))
	}
	for b := 0; b < 4000; b++ {
		switch b % 4 {
		case 0: // all tail
			for l := 0; l < 4; l++ {
				xs = append(xs, lane(2+rng.Intn(3)))
			}
		default:
			for l := 0; l < 4; l++ {
				xs = append(xs, lane(rng.Intn(6)))
			}
		}
	}
	return xs
}

// floatsHash is FNV-1a over the bit patterns of xs.
func floatsHash(xs []float64) uint64 {
	h := fnv.New64a()
	for _, x := range xs {
		h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(x)))
	}
	return h.Sum64()
}

// phiInvPinInputs are uniforms like the sweep's draws (15 % tail lanes) with
// the tail pushed hard against 0 and 1 and across r = 5 (p ≈ e⁻²⁵), the band
// edges, endpoints and NaN — no subnormal p.
func phiInvPinInputs() []float64 {
	rng := rand.New(rand.NewSource(36))
	ps := []float64{0, 1, -0.1, 1.1, math.NaN(), 0.075, 0.925, math.Nextafter(0.075, 0), math.Nextafter(0.925, 1),
		math.Exp(-25), math.Nextafter(math.Exp(-25), 0), math.Nextafter(math.Exp(-25), 1), 0x1p-1022, 1 - 0x1p-53}
	for i := 0; i < 4000; i++ {
		ps = append(ps, rng.Float64())
	}
	for i := 0; i < 1000; i++ {
		e := math.Exp(-rng.Float64() * 700)
		if rng.Intn(2) == 0 {
			e = 1 - e*0.075
		}
		ps = append(ps, e)
	}
	return ps
}

// TestErfcVecMatchesParentBits pins erfcSimd's output over all-tail, mixed
// and NaN blocks to the recorded bits, at both output scales the callers use.
func TestErfcVecMatchesParentBits(t *testing.T) {
	setVecSpecials(t, true)
	xs := erfcBlockInputs()
	dst := make([]float64, len(xs))
	for _, c := range []struct {
		mulOut float64
		want   uint64
	}{{1, 0xacf4cb9fc3be2c70}, {0.5, 0x50c1cf77290994ab}} {
		erfcVec(xs, dst, 1, c.mulOut)
		if got := floatsHash(dst); got != c.want {
			t.Errorf("erfcVec(·, mulOut %g): hash %#x, recorded %#x", c.mulOut, got, c.want)
		}
	}
}

// TestErfcVecLaneIndependent: a lane's erfc does not depend on its block —
// every lane of a mixed, all-tail or NaN block equals the same argument
// evaluated in a block of four copies (which is all-tail, all-central or
// all-NaN).
func TestErfcVecLaneIndependent(t *testing.T) {
	setVecSpecials(t, true)
	xs := erfcBlockInputs()
	dst := make([]float64, len(xs))
	erfcVec(xs, dst, 1, 0.5)
	var blk [4]float64
	for i, x := range xs {
		blk = [4]float64{x, x, x, x}
		erfcVec(blk[:], blk[:], 1, 0.5)
		if math.Float64bits(blk[0]) != math.Float64bits(dst[i]) {
			t.Fatalf("erfc(%g): %g in its block of %v, %g alone", x, dst[i], xs[i&^3:i&^3+4], blk[0])
		}
	}
}

// TestPhiInvBatchMatchesParentBits pins PhiInvBatch's vector path (central
// rational and tail) to the bits recorded when every tail lane took the
// scalar PhiInv.
func TestPhiInvBatchMatchesParentBits(t *testing.T) {
	setVecSpecials(t, true)
	ps := phiInvPinInputs()
	dst := make([]float64, len(ps))
	PhiInvBatch(ps, dst)
	if got, want := floatsHash(dst), uint64(0xccfcabb14ebc02a); got != want {
		t.Errorf("PhiInvBatch: hash %#x, recorded %#x", got, want)
	}
}

// phiInvTailProbs are tail and edge probabilities for the exactness tests:
// hardProbs, the central band's edges 0.075/0.925 and their neighbours, the
// near/far tail boundary r = 5 (p ≈ e⁻²⁵) from both sides, subnormals and
// random tail p down to the smallest normal.
func phiInvTailProbs() []float64 {
	ps := append([]float64(nil), hardProbs...)
	for _, e := range []float64{0.075, 0.925, math.Exp(-25), 1 - math.Exp(-25), 0x1p-1022, 1 - 0x1p-53} {
		ps = append(ps, e, math.Nextafter(e, 0), math.Nextafter(e, 1))
	}
	ps = append(ps, 1e-320, 1e-310, math.Nextafter(0x1p-1022, 0), math.Inf(1), math.Inf(-1))
	// archLog's reduction compares the mantissa with √2/2: at it and around.
	for _, k := range []int{-4, -10, -100, -1000} {
		m := math.Ldexp(7.07106781186547524401e-01, k)
		ps = append(ps, m, math.Nextafter(m, 0), math.Nextafter(m, 1))
	}
	rng := rand.New(rand.NewSource(37))
	for i := 0; i < 3000; i++ {
		p := 0.075 * rng.Float64()
		if i%3 == 0 {
			p = math.Exp(-rng.Float64() * 708)
		}
		if i%2 == 0 {
			p = 1 - p
		}
		ps = append(ps, p)
	}
	return ps
}

// TestPhiInvVecTailIsExact: the vector Φ⁻¹ returns PhiInv's bits on every
// tail lane and the NaN flag on every lane it leaves to the scalar PhiInv,
// whatever the lane's position and its neighbours (central, tail, NaN lanes,
// so the packing of the tail lanes is exercised), at block and ragged
// lengths; PhiInvBatch is PhiInv on every tail lane. On a host without the
// vector kernels (or under REPRO_NOASM) it pins the scalar lanes the same way.
func TestPhiInvVecTailIsExact(t *testing.T) {
	ps := phiInvTailProbs()
	neighbours := []float64{0.5, 0.3, 0.01, 0.999, math.NaN(), 0, 1e-200}
	for i, p := range ps {
		n := 4 + i%9 // 4…12 lanes: whole blocks and ragged ones
		in, y := make([]float64, n), make([]float64, n)
		for l := range in {
			in[l] = neighbours[(i+3*l)%len(neighbours)]
		}
		in[i%n] = p
		phiInvLanes(in, y)
		for l := range in {
			checkPhiInvLane(t, in[l], y[l], PhiInvVecMaxRel)
		}
		PhiInvBatch(in, y)
		for l, v := range in {
			if want := PhiInv(v); !phiInvCentral(v) && !sameFloat(y[l], want) {
				t.Fatalf("PhiInvBatch(%g) = %g, PhiInv %g", v, y[l], want)
			}
		}
	}
	// One long vector: the tail lanes of many blocks packed together, across
	// the kernel's chunks, and enough random tail p (about 1 in 2000 tells
	// one fused multiply-add in the log's polynomial from the scalar bits).
	rng := rand.New(rand.NewSource(39))
	for i := 0; i < 1<<18; i++ {
		p := rng.Float64()
		if i%3 == 0 {
			p = math.Exp(-rng.Float64() * 708)
		}
		ps = append(ps, p)
	}
	y := make([]float64, len(ps))
	phiInvLanes(ps, y)
	for l, p := range ps {
		checkPhiInvLane(t, p, y[l], PhiInvVecMaxRel)
	}
}

// genzLims are the finite row limits TestGenzPrePostMatchGoLoops shifts.
var genzLims = []float64{-0.3, 1.7, 0, -8}

// TestGenzPrePostMatchGoLoops pins genzPreSimd and genzPostSimd to the Go
// loops they replace, bit for bit: every row type, with and without χ²
// scales, NaN and ±Inf conditioning sums, NaN/equal/reversed shifted limits,
// lane vectors of 1…13 (the ragged tail runs the Go loop on both paths).
func TestGenzPrePostMatchGoLoops(t *testing.T) {
	setVecSpecials(t, true)
	rng := rand.New(rand.NewSource(38))
	same := func(a, b []float64) bool {
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	for trial := 0; trial < 400; trial++ {
		n := 1 + trial%13
		acc, s, e1, e2, w := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
		a, b := make([]float64, n), make([]float64, n)
		for l := 0; l < n; l++ {
			acc[l] = genzAcc[(trial+l)%len(genzAcc)] + rng.NormFloat64()
			s[l] = genzScales[(trial+l)%len(genzScales)]
			e1[l], e2[l], w[l] = 0.5*rng.Float64(), 0.5*rng.Float64(), rng.Float64()
			a[l], b[l] = rng.NormFloat64()*3, rng.NormFloat64()*3
			switch rng.Intn(8) {
			case 0:
				a[l] = math.NaN()
			case 1:
				b[l] = a[l]
			case 2:
				e1[l] = math.NaN()
			case 3:
				a[l] = 0
			}
		}
		if trial%5 == 0 {
			acc[trial%n] = math.Inf(1 - 2*(trial%2))
		}
		d := []float64{0.7, 0.07, 1e-300, -0.5}[trial%4]
		lim := genzLims[trial%len(genzLims)]
		var scale []float64
		if trial%2 == 1 {
			scale = s
		}
		// Pre: lower-only/first two-sided (sel = lp), second two-sided
		// (sel = a), upper-only (sel nil).
		for kind := 0; kind < 3; kind++ {
			run := func(vec bool) (lp, x []float64) {
				hasVecSpecials = vec
				defer func() { hasVecSpecials = true }()
				lp, x = make([]float64, n), make([]float64, n)
				var sel []float64
				switch kind {
				case 0:
					sel = lp
				case 1:
					sel = a
				}
				genzPre(lim, d, acc, scale, sel, lp, x)
				return lp, x
			}
			lpV, xV := run(true)
			lpG, xG := run(false)
			if !same(lpV, lpG) || !same(xV, xG) {
				t.Fatalf("genzPre kind %d n %d lim %g d %g scaled %v: vector (%v, %v), Go (%v, %v)", kind, n, lim, d, scale != nil, lpV, xV, lpG, xG)
			}
		}
		// Post: two-sided, lower-only (b nil), upper-only (a nil).
		for kind := 0; kind < 3; kind++ {
			run := func(vec bool) (dif, u []float64) {
				hasVecSpecials = vec
				defer func() { hasVecSpecials = true }()
				dif, u = append([]float64(nil), e1...), append([]float64(nil), e2...)
				pa, pb := a, b
				switch kind {
				case 1:
					pb = nil
				case 2:
					pa, pb = nil, nil
				}
				genzPost(pa, pb, w, dif, u)
				return dif, u
			}
			difV, uV := run(true)
			difG, uG := run(false)
			if !same(difV, difG) || !same(uV, uG) {
				t.Fatalf("genzPost kind %d n %d: vector (%v, %v), Go (%v, %v)", kind, n, difV, uV, difG, uG)
			}
		}
	}
}

// TestSpecialsZeroAllocs: the batch forms allocate nothing, at a ragged
// length (the vector blocks plus Go-loop lanes) on either path.
func TestSpecialsZeroAllocs(t *testing.T) {
	const n = 67
	acc, w, y, s := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	g := GenzLanes{A: make([]float64, n), B: make([]float64, n), Dif: make([]float64, n), U: make([]float64, n)}
	for l := range acc {
		acc[l], w[l], s[l] = 0.3*float64(l%7)-1, float64(l)/n+0.001, 1
	}
	for name, f := range map[string]func(){
		"GenzRow/lower":    func() { GenzRow(-2, math.Inf(1), acc, 0.3, nil, w, y, g) },
		"GenzRow/upper":    func() { GenzRow(math.Inf(-1), 0.5, acc, 0.3, s, w, y, g) },
		"GenzRow/twosided": func() { GenzRow(-2, 1, acc, 0.3, nil, w, y, g) },
		"PhiInvBatch":      func() { PhiInvBatch(w, y) },
		"ErfcBatch":        func() { ErfcBatch(acc, y) },
	} {
		if a := testing.AllocsPerRun(20, f); a != 0 {
			t.Errorf("%s: %v allocs/op", name, a)
		}
	}
}

// FuzzErfcBatch pins vector-vs-scalar erfc agreement on arbitrary inputs,
// including NaN/±Inf bit patterns and ragged slice lengths.
func FuzzErfcBatch(f *testing.F) {
	f.Add(0.0, 1.3, -40.0, 27.0, uint8(7))
	f.Add(math.Inf(1), math.Inf(-1), math.NaN(), 0.84375, uint8(3))
	f.Add(1.25, 2.857143, -1.25, 26.6, uint8(5))
	f.Add(1e-300, -1e-300, 5e-324, -0.0, uint8(1))
	f.Fuzz(func(t *testing.T, x0, x1, x2, x3 float64, nn uint8) {
		seed := [4]float64{x0, x1, x2, x3}
		n := 1 + int(nn%9)
		x := make([]float64, n)
		for i := range x {
			x[i] = seed[i%4]
		}
		dst := make([]float64, n)
		ErfcBatch(x, dst)
		for i := range x {
			want := math.Erfc(x[i])
			if !closeTol(dst[i], want, erfcTol(want)) {
				t.Fatalf("ErfcBatch(%g)[%d] = %g, scalar %g (len %d)", x[i], i, dst[i], want, n)
			}
		}
	})
}

// FuzzPhiIntervalBatch pins dif against PhiInterval on arbitrary limit
// pairs, including a ≈ b, reversed, and non-finite limits, across ragged
// lengths.
func FuzzPhiIntervalBatch(f *testing.F) {
	f.Add(-1.0, 1.0, 0.5, 0.5000001, uint8(6))
	f.Add(math.Inf(-1), math.Inf(1), -40.0, 40.0, uint8(4))
	f.Add(2.0, math.NaN(), math.Inf(1), -8.3, uint8(2))
	f.Add(-37.6, -37.5, 8.2, 8.3, uint8(9))
	f.Fuzz(func(t *testing.T, a0, b0, a1, b1 float64, nn uint8) {
		seedA := [2]float64{a0, a1}
		seedB := [2]float64{b0, b1}
		n := 1 + int(nn%9)
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i], b[i] = seedA[i%2], seedB[i%2]
		}
		dst := make([]float64, n)
		PhiIntervalBatch(a, b, dst)
		for i := range a {
			want := PhiInterval(a[i], b[i])
			if !closeTol(dst[i], want, intervalTol(a[i], want)) {
				t.Fatalf("PhiIntervalBatch(%g,%g) = %g, scalar %g", a[i], b[i], dst[i], want)
			}
		}
	})
}

// FuzzPhiInvTail pins the vector Φ⁻¹ lane by lane (checkPhiInvLane): the
// four seeds, their complements and their neighbours in ulps fill lane
// vectors of 1…67 in shifting positions, so any p meets every lane position
// and every kind of neighbour; then the scalar path the same way.
func FuzzPhiInvTail(f *testing.F) {
	f.Add(0.01, 0.5, 1e-300, 5e-324, uint8(9), uint8(1))
	f.Add(0.075, 0.925, math.Exp(-25), 0.0, uint8(66), uint8(3))
	f.Add(math.NaN(), 1.0, -0.1, 0x1p-1022, uint8(4), uint8(0))
	f.Add(0.0749999, 0.9250001, 1-1e-16, 1e-17, uint8(12), uint8(7))
	f.Fuzz(func(t *testing.T, p0, p1, p2, p3 float64, nn, rot uint8) {
		seed := [4]float64{p0, p1, p2, p3}
		n := 1 + int(nn%67)
		p, y := make([]float64, n), make([]float64, n)
		for l := range p {
			v := seed[(l+int(rot))%4]
			switch l % 5 {
			case 1:
				v = 1 - v
			case 3:
				v = math.Nextafter(v, 0)
			}
			p[l] = v
		}
		for _, vec := range []bool{true, false} {
			if vec && !hasVecSpecials {
				continue
			}
			old := hasVecSpecials
			hasVecSpecials = vec
			phiInvLanes(p, y)
			hasVecSpecials = old
			for l := range p {
				checkPhiInvLane(t, p[l], y[l], PhiInvVecMaxRel)
			}
		}
	})
}

// FuzzGenzRow pins the row step against the scalar forms lane by lane
// (checkGenzRow, y on tail lanes bit for bit), on the host's path and on the
// scalar one: any limits, NaN and ±Inf conditioning sums, tiny and huge
// pivots, with and without χ² scales, lane vectors of 1 to 67.
func FuzzGenzRow(f *testing.F) {
	inf := math.Inf(1)
	f.Add(-0.3, inf, 0.4, -1.2, 0.41, 1.0, 0.37, uint8(66), false)   // the excursion row
	f.Add(-inf, 0.8, -0.1, 2.5, 0.07, 0.6, 0.91, uint8(12), true)    // upper-only, MVT
	f.Add(-1.5, 2.0, math.NaN(), inf, 1.0, 1.3, 0.5, uint8(4), true) // two-sided, NaN and +Inf sums
	f.Add(1.0, inf, 0.0, -inf, 1e-300, 1.0, 1e-17, uint8(2), false)  // tiny pivot, scalar length
	f.Add(-2.0, -1.0, 3.0, -3.0, 1e300, 0.0, 1-1e-16, uint8(33), true)
	f.Add(inf, inf, 0.0, 1.0, 1.0, 1.0, 0.5, uint8(8), false) // wrong-side infinity: empty
	f.Add(-inf, inf, 0.0, 1.0, 1.0, 1.0, 0.5, uint8(8), false)
	f.Add(2.0, 1.0, 0.3, -0.3, 0.5, 1.0, 0.5, uint8(20), false)
	f.Add(-2.0, inf, 0.2, -0.4, 0.3, 1.0, 0.01, uint8(63), false) // tail draws
	f.Add(-inf, 1.0, 0.5, 9.0, 0.3, 0.8, 1e-300, uint8(17), true)
	f.Fuzz(func(t *testing.T, lo, hi, acc0, acc1, d, s0, w0 float64, nn uint8, scaled bool) {
		n := 1 + int(nn%67)
		acc, w := make([]float64, n), make([]float64, n)
		var s []float64
		if scaled {
			s = make([]float64, n)
		}
		for l := range acc {
			// Two seeds and a ramp: neighbouring lanes land in different erfc
			// regions and on both sides of zero.
			switch l % 3 {
			case 0:
				acc[l] = acc0
			case 1:
				acc[l] = acc1
			default:
				acc[l] = acc0 + 0.37*float64(l) - acc1
			}
			w[l] = w0
			if l%4 != 0 {
				_, w[l] = math.Modf(math.Abs(w0) + 0.6180339887*float64(l))
			}
			if scaled {
				s[l] = s0 * (1 + 0.01*float64(l%5))
			}
		}
		checkGenzRow(t, lo, hi, acc, d, s, w)
		setVecSpecials(t, false)
		checkGenzRow(t, lo, hi, acc, d, s, w)
	})
}

// BenchmarkSpecials compares the scalar loops against the vector kernels at
// the sweep's lane-block sizes, on two inputs. "central" is mostly central
// erfc arguments. "excursion" looks like the sweep on an excursion box: erfc
// arguments almost all in the tail region (|x| ≥ 1.25), conditioning sums
// that put a lower-only row's shifted limit there too, and uniform draws, 15 %
// of whose lanes — in about half of the 4-lane blocks — lie outside AS241's
// central band.
func BenchmarkSpecials(b *testing.B) {
	for _, n := range []int{64, 1000} {
		for _, in := range []string{"central", "excursion"} {
			x := make([]float64, n)
			acc := make([]float64, n)
			pr := make([]float64, n)
			dst := make([]float64, n)
			rng := rand.New(rand.NewSource(4))
			lo, d := -0.3, 0.4
			for i := range x {
				x[i] = rng.NormFloat64() * 2
				acc[i] = x[i]
				if in == "excursion" {
					x[i] = math.Copysign(1.25+math.Abs(rng.NormFloat64())*2, rng.NormFloat64())
					if rng.Intn(40) == 0 {
						x[i] = (rng.Float64() - 0.5) * 2.5
					}
					acc[i] = rng.NormFloat64() * 0.3
					lo, d = -2, 0.3
				}
				pr[i] = rng.Float64() // the sweep's uniforms: 15 % tail lanes
			}
			for _, vec := range []bool{false, true} {
				if vec && !hasVecSpecials {
					continue
				}
				old := hasVecSpecials
				hasVecSpecials = vec
				name := "scalar"
				if vec {
					name = "vec"
				}
				b.Run(fmt.Sprintf("erfc/%s/%s/n=%d", in, name, n), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						ErfcBatch(x, dst)
					}
				})
				g := GenzLanes{A: make([]float64, n), B: make([]float64, n), Dif: make([]float64, n), U: make([]float64, n)}
				for _, row := range []struct {
					name   string
					lo, hi float64
				}{{"lower", lo, math.Inf(1)}, {"upper", math.Inf(-1), 0.8}, {"twosided", lo, 2}} {
					b.Run(fmt.Sprintf("genzrow-%s/%s/%s/n=%d", row.name, in, name, n), func(b *testing.B) {
						b.ReportAllocs()
						for i := 0; i < b.N; i++ {
							GenzRow(row.lo, row.hi, acc, d, nil, pr, dst, g)
						}
					})
				}
				b.Run(fmt.Sprintf("phiinv/%s/%s/n=%d", in, name, n), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						PhiInvBatch(pr, dst)
					}
				})
				hasVecSpecials = old
			}
		}
	}
}

func BenchmarkPhiInvBatch(b *testing.B) {
	const n = 64
	p := make([]float64, n)
	dst := make([]float64, n)
	rng := rand.New(rand.NewSource(4))
	for i := range p {
		p[i] = rng.Float64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PhiInvBatch(p, dst)
	}
}
