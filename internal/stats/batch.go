package stats

import "math"

// Batched special functions for the chain-blocked SOV kernel. The sweep's
// one consumer is GenzRow, the numeric part of a Genz–Bretz step over the
// contiguous lane vector of one factor row; ErfcBatch, PhiIntervalBatch and
// PhiInvBatch are the same kernels behind plain slice forms (free rows use
// PhiInvBatch; bench/probes.go times all three).
//
// GenzRow is typed once per row, from the row's two scalar limits, never per
// lane: an infinite limit costs nothing — no lane vector is filled with ±Inf
// and no erfc is evaluated to obtain the constants 0 and 1. It walks the lane
// vector four times — genzPre, erfc (twice for a two-sided row), genzPost,
// Φ⁻¹ on central and tail lanes — and leaves to its caller's one scalar pass
// only the SOV fix-ups and the lanes whose u is not a normal number in (0,1)
// (flagged NaN in y).
//
// On amd64 hosts with AVX2+FMA the batch forms dispatch to the 4-lane vector
// kernels in spec_amd64.s (kill-switch: REPRO_NOASM, see spec_amd64.go); the
// scalar loops below remain the portable fallback and the reference the
// property/fuzz tests in batch_test.go compare against. genzPre, genzPost
// and the tail of Φ⁻¹ are the scalar code's operations in its order, with no
// FMA where the Go code has none (Go compiles none at GOAMD64=v1), so their
// vector forms return the scalar bits. The vector erfc re-evaluates the
// FDLIBM rationals with a single-split exponential and FMA, and the central
// Φ⁻¹ rational uses FMA, so those results are NOT bit-identical to
// math.Erfc / PhiInv; agreement is bounded by the documented tolerances:
//
//	ErfcVecMaxRel   relative error of the vector erfc (and everything built
//	                on it: PhiIntervalBatch, GenzRow's dif and u) against the
//	                scalar forms, for results ≥ ErfcVecTinyAbs.
//	ErfcVecTinyAbs  absolute error floor for near-underflow tails: the
//	                vector exp clamps its argument at −708, so erfc results
//	                below ~1e-305 can be inflated up to ~1.3e-309 absolute
//	                (DBL_MIN/|x|) instead of rounding to subnormals/zero.
//	PhiInvVecMaxRel relative error of the vector Φ⁻¹ central rational (FMA
//	                contraction only; same AS241 coefficients). Tail lanes
//	                are exact.
//
// NaN and ±Inf handling is identical on both paths, which the fuzz targets
// pin.
const (
	ErfcVecMaxRel   = 5e-13
	ErfcVecTinyAbs  = 1e-305
	PhiInvVecMaxRel = 1e-13
)

// bench/probes.go times these by these signatures, and a change that claims
// a gain may not edit bench/: moving one must fail here, at build time.
var (
	_ func(x, dst []float64)    = ErfcBatch
	_ func(a, b, dst []float64) = PhiIntervalBatch
	_ func(p, dst []float64)    = PhiInvBatch
)

// erfcArgs is the shared argument preparation of the interval forms: both
// scalar and vector paths scale the limits onto the erfc axis exactly once,
// through this helper, so their branch selections agree bit-for-bit
// (negating a scaled limit is exact, so ±a/√2 and ±b/√2 all derive from one
// division each).
func erfcArgs(a, b float64) (sa, sb float64) {
	return a / Sqrt2, b / Sqrt2
}

// ErfcBatch fills dst[i] = erfc(x[i]); the raw batched complementary error
// function behind the Φ forms, exported for callers that work on the erfc
// axis directly. x and dst must have equal length and may alias.
func ErfcBatch(x, dst []float64) {
	dst = dst[:len(x)]
	if hasVecSpecials && len(x) >= 4 {
		erfcVec(x, dst, 1, 1)
		return
	}
	for i, v := range x {
		dst[i] = math.Erfc(v)
	}
}

// specChunk is the lane-block granularity of PhiIntervalBatch's vector path:
// one stack-resident scratch vector of this length holds the second erfc
// stream, so the batch stays allocation-free at any input length.
const specChunk = 128

// PhiIntervalBatch fills dst[i] = PhiInterval(a[i], b[i]), the tail-stable
// interval probability per lane. The slices must have equal length; dst may
// alias a or b (aliased calls take the scalar path).
func PhiIntervalBatch(a, b, dst []float64) {
	dst = dst[:len(a)]
	b = b[:len(a)]
	if !hasVecSpecials || len(a) < 4 || &dst[0] == &a[0] || &dst[0] == &b[0] {
		phiIntervalBatchScalar(a, b, dst)
		return
	}
	var e1 [specChunk]float64
	for o := 0; o < len(a); o += specChunk {
		m := len(a) - o
		if m > specChunk {
			m = specChunk
		}
		ac, bc, dc := a[o:o+m], b[o:o+m], dst[o:o+m]
		for i, ai := range ac {
			sa, sb := erfcArgs(ai, bc[i])
			if ai >= 0 {
				e1[i], dc[i] = sa, sb
			} else {
				e1[i], dc[i] = -sa, -sb
			}
		}
		erfcVec(e1[:m], e1[:m], 1, 0.5)
		erfcVec(dc, dc, 1, 0.5)
		for i, ai := range ac {
			switch {
			case bc[i] <= ai:
				dc[i] = 0
			case ai >= 0: // right tail / half-open: Φ(b)−Φ(a) on the a-side
				dc[i] = e1[i] - dc[i]
			case ai < 0: // left tail / straddle, mirrored
				dc[i] = dc[i] - e1[i]
			default: // a is NaN
				dc[i] = math.NaN()
			}
		}
	}
}

func phiIntervalBatchScalar(a, b, dst []float64) {
	for i, ai := range a {
		dst[i] = PhiInterval(ai, b[i])
	}
}

// PhiIntervalAndPhi returns dif = PhiInterval(a, b) together with the lower
// distribution value da the Genz chain step combines it with
// (u = da + w·dif), sharing erfc evaluations between the two. dif is
// bit-identical to PhiInterval in every branch. da is Phi(a) except in two
// places where a cheaper exact-complement form is used: for the half-open
// interval (a, +∞) with a ≥ 0, da = 1 − dif (one erfc instead of two,
// within one ulp of Phi(a)); and when dif ≤ 0, da is 0 and must not be used
// (the chain is dead and the step never forms u). The scalar chainStep and
// the batched kernel's scalar fallback both evaluate through this function;
// the vector path agrees within ErfcVecMaxRel.
func PhiIntervalAndPhi(a, b float64) (dif, da float64) {
	if b <= a {
		return 0, 0
	}
	sa, sb := erfcArgs(a, b)
	switch {
	case math.IsInf(b, 1):
		// Half-open exceedance interval — the excursion/prefix query shape:
		// one tail erfc serves both quantities.
		if a >= 0 {
			dif = 0.5 * math.Erfc(sa)
			return dif, 1 - dif
		}
		da = 0.5 * math.Erfc(-sa)
		return 1 - da, da
	case a >= 0: // right tail
		return 0.5 * (math.Erfc(sa) - math.Erfc(sb)), 0.5 * math.Erfc(-sa)
	case b <= 0: // left tail: Φ(a) shares the interval's erfc(−a/√2)
		ea := math.Erfc(-sa)
		return 0.5 * (math.Erfc(-sb) - ea), 0.5 * ea
	default: // straddles zero
		da = 0.5 * math.Erfc(-sa)
		return 0.5*math.Erfc(-sb) - da, da
	}
}

// GenzLanes is the lane scratch GenzRow writes, each vector at least as long
// as the row's lanes: A, B the shifted limits (finite limits only — an infinite
// one is its own shift, see Limits), Dif = Φ(b′) − Φ(a′), U the Φ⁻¹ argument.
type GenzLanes struct {
	A, B, Dif, U []float64
}

// Limits returns lane l's shifted limits of a row with scalar limits lo, hi.
func (g GenzLanes) Limits(lo, hi float64, l int) (a, b float64) {
	a, b = lo, hi
	if !math.IsInf(lo, 0) {
		a = g.A[l]
	}
	if !math.IsInf(hi, 0) {
		b = g.B[l]
	}
	return a, b
}

// GenzRow evaluates one Genz–Bretz SOV step for every lane of a factor row
// with limits lo, hi: given the lanes' conditioning sums acc, the row's pivot
// d, optional per-lane χ² scales s (nil for MVN) and uniform draws w,
//
//	a′ = (lo·s − acc)/d    b′ = (hi·s − acc)/d
//	(dif, da) = PhiIntervalAndPhi(a′, b′)    u = da + w·dif    y = Φ⁻¹(u)
//
// into g and y. y[l] is Φ⁻¹(u[l]) wherever u[l] is a normal number in (0,1)
// (see phiInvLanes); on every other lane — u at or beyond an endpoint,
// subnormal or NaN — y[l] is NaN, and the caller evaluates PhiInv(g.U[l])
// there itself, in the same pass that applies its fix-ups. None of the
// slices may alias another.
//
// The row is typed by its scalar limits. A half-open row pays one erfc per
// lane, e = ½erfc(|a′|/√2): (dif, da) = (e, 1−e) for a′ ≥ 0 and (1−e, e) for
// a′ < 0; an upper-only row has dif = ½erfc(−b′/√2), da = 0. Both are what
// the two-sided arithmetic returns when its other erfc is evaluated on ±Inf,
// bit for bit. A NaN in acc, s or d makes the lane's dif NaN. A row with an
// infinite limit on the wrong side (lo = +Inf or hi = −Inf; empty in every
// lane) takes the scalar path.
func GenzRow(lo, hi float64, acc []float64, d float64, s, w, y []float64, g GenzLanes) {
	n := len(acc)
	w, y = w[:n], y[:n]
	if s != nil {
		s = s[:n]
	}
	a, b, dif, u := g.A[:n], g.B[:n], g.Dif[:n], g.U[:n]
	loInf, hiInf := math.IsInf(lo, 0), math.IsInf(hi, 0)
	if !hasVecSpecials || n < 4 || math.IsInf(lo, 1) || math.IsInf(hi, -1) || loInf && hiInf {
		genzRowScalar(lo, hi, acc, d, s, w, g)
		phiInvLanesScalar(u, y)
		return
	}
	switch { // a nil limit vector types the row for the post pass
	case hiInf:
		b = nil
		genzPre(lo, d, acc, s, a, a, dif)
	case loInf: // the sign of −∞ mirrors every lane
		a = nil
		genzPre(hi, d, acc, s, nil, b, dif)
	default:
		genzPre(lo, d, acc, s, a, a, dif)
		genzPre(hi, d, acc, s, a, b, u)
		erfcVec(u, u, 1, 0.5)
	}
	erfcVec(dif, dif, 1, 0.5)
	genzPost(a, b, w, dif, u)
	phiInvLanes(u, y)
}

// genzPre is GenzRow's pre pass for one finite limit lim: the shifted limit
// (lim·s − acc)/d into lp and its erfc argument ±lp/√2 (erfcArgs' division;
// negation is exact) into x, negated where the lane's shifted LOWER limit sel
// is not ≥ 0 (sel nil: everywhere) — the tail-stable side. sel may be lp.
// With the vector kernels the whole lane blocks run in genzPreSimd, the same
// operations in the same order.
func genzPre(lim, d float64, acc, s, sel, lp, x []float64) {
	if n4 := len(acc) &^ 3; hasVecSpecials && n4 > 0 {
		genzPreSimd(n4, lim, d, &acc[0], first(s), first(sel), &lp[0], &x[0])
		acc, s, sel, lp, x = acc[n4:], from(s, n4), from(sel, n4), lp[n4:], x[n4:]
	}
	for l, c := range acc {
		v := lim
		if s != nil {
			v *= s[l]
		}
		v = (v - c) / d
		lp[l] = v
		v /= Sqrt2
		if sel == nil || !(sel[l] >= 0) {
			v = -v
		}
		x[l] = v
	}
}

// Row kinds of genzPostSimd, from genzPost's nil limit vectors.
const (
	postTwoSided = iota
	postLower
	postUpper
)

// genzPost is GenzRow's post pass, in place: from e1 = ½erfc(|a′|/√2) in dif
// and, two-sided, e2 = ½erfc(sign(a′)·b′/√2) in u — the right-tail pair
// (Φ(−a′), Φ(−b′)) for a′ ≥ 0, else the mirrored (Φ(a′), Φ(b′)): what every
// branch of PhiIntervalAndPhi combines — to dif and u = da + w·dif. A nil b
// marks a lower-only row, a nil a an upper-only one (e2 would be 0 or 1).
// With the vector kernels the whole lane blocks run in genzPostSimd, bit for
// bit.
func genzPost(a, b, w, dif, u []float64) {
	if n4 := len(dif) &^ 3; hasVecSpecials && n4 > 0 {
		kind := postTwoSided
		switch {
		case a == nil:
			kind = postUpper
		case b == nil:
			kind = postLower
		}
		genzPostSimd(n4, kind, first(a), first(b), &w[0], &dif[0], &u[0])
		a, b, w, dif, u = from(a, n4), from(b, n4), w[n4:], dif[n4:], u[n4:]
	}
	for l, e1 := range dif {
		da := e1
		switch {
		case a == nil:
			da = 0
		case b == nil && a[l] >= 0:
			da = 1 - e1
		case b == nil:
			dif[l] = 1 - e1
		case b[l] <= a[l]:
			dif[l], da = 0, 0
		case a[l] >= 0:
			dif[l], da = e1-u[l], 1-e1
		default:
			dif[l] = u[l] - e1
		}
		u[l] = da + w[l]*dif[l]
	}
}

// first returns &s[0], or nil for an absent (nil) scale, selector or limit
// vector; from returns s[i:], keeping nil nil.
func first(s []float64) *float64 {
	if s == nil {
		return nil
	}
	return &s[0]
}

func from(s []float64, i int) []float64 {
	if s == nil {
		return nil
	}
	return s[i:]
}

// genzRowScalar is GenzRow's portable pre+erfc+post, lane by lane through
// PhiIntervalAndPhi, for any pair of limits.
func genzRowScalar(lo, hi float64, acc []float64, d float64, s, w []float64, g GenzLanes) {
	for l, c := range acc {
		sl := 1.0
		if s != nil {
			sl = s[l]
		}
		g.A[l], g.B[l] = (lo*sl-c)/d, (hi*sl-c)/d // Limits ignores an infinite limit's
		df, da := PhiIntervalAndPhi(g.Limits(lo, hi, l))
		g.Dif[l], g.U[l] = df, da+w[l]*df
	}
}

// PhiInvBatch fills dst[i] = PhiInv(p[i]). On the vector path every whole
// lane block runs in phiInvSimd — the central rational, and PhiInv's tail bit
// for bit — and the lanes it flags (endpoints, subnormal, out-of-range and
// NaN p) take the scalar PhiInv. p and dst must have equal length and may
// alias (aliased calls take the scalar path).
func PhiInvBatch(p, dst []float64) {
	dst = dst[:len(p)]
	if !hasVecSpecials || len(p) < 4 || &dst[0] == &p[0] {
		phiInvBatchScalar(p, dst)
		return
	}
	phiInvLanes(p, dst)
	for i, y := range dst {
		if math.IsNaN(y) {
			dst[i] = PhiInv(p[i])
		}
	}
}

func phiInvBatchScalar(p, dst []float64) {
	for i, v := range p {
		dst[i] = PhiInv(v)
	}
}

// phiInvLanes fills dst[i] = Φ⁻¹(p[i]) for every p[i] that is a normal
// number in (0,1), and NaN — the flag for the scalar PhiInv — elsewhere: the
// whole lane blocks through phiInvSimd when the vector kernels are on, the
// ragged lanes (and every lane without them) through phiInvLanesScalar.
// p and dst may alias exactly.
func phiInvLanes(p, dst []float64) {
	if n4 := len(p) &^ 3; hasVecSpecials && n4 > 0 {
		var tmp [2 * tailChunk]float64
		for o := 0; o < n4; o += tailChunk {
			m := min(n4-o, tailChunk)
			phiInvSimd(m, &p[o], &dst[o], &tmp[0])
		}
		p, dst = p[n4:], dst[n4:]
	}
	phiInvLanesScalar(p, dst)
}

// tailChunk is phiInvLanes' lane chunk: one stack-resident scratch vector
// holds a chunk's packed tail lanes and their indices.
const tailChunk = 64

// phiInvLanesScalar is phiInvLanes lane by lane through PhiInv.
func phiInvLanesScalar(p, dst []float64) {
	for i, v := range p {
		if v >= 0x1p-1022 && v < 1 {
			dst[i] = PhiInv(v)
		} else {
			dst[i] = math.NaN()
		}
	}
}

// erfcVec fills dst[i] = mulOut·erfc(mulIn·x[i]) with the vector kernel;
// callers guarantee hasVecSpecials and len ≥ 1. Ragged tails shorter than a
// lane block run through one extra vector iteration on a stack buffer, so
// any length is allocation-free. x and dst may alias exactly.
func erfcVec(x, dst []float64, mulIn, mulOut float64) {
	n := len(x) &^ 3
	if n > 0 {
		erfcSimd(n, &x[0], &dst[0], mulIn, mulOut)
	}
	if n == len(x) {
		return
	}
	var xs, ds [4]float64
	copy(xs[:], x[n:])
	erfcSimd(4, &xs[0], &ds[0], mulIn, mulOut)
	copy(dst[n:], ds[:len(x)-n])
}
