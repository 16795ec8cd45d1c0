package tile

import (
	"math"

	"repro/internal/linalg"
)

// Compress builds a low-rank tile from a dense block, keeping the smallest
// rank whose tail satisfies ‖tail‖_F ≤ tol·‖A‖_F, capped at maxRank (0 means
// no cap). The singular values are folded into U.
//
// Instead of the full-tile Jacobi SVD the seed used, it runs a randomized
// range finder (Halko/Martinsson/Tropp): sketch Y = A·Ω, orthonormalize,
// project B = QᵀA, and SVD only the small core — with the capture error
// measured a posteriori (‖A‖²−‖B‖²) and the sample grown geometrically until
// the tail bound holds, so the result meets the same accuracy contract as
// the full SVD while the dominant cost becomes blocked GEMM. The sketch is
// drawn from a deterministic stream keyed by the tile shape, keeping
// factorizations reproducible across runs and worker counts. The tile is nil
// if the core SVD fails to converge.
func Compress(a *linalg.Matrix, tol float64, maxRank int) *LowRank {
	t, _ := compress(a, tol, maxRank, 0, false)
	return t
}

// sketchOversample is how many columns past the rank cap the range finder
// draws; nearRankSlack how many past an expected rank. The second is wider
// because the first only has to make the cap's truncation accurate, while a
// sketch started from an expectation must pass the capture test: on a 256²
// Matérn tile (tol 1e-6) the Schur updates lift the rank by 4 on average and
// 11 at most, and of 276 such tiles 162 needed a growth round at 8 columns
// of slack, 45 at 12, 6 at 16.
const (
	sketchOversample = 8
	nearRankSlack    = 16
)

// CompressNear is Compress for a block whose rank is expected to land near
// rank — a tile recompressed after its Schur updates ends close to the rank
// it started from — so the range finder starts at rank+nearRankSlack columns
// instead of the widest sketch the cap allows. An expectation that turns out
// too small only costs growth rounds: the capture test, and with it the
// accuracy contract, is Compress's. rank ≤ 0 states no expectation.
//
// Unlike Compress it reports the cap instead of hiding it: ok says the tail
// bound holds at a rank within maxRank. When it does not, the tile is
// Compress's truncation, for the caller to discard — or nil, when the capped
// sketch alone leaves more than the truncation budget uncaptured (the early
// rejection of CompressWithin, or a core SVD that fails to converge). The
// sketch is Compress's either way, so a block that fits gets Compress's
// factors bit for bit.
func CompressNear(a *linalg.Matrix, tol float64, maxRank, rank int) (t *LowRank, ok bool) {
	return compress(a, tol, maxRank, rank, true)
}

// CompressWithin is Compress(a, tol, limit+1) for a caller that keeps only
// ranks up to limit: ok reports Rank() ≤ limit. When the capped sketch alone
// leaves more than the whole truncation budget uncaptured — by a guard far
// wider than the rounding between ‖A‖²_F − ‖B‖²_F and B's spectrum — truncate is
// certain to return the cap: the core SVD is skipped and the tile is nil, as
// it is when that SVD fails to converge.
func CompressWithin(a *linalg.Matrix, tol float64, limit int) (t *LowRank, ok bool) {
	t, _ = compress(a, tol, limit+1, 0, true)
	return t, t != nil && t.Rank() <= limit
}

// compress is the range finder behind Compress, CompressNear and
// CompressWithin. met reports that the tail bound holds within maxRank
// (always, when maxRank ≤ 0); when it does not the tile is truncated to the
// cap, or nil if within and the sketch alone already misses the budget. A
// core SVD that fails to converge returns (nil, false).
func compress(a *linalg.Matrix, tol float64, maxRank, rank int, within bool) (t *LowRank, met bool) {
	m, n := a.Rows, a.Cols
	if m < n {
		// Compress the transpose and swap the factors back.
		at := linalg.GetMat(n, m)
		for j := 0; j < m; j++ {
			tc := at.Col(j)
			for i := 0; i < n; i++ {
				tc[i] = a.At(j, i)
			}
		}
		t, met := compress(at, tol, maxRank, rank, within)
		linalg.PutMat(at)
		if t == nil {
			return nil, met
		}
		t.U, t.V = t.V, t.U
		t.M, t.N = m, n
		return t, met
	}
	t = &LowRank{M: m, N: n}
	if m == 0 || n == 0 {
		return t, true
	}
	froSq := frobSq(a)
	if froSq == 0 {
		return t, true
	}

	// Range finder: grow the sample until the unexplained energy fits under
	// the truncation budget (or the rank cap makes a larger basis pointless).
	l := 16
	if maxRank > 0 {
		l = maxRank + sketchOversample
	}
	if rank > 0 && (maxRank == 0 || rank+nearRankSlack < l) {
		l = rank + nearRankSlack
	}
	var (
		q       *linalg.Matrix // m×l orthonormal basis (nil on the full path)
		b       *linalg.Matrix // l×n projected coefficients
		y       *linalg.Matrix
		tau     []float64
		qf      linalg.QRFactor
		residSq float64
	)
	for {
		if l >= n {
			// Full path: QR(A) spans the exact range and B is just R.
			l = n
			y = linalg.GetMat(m, n)
			y.CopyFrom(a)
			tau = linalg.GetVec(n)
			qf = linalg.QRInPlace(y, tau)
			b = linalg.GetMat(n, n)
			qf.RInto(b)
			residSq = 0
			break
		}
		omega := gaussMat(n, l)
		y = linalg.GetMat(m, l)
		linalg.Gemm(false, false, 1, a, omega, 0, y)
		linalg.PutMat(omega)
		tau = linalg.GetVec(l)
		qf = linalg.QRInPlace(y, tau)
		q = linalg.GetMat(m, l)
		qf.ThinQInto(q)
		b = linalg.GetMat(l, n)
		linalg.Gemm(true, false, 1, q, a, 0, b)
		residSq = math.Max(froSq-frobSq(b), 0)
		if residSq <= 0.25*tol*tol*froSq || (maxRank > 0 && l >= maxRank+sketchOversample) {
			break
		}
		linalg.PutMat(b)
		linalg.PutMat(q)
		linalg.PutVec(&tau)
		linalg.PutMat(y)
		q = nil
		l *= 2
		if maxRank > 0 {
			l = min(l, maxRank+sketchOversample)
		}
	}

	var sv smallSVD
	if within && residSq > (1+1e-6)*tol*tol*froSq {
		t = nil
	} else if sv, met = svdPooled(b); !met {
		t = nil
	} else {
		k := sv.truncate(tol, residSq, 0)
		met = maxRank <= 0 || k <= maxRank
		if !met {
			k = maxRank
		}
		if k > 0 {
			x1 := linalg.GetMat(l, k)
			sv.leftScaledInto(x1, k)
			t.U = linalg.GetMat(m, k)
			if q != nil {
				linalg.Gemm(false, false, 1, q, x1, 0, t.U)
			} else {
				qf.ApplyQInto(x1, t.U)
			}
			linalg.PutMat(x1)
			t.V = linalg.GetMat(n, k)
			sv.rightInto(t.V, k)
		}
		sv.release()
	}
	linalg.PutMat(b)
	linalg.PutMat(q)
	linalg.PutVec(&tau)
	linalg.PutMat(y)
	return t, met
}

// frobSq returns the plain sum of squares of the entries (no overflow
// guard: compression operates on covariance-scale tiles, and the capture
// test needs the unguarded quantity so ‖A‖² − ‖B‖² is consistent).
func frobSq(a *linalg.Matrix) float64 {
	s := 0.0
	for j := 0; j < a.Cols; j++ {
		for _, v := range a.Col(j) {
			s += v * v
		}
	}
	return s
}

// gaussMat returns a pooled r×c matrix of standard normal samples from a
// splitmix64 stream seeded only by the shape: the sketch is independent of
// the data (which is all the randomized analysis needs) and deterministic
// across runs, workers and repeated calls. The caller returns it with
// linalg.PutMat.
func gaussMat(r, c int) *linalg.Matrix {
	m := linalg.GetMat(r, c)
	state := uint64(r)<<32 ^ uint64(c) ^ 0x9e3779b97f4a7c15
	next := func() float64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		z ^= z >> 31
		// Uniform in (0,1]: keep 53 bits, offset away from zero.
		return (float64(z>>11) + 1) / (1 << 53)
	}
	for j := 0; j < c; j++ {
		col := m.Col(j)
		for i := range col {
			// Box–Muller, one normal per pair of uniforms.
			u1, u2 := next(), next()
			col[i] = math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
		}
	}
	return m
}
