package mvn

import (
	"fmt"
	"time"

	"repro/internal/taskrt"
)

// Prefix is what one PMVNPrefix sweep reads off the SOV running product:
// Prob[i] estimates the probability of the leading (i+1)-dimensional block,
// Φ_{i+1}(a[:i+1], b[:i+1]; 0, Σ[:i+1,:i+1]) — the chains' product after row
// i, averaged over the same lanes the full-dimension estimate averages. Every
// chain's product only shrinks, so Prob is non-increasing exactly, with no
// clamp. StdErr is the per-prefix randomized-QMC standard error, nil with
// fewer than two replicates.
type Prefix struct {
	Prob   []float64
	StdErr []float64
}

// PMVNPrefix is PMVN that also keeps what the sweep passes through on its way
// to the full-dimension estimate: one integration yields the probability of
// every leading block of (a,b), each bit-identical to a separate PMVN call
// whose limits are free past that block and whose options are the same. It
// always integrates a fixed N: the accuracy/latency budgets of opt are
// ignored.
func PMVNPrefix(rt *taskrt.Runtime, f *Factor, a, b []float64, opt Options) Prefix {
	n := f.N()
	if len(a) != n || len(b) != n {
		panic(fmt.Sprintf("mvn: limits length %d,%d != dimension %d", len(a), len(b), n))
	}
	o := opt.withDefaults()
	o.MaxRelErr, o.Deadline, o.Ctx = 0, time.Time{}, nil
	return prefix(rt, f, a, b, o, laneWidth(f, o))
}

// prefix is PMVNPrefix on defaulted fixed-N options, in lane blocks of mc.
func prefix(rt *taskrt.Runtime, f *Factor, a, b []float64, o Options, mc int) Prefix {
	n := f.N()
	// One row of running sums per replicate, over the rows the sweep covers:
	// those past the last constrained one are never swept (trimFree) — they
	// multiply every chain by 1, so they repeat its estimate (1 when nothing
	// is constrained at all).
	swept, _ := trimFree(a, b)
	rows := len(swept)
	acc := make([]float64, o.Replicates*rows)
	integrate(rt, f, a, b, o, mc, 0, acc)

	// Each prefix is the estimator's answer on its column of replicate sums,
	// exactly as the full-dimension Result is on the scalar sums.
	pre := Prefix{Prob: make([]float64, n)}
	if o.Replicates >= 2 {
		pre.StdErr = make([]float64, n)
	}
	prob, stderr := 1.0, 0.0
	col := make([]float64, o.Replicates)
	for i := range pre.Prob {
		if i < rows {
			for rep := range col {
				col[rep] = acc[rep*rows+i]
			}
			prob, stderr = estimate(col, float64(o.N))
			prob = clampProb(prob)
		}
		pre.Prob[i] = prob
		if pre.StdErr != nil {
			pre.StdErr[i] = stderr
		}
	}
	return pre
}

// prefixCol is one sample-tile column's share of a prefix sweep: entry i
// receives Σ_lanes p after row i. A nil prefixCol records nothing — the plain
// PMVN/PMVT path — so the sweep calls it unconditionally.
type prefixCol []float64

// prefixColOf cuts column k's share out of a wave's pooled columns×rows buffer.
func prefixColOf(cols []float64, k, rows int) prefixCol {
	if cols == nil {
		return nil
	}
	return cols[k*rows : (k+1)*rows]
}

// record stores Σ_lanes p for rows row0 … row0+rows−1 (one row from the
// diagonal kernel, a whole tile from the free-tile fast path, where p does
// not change). It stays out of line so the sweep's plain path pays one call
// and a nil test per row and the stores' bounds checks stay out of the
// sweep's loops.
//
//go:noinline
func (c prefixCol) record(row0, rows int, p []float64) {
	if c == nil {
		return
	}
	sum := 0.0
	for _, v := range p {
		sum += v
	}
	for i := row0; i < row0+rows; i++ {
		c[i] = sum
	}
}

// addPrefixCols adds one wave's column buffers of a replicate, summed in
// column order — the order integrate sums the columns' scalar results in —
// to the replicate's running per-prefix sums.
func addPrefixCols(dst, cols []float64) {
	rows := len(dst)
	for i := range dst {
		sum := 0.0
		for k := i; k < len(cols); k += rows {
			sum += cols[k]
		}
		dst[i] += sum
	}
}
