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
// whose limits are free past that block and whose options are the same
// (SweepF32 included). It always runs the fixed-N sweep: the accuracy/latency
// budgets of opt are ignored.
func PMVNPrefix(rt *taskrt.Runtime, f *Factor, a, b []float64, opt Options) Prefix {
	n := f.N()
	if len(a) != n || len(b) != n {
		panic(fmt.Sprintf("mvn: limits length %d,%d != dimension %d", len(a), len(b), n))
	}
	o := opt.withDefaults(f.TS())
	o.MaxRelErr, o.Deadline, o.Ctx = 0, time.Time{}, nil
	acc := make(prefixAcc, o.Replicates)
	for rep := range acc {
		acc[rep] = make([]float64, n)
	}
	integrate(rt, f, a, b, o, 0, acc)

	// Fold the replicates per prefix exactly as reduceReplicates folds the
	// scalar estimates. Rows past the last constrained one were never swept
	// (trimFree): they multiply every chain by 1, so they repeat its estimate
	// (1 when nothing is constrained at all).
	swept, _ := trimFree(a, b)
	pre := Prefix{Prob: make([]float64, n)}
	if o.Replicates >= 2 {
		pre.StdErr = make([]float64, n)
	}
	last := Result{Prob: 1}
	col := make([]float64, len(acc))
	for i := range pre.Prob {
		if i < len(swept) {
			for rep, row := range acc {
				col[rep] = row[i]
			}
			last = reduceReplicates(col, o.N)
		}
		pre.Prob[i] = last.Prob
		if pre.StdErr != nil {
			pre.StdErr[i] = last.StdErr
		}
	}
	return pre
}

// prefixAcc is the optional accumulator PMVNPrefix threads through integrate:
// one row per replicate, entry i receiving that replicate's estimate after
// row i. nil — PMVN, PMVT — accumulates nothing and leaves the integration
// bit-identical.
type prefixAcc [][]float64

// row is the replicate's row cut to the rows the sweep covers, nil for a nil
// accumulator.
//
//repro:noalloc
func (acc prefixAcc) row(rep, rows int) []float64 {
	if acc == nil {
		return nil
	}
	return acc[rep][:rows]
}

// prefixCol is one sample-tile column's share of a prefix sweep: entry i
// receives Σ_lanes p after row i. A nil prefixCol records nothing — the plain
// PMVN/PMVT path — so the sweep calls it unconditionally.
type prefixCol []float64

// prefixColOf cuts column k's share out of a replicate's pooled kt×rows buffer.
//
//repro:noalloc
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
//repro:noalloc
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

// reducePrefixCols sums the kt column buffers in column order — the order
// runReplicate sums the columns' scalar results in — into the replicate's
// per-prefix estimates.
//
//repro:noalloc
func reducePrefixCols(dst, cols []float64, n int) {
	rows := len(dst)
	for i := range dst {
		sum := 0.0
		for k := i; k < len(cols); k += rows {
			sum += cols[k]
		}
		dst[i] = sum / float64(n)
	}
}
