// Package qmc provides the one quasi-Monte Carlo point set the SOV
// integration consumes: the Richtmyer √prime lattice that Genz's classical MVN
// code uses (it works at any dimension without direction-number tables),
// served by random access in lane-major blocks. Randomized
// (Cranley–Patterson shifted) replicates provide the error estimates.
package qmc

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/linalg"
)

// Primes returns the first n primes (sieve of Eratosthenes with a grown
// bound).
func Primes(n int) []int {
	if n <= 0 {
		return nil
	}
	// Upper bound for the n-th prime: n(ln n + ln ln n) for n ≥ 6.
	limit := 15
	if n >= 6 {
		f := float64(n)
		limit = int(f*(math.Log(f)+math.Log(math.Log(f)))) + 10
	}
	for {
		sieve := make([]bool, limit+1)
		var out []int
		for p := 2; p <= limit; p++ {
			if sieve[p] {
				continue
			}
			out = append(out, p)
			if len(out) == n {
				return out
			}
			for q := p * p; q <= limit; q += p {
				sieve[q] = true
			}
		}
		limit *= 2
	}
}

// Richtmyer is the rank-1 lattice x_k[i] = frac(k·√p_i + Δ_i), k = 1, 2, …,
// with p_i the i-th prime and Δ an optional Cranley–Patterson random shift.
// It is the point set of Genz's MVN implementations because it extends to
// arbitrary dimension. Point k is a direct function of its index, so FillBlock
// serves any block of the lattice and concurrent readers need no state.
type Richtmyer struct {
	alpha []float64 // frac(√p_i), a read-only view of the shared table
	shift []float64
}

// alphaTable caches frac(√p_i) across generators: a served workload builds a
// Richtmyer per query (or per replicate), and re-sieving the primes and
// re-rooting them each time is both wasteful and an allocation the warm
// query path cannot afford. The table only ever grows; readers share it.
var alphaTable struct {
	sync.Mutex
	v []float64
}

// richtmyerAlpha returns the first dim lattice multipliers as a shared
// read-only slice.
func richtmyerAlpha(dim int) []float64 {
	alphaTable.Lock()
	defer alphaTable.Unlock()
	if len(alphaTable.v) < dim {
		grown := make([]float64, dim+dim/2)
		for i, p := range Primes(len(grown)) {
			s := math.Sqrt(float64(p))
			grown[i] = s - math.Floor(s)
		}
		alphaTable.v = grown
	}
	return alphaTable.v[:dim]
}

// NewRichtmyer returns an unshifted Richtmyer lattice of dimension dim.
func NewRichtmyer(dim int) *Richtmyer {
	r := new(Richtmyer)
	initRichtmyer(r, dim, nil)
	return r
}

func initRichtmyer(r *Richtmyer, dim int, shift []float64) {
	if dim <= 0 {
		panic(fmt.Sprintf("qmc: invalid dimension %d", dim))
	}
	if shift != nil && len(shift) != dim {
		panic("qmc: shift length mismatch")
	}
	r.alpha = richtmyerAlpha(dim)
	if shift != nil {
		r.shift = append(r.shift[:0], shift...)
	} else {
		r.shift = nil
	}
}

// richtmyerPool recycles Richtmyer lattices (and their shift backing arrays)
// so the warm query path can draw one per replicate without allocating; the
// lattice multipliers themselves come from the shared table.
var richtmyerPool = sync.Pool{New: func() any { return new(Richtmyer) }}

// GetRichtmyer returns a pooled Richtmyer lattice of dimension dim with the
// given shift (length dim, copied); a nil shift means no shift. Return it with
// PutRichtmyer once the caller no longer holds it.
func GetRichtmyer(dim int, shift []float64) *Richtmyer {
	r := richtmyerPool.Get().(*Richtmyer)
	initRichtmyer(r, dim, shift)
	return r
}

// PutRichtmyer recycles a lattice obtained from GetRichtmyer. The caller must
// drop its pointer.
func PutRichtmyer(r *Richtmyer) {
	if r != nil {
		richtmyerPool.Put(r)
	}
}

// FillBlock writes the lane-major block dst[lane][d] = coordinate d0+d of
// point p0+lane, for lane < dst.Rows and d < dst.Cols: each column of dst
// holds one QMC dimension across a contiguous run of points, and point p is
// the lattice's k = p+1. One pass per dimension, stride-1 writes, the lattice
// recurrence reduced to a multiply, a floor and the shift fold (a second
// floor) per element — four lanes at a time on AVX2 (latticeFill, the same
// operations), the loops below for the rest.
func (r *Richtmyer) FillBlock(dst *linalg.Matrix, p0, d0 int) {
	for d := 0; d < dst.Cols; d++ {
		a := r.alpha[d0+d]
		col := dst.Col(d)
		sh, shifted := 0.0, r.shift != nil
		if shifted {
			sh = r.shift[d0+d]
		}
		k := float64(p0 + 1)
		if fillVec && len(col) >= 4 {
			n := len(col) &^ 3
			latticeFill(col[:n], k, a, sh, shifted)
			col, k = col[n:], k+float64(n) // k stays an exact integer
		}
		if !shifted {
			for l := range col {
				v := k * a
				col[l] = clamp01(v - math.Floor(v))
				k++
			}
			continue
		}
		for l := range col {
			v := k * a
			v -= math.Floor(v)
			v += sh
			v -= math.Floor(v) // v ∈ [0, 2): exactly "if v ≥ 1 { v-- }", without the branch
			col[l] = clamp01(v)
			k++
		}
	}
}

// clamp01's bounds, shared with the vector body.
const (
	clampLo = 1e-15
	clampHi = 1 - 1e-12
)

// clamp01 keeps u strictly inside (0,1) so that Φ⁻¹ stays finite.
func clamp01(u float64) float64 {
	if u < clampLo {
		return clampLo
	}
	if u > clampHi {
		return clampHi
	}
	return u
}

// FillShift fills dst with a uniform Cranley–Patterson shift drawn from rng.
func FillShift(dst []float64, rng *rand.Rand) {
	for i := range dst {
		dst[i] = rng.Float64()
	}
}

// FillShiftSeeded fills dst with a Cranley–Patterson shift derived from seed
// by the splitmix64 recurrence — the allocation-free deterministic
// counterpart of FillShift for paths that cannot afford a math/rand source
// (a budgeted integration draws one pooled shifted lattice per replicate on
// the warm serving path). Identical seeds produce identical shifts on every
// platform.
func FillShiftSeeded(dst []float64, seed uint64) {
	x := seed
	for i := range dst {
		x += 0x9E3779B97F4A7C15
		z := x
		z ^= z >> 30
		z *= 0xBF58476D1CE4E5B9
		z ^= z >> 27
		z *= 0x94D049BB133111EB
		z ^= z >> 31
		dst[i] = float64(z>>11) / (1 << 53)
	}
}
