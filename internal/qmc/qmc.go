// Package qmc provides the quasi-Monte Carlo point generators the SOV
// integration consumes: the Richtmyer √prime lattice that Genz's classical
// MVN code uses (it works at any dimension without direction-number
// tables), a Halton sequence, and a plain pseudo-random generator as the MC
// baseline. Randomized (Cranley–Patterson shifted) replicates provide the
// error estimates.
package qmc

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/linalg"
)

// Generator produces a deterministic or random sequence of points in
// [0,1)^Dim.
type Generator interface {
	// Dim returns the dimensionality of generated points.
	//repro:noalloc
	Dim() int
	// Next fills dst (length Dim) with the next point in the sequence.
	Next(dst []float64)
	// Reset rewinds the sequence to its beginning.
	Reset()
}

// BlockGenerator is a Generator whose point k is a direct function of its
// index, so any rectangular (points × dimensions) block of the sequence can
// be produced without advancing sequential state. The chain-blocked SOV
// kernel relies on this to generate exactly the lane block it is about to
// consume — per sample-tile column, per row tile — instead of scattering
// whole points into a pre-allocated grid, and to skip generation entirely
// for dead lane blocks. All the deterministic generators in this package
// (Richtmyer, Halton, ScrambledHalton) implement it; Pseudo cannot.
type BlockGenerator interface {
	Generator
	// FillBlock writes the lane-major block dst[lane][d] = coordinate d0+d
	// of point p0+lane, for lane < dst.Rows and d < dst.Cols: each column of
	// dst holds one QMC dimension across a contiguous run of points. Point
	// indices are zero-based: point 0 is the first point Next produces after
	// Reset, and the values are identical to the sequential ones. FillBlock
	// does not advance the generator's sequential state.
	//repro:noalloc
	FillBlock(dst *linalg.Matrix, p0, d0 int)
	// Pos returns the zero-based index of the point the next Next call would
	// produce.
	Pos() int
	// Skip advances the sequential state by count points without producing
	// them.
	Skip(count int)
}

// NextBlock advances g by count points, writing them lane-major into dst:
// dst[l][d] = coordinate d of point l, so dst must be count × g.Dim().
// Block-capable generators fill whole columns directly (stride-1 writes, one
// pass per dimension); sequential generators fall back to per-point Next
// with a strided scatter through pooled scratch.
func NextBlock(g Generator, dst *linalg.Matrix, count int) {
	if dst.Rows < count || dst.Cols != g.Dim() {
		panic(fmt.Sprintf("qmc: NextBlock dst %dx%d cannot hold %d points of dim %d",
			dst.Rows, dst.Cols, count, g.Dim()))
	}
	if bg, ok := g.(BlockGenerator); ok {
		block := dst
		if dst.Rows != count {
			block = dst.View(0, 0, count, dst.Cols)
		}
		bg.FillBlock(block, bg.Pos(), 0)
		bg.Skip(count)
		return
	}
	point := linalg.GetVec(g.Dim())
	for l := 0; l < count; l++ {
		g.Next(point)
		for d, v := range point {
			dst.Set(l, d, v)
		}
	}
	linalg.PutVec(point)
}

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

// Richtmyer is the rank-1 lattice x_k[i] = frac(k·√p_i + Δ_i) with p_i the
// i-th prime and Δ an optional Cranley–Patterson random shift. It is the
// generator used by Genz's MVN implementations because it extends to
// arbitrary dimension.
type Richtmyer struct {
	alpha []float64 // frac(√p_i), a read-only view of the shared table
	shift []float64
	k     float64
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

// NewRichtmyer returns an unshifted Richtmyer generator of dimension dim.
func NewRichtmyer(dim int) *Richtmyer {
	return NewRichtmyerShifted(dim, nil)
}

// NewRichtmyerShifted returns a Richtmyer generator with the given shift
// (length dim); a nil shift means no shift. The shift slice is copied.
func NewRichtmyerShifted(dim int, shift []float64) *Richtmyer {
	r := new(Richtmyer)
	initRichtmyer(r, dim, shift)
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
	r.k = 1
	if shift != nil {
		r.shift = append(r.shift[:0], shift...)
	} else {
		r.shift = nil
	}
}

// richtmyerPool recycles Richtmyer generators (and their shift backing
// arrays) so the warm query path can draw one per replicate without
// allocating; the lattice multipliers themselves come from the shared table.
var richtmyerPool = sync.Pool{New: func() any { return new(Richtmyer) }}

// GetRichtmyer returns a pooled Richtmyer generator, identical to
// NewRichtmyerShifted(dim, shift). Return it with PutRichtmyer once the
// caller no longer holds it.
func GetRichtmyer(dim int, shift []float64) *Richtmyer {
	r := richtmyerPool.Get().(*Richtmyer)
	initRichtmyer(r, dim, shift)
	return r
}

// PutRichtmyer recycles a generator obtained from GetRichtmyer. The caller
// must drop its pointer.
func PutRichtmyer(r *Richtmyer) {
	if r != nil {
		richtmyerPool.Put(r)
	}
}

// Dim implements Generator.
//repro:noalloc
func (r *Richtmyer) Dim() int { return len(r.alpha) }

// Next implements Generator.
func (r *Richtmyer) Next(dst []float64) {
	k := r.k
	for i, a := range r.alpha {
		v := k * a
		v -= math.Floor(v)
		if r.shift != nil {
			v += r.shift[i]
			if v >= 1 {
				v--
			}
		}
		// Clamp away from the endpoints: downstream Φ⁻¹ needs (0,1).
		dst[i] = clamp01(v)
	}
	r.k++
}

// Reset implements Generator.
func (r *Richtmyer) Reset() { r.k = 1 }

// Pos implements BlockGenerator.
func (r *Richtmyer) Pos() int { return int(r.k) - 1 }

// Skip implements BlockGenerator.
func (r *Richtmyer) Skip(count int) { r.k += float64(count) }

// FillBlock implements BlockGenerator: one pass per dimension, stride-1
// writes, the lattice recurrence reduced to a multiply, a floor and the
// shift fold per element.
//repro:noalloc
func (r *Richtmyer) FillBlock(dst *linalg.Matrix, p0, d0 int) {
	for d := 0; d < dst.Cols; d++ {
		a := r.alpha[d0+d]
		col := dst.Col(d)
		if r.shift == nil {
			k := float64(p0 + 1)
			for l := range col {
				v := k * a
				col[l] = clamp01(v - math.Floor(v))
				k++
			}
			continue
		}
		sh := r.shift[d0+d]
		k := float64(p0 + 1)
		for l := range col {
			v := k * a
			v -= math.Floor(v)
			v += sh
			if v >= 1 {
				v--
			}
			col[l] = clamp01(v)
			k++
		}
	}
}

// Halton is the van der Corput / Halton sequence in the first Dim prime
// bases with an optional random shift.
type Halton struct {
	bases []int
	shift []float64
	k     int64
}

// NewHalton returns a Halton generator of dimension dim with optional shift.
func NewHalton(dim int, shift []float64) *Halton {
	if dim <= 0 {
		panic(fmt.Sprintf("qmc: invalid dimension %d", dim))
	}
	if shift != nil && len(shift) != dim {
		panic("qmc: shift length mismatch")
	}
	h := &Halton{bases: Primes(dim), k: 1}
	if shift != nil {
		h.shift = append([]float64(nil), shift...)
	}
	return h
}

// Dim implements Generator.
//repro:noalloc
func (h *Halton) Dim() int { return len(h.bases) }

// Next implements Generator.
func (h *Halton) Next(dst []float64) {
	for i, b := range h.bases {
		dst[i] = radicalInverse(h.k, b)
		if h.shift != nil {
			dst[i] += h.shift[i]
			if dst[i] >= 1 {
				dst[i]--
			}
		}
		dst[i] = clamp01(dst[i])
	}
	h.k++
}

// Reset implements Generator.
func (h *Halton) Reset() { h.k = 1 }

// Pos implements BlockGenerator.
func (h *Halton) Pos() int { return int(h.k) - 1 }

// Skip implements BlockGenerator.
func (h *Halton) Skip(count int) { h.k += int64(count) }

// FillBlock implements BlockGenerator.
//repro:noalloc
func (h *Halton) FillBlock(dst *linalg.Matrix, p0, d0 int) {
	for d := 0; d < dst.Cols; d++ {
		b := h.bases[d0+d]
		col := dst.Col(d)
		var sh float64
		if h.shift != nil {
			sh = h.shift[d0+d]
		}
		for l := range col {
			v := radicalInverse(int64(p0+l+1), b) + sh
			if v >= 1 {
				v--
			}
			col[l] = clamp01(v)
		}
	}
}

//repro:noalloc
func radicalInverse(k int64, base int) float64 {
	inv := 1.0 / float64(base)
	f := inv
	v := 0.0
	for k > 0 {
		v += float64(k%int64(base)) * f
		k /= int64(base)
		f *= inv
	}
	return v
}

// ScrambledHalton is the Halton sequence with per-base random digit
// permutations (Braaten–Weller scrambling). Plain Halton degrades badly in
// high dimension because large prime bases produce long monotone runs;
// scrambling restores uniformity while keeping the low-discrepancy
// structure.
type ScrambledHalton struct {
	bases []int
	perms [][]uint8 // perms[d][digit]: permuted digit, perms[d][0] == 0
	k     int64
}

// NewScrambledHalton returns a scrambled Halton generator of dimension dim
// seeded by seed.
func NewScrambledHalton(dim int, seed int64) *ScrambledHalton {
	if dim <= 0 {
		panic(fmt.Sprintf("qmc: invalid dimension %d", dim))
	}
	rng := rand.New(rand.NewSource(seed))
	h := &ScrambledHalton{bases: Primes(dim), perms: make([][]uint8, dim), k: 1}
	for d, b := range h.bases {
		if b > 255 {
			// Digits are stored as uint8; the 54th prime is 251, so this
			// only matters beyond ~2500 dimensions — use a modular shift
			// permutation there instead of an explicit table.
			h.perms[d] = nil
			continue
		}
		p := make([]uint8, b)
		for i := range p {
			p[i] = uint8(i)
		}
		// Permute the nonzero digits; digit 0 must stay fixed so that the
		// radical inverse remains in [0,1).
		for i := b - 1; i > 1; i-- {
			j := 1 + rng.Intn(i)
			p[i], p[j] = p[j], p[i]
		}
		h.perms[d] = p
	}
	return h
}

// Dim implements Generator.
//repro:noalloc
func (h *ScrambledHalton) Dim() int { return len(h.bases) }

// Next implements Generator.
func (h *ScrambledHalton) Next(dst []float64) {
	for d, b := range h.bases {
		dst[d] = clamp01(scrambledRadicalInverse(h.k, b, h.perms[d]))
	}
	h.k++
}

// Reset implements Generator.
func (h *ScrambledHalton) Reset() { h.k = 1 }

// Pos implements BlockGenerator.
func (h *ScrambledHalton) Pos() int { return int(h.k) - 1 }

// Skip implements BlockGenerator.
func (h *ScrambledHalton) Skip(count int) { h.k += int64(count) }

// FillBlock implements BlockGenerator.
//repro:noalloc
func (h *ScrambledHalton) FillBlock(dst *linalg.Matrix, p0, d0 int) {
	for d := 0; d < dst.Cols; d++ {
		b := h.bases[d0+d]
		perm := h.perms[d0+d]
		col := dst.Col(d)
		for l := range col {
			col[l] = clamp01(scrambledRadicalInverse(int64(p0+l+1), b, perm))
		}
	}
}

//repro:noalloc
func scrambledRadicalInverse(k int64, base int, perm []uint8) float64 {
	inv := 1.0 / float64(base)
	f := inv
	v := 0.0
	b := int64(base)
	for k > 0 {
		digit := k % b
		if perm != nil {
			digit = int64(perm[digit])
		} else {
			// Modular-shift scrambling for bases beyond the table range.
			if digit != 0 {
				digit = 1 + (digit*7919+13)%(b-1)
			}
		}
		v += float64(digit) * f
		k /= b
		f *= inv
	}
	return v
}

// Pseudo is the plain Monte Carlo baseline: i.i.d. U(0,1) points.
type Pseudo struct {
	dim  int
	seed int64
	rng  *rand.Rand
}

// NewPseudo returns a pseudo-random generator of dimension dim.
func NewPseudo(dim int, seed int64) *Pseudo {
	if dim <= 0 {
		panic(fmt.Sprintf("qmc: invalid dimension %d", dim))
	}
	return &Pseudo{dim: dim, seed: seed, rng: rand.New(rand.NewSource(seed))}
}

// Dim implements Generator.
//repro:noalloc
func (p *Pseudo) Dim() int { return p.dim }

// Next implements Generator.
func (p *Pseudo) Next(dst []float64) {
	for i := range dst[:p.dim] {
		dst[i] = clamp01(p.rng.Float64())
	}
}

// Reset implements Generator.
func (p *Pseudo) Reset() { p.rng = rand.New(rand.NewSource(p.seed)) }

// clamp01 keeps u strictly inside (0,1) so that Φ⁻¹ stays finite.
//repro:noalloc
func clamp01(u float64) float64 {
	const eps = 1e-15
	if u < eps {
		return eps
	}
	if u > 1-1e-12 {
		return 1 - 1e-12
	}
	return u
}

// FillMatrix fills the n×N matrix R with samples: column j holds point j of
// the sequence, so row i is QMC dimension i. This is the R matrix of the
// paper's Algorithm 2 (line 4).
func FillMatrix(g Generator, r *linalg.Matrix) {
	if r.Rows != g.Dim() {
		panic(fmt.Sprintf("qmc: matrix rows %d != generator dim %d", r.Rows, g.Dim()))
	}
	for j := 0; j < r.Cols; j++ {
		g.Next(r.Col(j))
	}
}

// RandomShift draws a uniform shift vector of length dim for randomized QMC
// replicates.
func RandomShift(dim int, rng *rand.Rand) []float64 {
	s := make([]float64, dim)
	FillShift(s, rng)
	return s
}

// FillShift is RandomShift into caller-owned storage (pooled by the warm
// replicate path).
func FillShift(dst []float64, rng *rand.Rand) {
	for i := range dst {
		dst[i] = rng.Float64()
	}
}

// FillShiftSeeded fills dst with a Cranley–Patterson shift derived from seed
// by the splitmix64 recurrence — the allocation-free deterministic
// counterpart of FillShift for paths that cannot afford a math/rand source
// (a budgeted integration draws one pooled shifted generator per replicate
// on the warm serving path). Identical seeds produce identical
// shifts on every platform.
//repro:noalloc
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
