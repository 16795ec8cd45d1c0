package qmc

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

func TestPrimes(t *testing.T) {
	want := []int{2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
	got := Primes(10)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Primes(10) = %v", got)
		}
	}
	if p := Primes(1000); p[999] != 7919 {
		t.Errorf("1000th prime = %d, want 7919", p[999])
	}
	if Primes(0) != nil {
		t.Error("Primes(0) should be nil")
	}
}

// block returns points p0 … p0+npts−1 of g, all dim coordinates, lane-major.
func block(g *Richtmyer, p0, npts, dim int) *linalg.Matrix {
	m := linalg.NewMatrix(npts, dim)
	g.FillBlock(m, p0, 0)
	return m
}

// randomShift draws a uniform shift of length dim.
func randomShift(dim int, rng *rand.Rand) []float64 {
	s := make([]float64, dim)
	FillShift(s, rng)
	return s
}

func TestGeneratorsInUnitInterval(t *testing.T) {
	shifted := GetRichtmyer(13, randomShift(13, rand.New(rand.NewSource(1))))
	defer PutRichtmyer(shifted)
	for name, g := range map[string]*Richtmyer{"richtmyer": NewRichtmyer(13), "richtmyer-shifted": shifted} {
		pts := block(g, 0, 5000, 13)
		for i, v := range pts.Data {
			if v <= 0 || v >= 1 {
				t.Fatalf("%s: entry %d = %v outside (0,1)", name, i, v)
			}
		}
	}
}

// TestRichtmyerLatticeStructure is the closed form of FillBlock: entry
// (lane, d) of the block at (p0, d0) is frac(k·√p_i + Δ_i) with k = p0+lane+1
// and i = d0+d, folded back into [0,1) and clamped — bit for bit, for the
// unshifted and a shifted lattice, at any (point, dimension) offset.
func TestRichtmyerLatticeStructure(t *testing.T) {
	const dim = 13
	primes := Primes(dim)
	shift := randomShift(dim, rand.New(rand.NewSource(9)))
	shifted := GetRichtmyer(dim, shift)
	defer PutRichtmyer(shifted)
	for name, c := range map[string]struct {
		g     *Richtmyer
		shift []float64
	}{"unshifted": {NewRichtmyer(dim), nil}, "shifted": {shifted, shift}} {
		for _, o := range [][4]int{{0, 0, 40, dim}, {3, 2, 8, 5}, {17, 12, 23, 1}, {1 << 20, 0, 1, dim}} {
			p0, d0, rows, cols := o[0], o[1], o[2], o[3]
			blk := linalg.NewMatrix(rows, cols)
			c.g.FillBlock(blk, p0, d0)
			for l := 0; l < rows; l++ {
				for d := 0; d < cols; d++ {
					s := math.Sqrt(float64(primes[d0+d]))
					v := float64(p0+l+1) * (s - math.Floor(s))
					v -= math.Floor(v)
					if c.shift != nil {
						if v += c.shift[d0+d]; v >= 1 {
							v--
						}
					}
					if got, want := blk.At(l, d), clamp01(v); got != want {
						t.Fatalf("%s: FillBlock(p0=%d,d0=%d)[%d,%d] = %v, closed form %v", name, p0, d0, l, d, got, want)
					}
				}
			}
		}
	}
}

// TestFillBlockFoldMatchesBranchyFold pins the shift fold, which reduces
// v = frac(k·α) + Δ ∈ [0, 2) by a second floor, to the branchy
// "if v ≥ 1 { v-- }" it replaces, bit for bit: ragged block lengths 1…67,
// unshifted and shifted, with shifts that put v at or next to 1.
func TestFillBlockFoldMatchesBranchyFold(t *testing.T) {
	const dim = 7
	rng := rand.New(rand.NewSource(35))
	alpha := richtmyerAlpha(dim)
	shifts := [][]float64{nil, randomShift(dim, rng), randomShift(dim, rng)}
	edge := make([]float64, dim) // Δ = 1 − frac(α) hits v = 1 at k = 1
	for d, a := range alpha {
		edge[d] = 1 - a
		if d%2 == 1 {
			edge[d] = math.Nextafter(edge[d], 0)
		}
	}
	shifts = append(shifts, edge, []float64{0, 1 - 0x1p-53, 0.5, 0x1p-53, 0.999999, 1e-300, 0.25})
	for _, shift := range shifts {
		g := GetRichtmyer(dim, shift)
		for rows := 1; rows <= 67; rows++ {
			p0 := rng.Intn(5000)
			if rows%5 == 0 {
				p0 = 0
			}
			blk := linalg.NewMatrix(rows, dim)
			g.FillBlock(blk, p0, 0)
			for l := 0; l < rows; l++ {
				for d := 0; d < dim; d++ {
					v := float64(p0+l+1) * alpha[d]
					v -= math.Floor(v)
					if shift != nil {
						v += shift[d]
						if v >= 1 {
							v--
						}
					}
					if got, want := blk.At(l, d), clamp01(v); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("shift %v rows %d: FillBlock(p0=%d)[%d,%d] = %v, branchy fold %v", shift != nil, rows, p0, l, d, got, want)
					}
				}
			}
		}
		PutRichtmyer(g)
	}
}

func TestUniformMean(t *testing.T) {
	// Sample means converge to 1/2 in every dimension.
	const n = 20000
	pts := block(NewRichtmyer(5), 0, n, 5)
	for d := 0; d < 5; d++ {
		s := 0.0
		for _, v := range pts.Col(d) {
			s += v
		}
		if m := s / n; math.Abs(m-0.5) > 0.01 {
			t.Errorf("dim %d mean %v", d, m)
		}
	}
}

func TestQMCBeatsMCOnSmoothIntegrand(t *testing.T) {
	// f = Π (1 + (x_i−1/2)) has exact integral 1. The lattice's error at
	// N=4096 should be well below plain MC's, averaged over seeds.
	const dim, n = 6, 4096
	f := func(x func(k, d int) float64) float64 {
		s := 0.0
		for k := 0; k < n; k++ {
			p := 1.0
			for d := 0; d < dim; d++ {
				p *= 1 + (x(k, d) - 0.5)
			}
			s += p
		}
		return s / n
	}
	pts := block(NewRichtmyer(dim), 0, n, dim)
	qmcErr := math.Abs(f(pts.At) - 1)
	mcErr := 0.0
	const trials = 10
	for s := int64(0); s < trials; s++ {
		rng := rand.New(rand.NewSource(s))
		mcErr += math.Abs(f(func(int, int) float64 { return rng.Float64() }) - 1)
	}
	mcErr /= trials
	if qmcErr > mcErr {
		t.Errorf("QMC error %v not better than MC error %v", qmcErr, mcErr)
	}
}

func TestShiftedReplicatesDiffer(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g1 := GetRichtmyer(3, randomShift(3, rng))
	a := block(g1, 0, 1, 3)
	PutRichtmyer(g1)
	g2 := GetRichtmyer(3, randomShift(3, rng))
	b := block(g2, 0, 1, 3)
	PutRichtmyer(g2)
	if a.MaxAbsDiff(b) == 0 {
		t.Error("differently shifted lattices produced identical points")
	}
}

func TestConstructorsPanicOnBadDim(t *testing.T) {
	for _, f := range []func(){
		func() { NewRichtmyer(0) },
		func() { GetRichtmyer(-1, nil) },
		func() { GetRichtmyer(2, []float64{0.5}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("constructor should panic")
				}
			}()
			f()
		}()
	}
}

// TestPooledRichtmyerMatchesFresh: a recycled lattice is indistinguishable
// from a freshly built one, and an unshifted one does not inherit the shift
// of its previous use.
func TestPooledRichtmyerMatchesFresh(t *testing.T) {
	shift := randomShift(6, rand.New(rand.NewSource(11)))
	fresh := new(Richtmyer)
	initRichtmyer(fresh, 6, shift)
	want := block(fresh, 0, 50, 6)
	for round := 0; round < 3; round++ {
		g := GetRichtmyer(6, shift)
		if d := block(g, 0, 50, 6).MaxAbsDiff(want); d != 0 {
			t.Fatalf("round %d: pooled shifted lattice differs from fresh by %v", round, d)
		}
		PutRichtmyer(g)
		g2 := GetRichtmyer(6, nil)
		if d := block(g2, 0, 50, 6).MaxAbsDiff(block(NewRichtmyer(6), 0, 50, 6)); d != 0 {
			t.Fatalf("round %d: pooled unshifted lattice differs from fresh by %v", round, d)
		}
		PutRichtmyer(g2)
	}
}

// fillBoth fills a rows×dim block of g at (p0, d0) with the vector body and
// with the scalar loops, and returns the first element where they differ.
func fillBoth(g *Richtmyer, rows, dim, p0, d0 int) (l, d int, vec, scalar float64, same bool) {
	saved := fillVec
	defer func() { fillVec = saved }()
	got, want := linalg.NewMatrix(rows, dim), linalg.NewMatrix(rows, dim)
	fillVec = true
	g.FillBlock(got, p0, d0)
	fillVec = false
	g.FillBlock(want, p0, d0)
	for d := 0; d < dim; d++ {
		for l := 0; l < rows; l++ {
			if math.Float64bits(got.At(l, d)) != math.Float64bits(want.At(l, d)) {
				return l, d, got.At(l, d), want.At(l, d), false
			}
		}
	}
	return 0, 0, 0, 0, true
}

// TestFillBlockVectorMatchesScalar: the four-lane body is the scalar loops
// bit for bit, unshifted and shifted (shifts at the fold's edges included),
// at every length around its 4-lane blocks and at large point indices.
func TestFillBlockVectorMatchesScalar(t *testing.T) {
	if !fillVec {
		t.Skip("no AVX2+FMA here (or REPRO_NOASM set): FillBlock runs its scalar loops only")
	}
	const dim = 9 // columns; the lattice has 2 more, for the first-dimension offsets
	rng := rand.New(rand.NewSource(41))
	shifts := [][]float64{nil, randomShift(dim+2, rng), {0, 1 - 0x1p-53, 0.5, 0x1p-53, 0.999999, 1e-300, 0.25, 1 - 1e-12, 1e-15, 0.75, 1 - 0x1p-52}}
	for _, shift := range shifts {
		g := GetRichtmyer(dim+2, shift)
		for rows := 1; rows <= 41; rows++ {
			for _, p0 := range []int{0, rng.Intn(5000), 1<<40 + rng.Intn(1000)} {
				if l, d, vec, sc, ok := fillBoth(g, rows, dim, p0, rows%3); !ok {
					t.Fatalf("shift %v rows %d p0 %d: [%d,%d] vector %v, scalar %v", shift != nil, rows, p0, l, d, vec, sc)
				}
			}
		}
		PutRichtmyer(g)
	}
}

// FuzzFillBlock: the four-lane body against the scalar loops bit for bit,
// over the first point, the block length (1–17), the first dimension and
// the shift (none, or one value folded into [0, 1)).
func FuzzFillBlock(f *testing.F) {
	if !fillVec {
		f.Skip("no AVX2+FMA here (or REPRO_NOASM set): FillBlock runs its scalar loops only")
	}
	f.Add(uint64(0), uint8(4), uint8(0), false, 0.0)
	f.Add(uint64(4999), uint8(17), uint8(3), true, 0.999999)
	f.Add(uint64(1<<40), uint8(7), uint8(1), true, 1-0x1p-53)
	f.Fuzz(func(t *testing.T, p0 uint64, rows, d0 uint8, shifted bool, sh float64) {
		p := int(p0 % (1 << 50))
		n := 1 + int(rows)%17
		d := int(d0) % 8
		const dim = 3
		var shift []float64
		if shifted {
			if math.IsNaN(sh) || math.IsInf(sh, 0) {
				sh = 0
			}
			sh = math.Abs(sh)
			sh -= math.Floor(sh)
			shift = make([]float64, d+dim)
			for i := range shift {
				shift[i] = sh
			}
		}
		g := GetRichtmyer(d+dim, shift)
		defer PutRichtmyer(g)
		if l, dd, vec, sc, ok := fillBoth(g, n, dim, p, d); !ok {
			t.Fatalf("p0 %d rows %d d0 %d shift %v: [%d,%d] vector %v, scalar %v", p, n, d, shift, l, dd, vec, sc)
		}
	})
}
