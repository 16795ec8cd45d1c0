package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// sameBits reports the first element where got and want differ in their
// bits, or ok.
func sameBits(got, want *Matrix) (i, j int, ok bool) {
	for j := 0; j < want.Cols; j++ {
		gc, wc := got.Col(j), want.Col(j)
		for i, v := range wc {
			if math.Float64bits(gc[i]) != math.Float64bits(v) {
				return i, j, false
			}
		}
	}
	return 0, 0, true
}

// eachISA runs f once on every micro-kernel this host (and REPRO_NOASM)
// allows, best first, and restores the selection.
func eachISA(f func()) {
	best := kernelISA
	defer func() { kernelISA = best }()
	for isa := best; isa >= isaGo; isa-- {
		kernelISA = isa
		f()
	}
}

// TestGemmPackedABMatchesGemmPackedA: a factor tile packed once multiplies
// bit for bit as GemmPackedA multiplies it after packing it per call — every
// rows-mod-6 class of the ragged panel, depths from 1 past kcBlk, rows past
// ncBlk (a second jc block), lane counts past mcBlk, overwrite and
// accumulate — on each micro-kernel in turn.
func TestGemmPackedABMatchesGemmPackedA(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	type shape struct{ m, n, k int }
	var shapes []shape
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 64, 509} {
		for _, k := range []int{1, 2, 5, 31, 256, 257, 300} {
			for _, m := range []int{1, 17, 48} {
				if n > 100 && (k < 256 || m > 17) {
					continue
				}
				shapes = append(shapes, shape{m, n, k})
			}
		}
	}
	shapes = append(shapes, shape{129, 13, 300}, shape{130, 509, 64})
	for _, s := range shapes {
		a := randMat(s.m, s.k, rng)
		pa := packMat(a)
		b := randMat(s.n, s.k, rng)
		pb := PackBInto(make([]float64, s.n*s.k), b.Data, b.Stride, s.n, s.k)
		for _, beta := range []float64{0, 1} {
			c0 := randMat(s.m, s.n, rng)
			eachISA(func() {
				want, got := c0.Clone(), c0.Clone()
				GemmPackedA(-0.75, pa, true, b, beta, want)
				GemmPackedAB(-0.75, pa, pb, beta, got)
				if i, j, ok := sameBits(got, want); !ok {
					t.Fatalf("%s m=%d n=%d k=%d beta=%g: (%d,%d) = %v, GemmPackedA %v",
						KernelISA(), s.m, s.n, s.k, beta, i, j, got.At(i, j), want.At(i, j))
				}
			})
		}
	}
}

// TestPackedBRoundTrip: packing and unpacking give the matrix back exactly,
// for every ragged class and block count, whether packed from a copy, from a
// strided view, or in place over the matrix's own storage.
func TestPackedBRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 5, 6, 7, 12, 13, 503, 504, 505, 1013} {
		for _, k := range []int{1, 3, 255, 256, 257, 300} {
			if n > 100 && k < 255 {
				continue
			}
			b := randMat(n, k, rng)
			check := func(how string, p PackedB) {
				t.Helper()
				if p.N != n || p.K != k || len(p.Data) != n*k {
					t.Fatalf("%s n=%d k=%d: packed %dx%d over %d elements", how, n, k, p.N, p.K, len(p.Data))
				}
				got := NewMatrix(n, k)
				got.Fill(math.NaN())
				p.UnpackInto(got)
				if i, j, ok := sameBits(got, b); !ok {
					t.Fatalf("%s n=%d k=%d: (%d,%d) = %v, want %v", how, n, k, i, j, got.At(i, j), b.At(i, j))
				}
			}
			fresh := PackBInto(make([]float64, n*k), b.Data, b.Stride, n, k)
			check("copy", fresh)

			big := randMat(n+3, k+1, rng)
			view := big.View(2, 1, n, k)
			view.CopyFrom(b)
			check("view", PackBInto(make([]float64, n*k), view.Data, view.Stride, n, k))

			inPlace := b.Clone()
			p := PackBInPlace(inPlace)
			if &p.Data[0] != &inPlace.Data[0] {
				t.Fatalf("n=%d k=%d: PackBInPlace moved the payload", n, k)
			}
			for i, v := range fresh.Data {
				if math.Float64bits(p.Data[i]) != math.Float64bits(v) {
					t.Fatalf("n=%d k=%d: in-place layout differs from a fresh pack at %d", n, k, i)
				}
			}
			check("in place", p)
		}
	}
}

// TestAxpyColsMatchesAxpyLoop: the register-blocked conditioning sum is the
// Axpy loop it replaces, bit for bit, at every lane count around the 16- and
// 4-lane blocks and vecMinLen, with zero and negative-zero coefficients
// skipped, a NaN coefficient applied, and −0 accumulators.
func TestAxpyColsMatchesAxpyLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for lanes := 1; lanes <= 40; lanes++ {
		for _, nt := range []int{0, 1, 2, 7, 31} {
			y := randMat(lanes+2, nt+3, rng)
			c := make([]float64, nt)
			for i := range c {
				switch rng.Intn(5) {
				case 0:
					c[i] = 0
				case 1:
					c[i] = math.Copysign(0, -1)
				default:
					c[i] = rng.NormFloat64()
				}
			}
			acc := make([]float64, lanes)
			for i := range acc {
				if rng.Intn(3) == 0 {
					acc[i] = math.Copysign(0, -1)
				} else {
					acc[i] = rng.NormFloat64()
				}
			}
			for i := 0; i < min(nt, lanes); i++ {
				y.Set(i, 1+i, 0) // a +0 term on a −0 accumulator
			}
			want := append([]float64(nil), acc...)
			for t, ct := range c {
				if ct != 0 {
					Axpy(ct, y.Col(1 + t)[:lanes], want)
				}
			}
			got := append([]float64(nil), acc...)
			AxpyCols(got, c, 1, y, 1, nt)
			// The same coefficients read in place from a row of a matrix.
			row := NewMatrix(3, max(nt, 1))
			for t, ct := range c {
				row.Set(2, t, ct)
			}
			gotRow := append([]float64(nil), acc...)
			AxpyCols(gotRow, row.Data[2:], row.Stride, y, 1, nt)
			for i, v := range want {
				if math.Float64bits(got[i]) != math.Float64bits(v) || math.Float64bits(gotRow[i]) != math.Float64bits(v) {
					t.Fatalf("lanes=%d terms=%d: lane %d = %v (%x), strided %v, Axpy loop %v (%x)", lanes, nt, i, got[i], math.Float64bits(got[i]), gotRow[i], v, math.Float64bits(v))
				}
			}
		}
	}
	// A NaN coefficient is a term, not a zero.
	y := randMat(20, 2, rng)
	acc := make([]float64, 20)
	AxpyCols(acc, []float64{math.NaN(), 0}, 1, y, 0, 2)
	for i, v := range acc {
		if !math.IsNaN(v) {
			t.Fatalf("lane %d = %v after a NaN coefficient", i, v)
		}
	}
}

// TestPackedBShapePanics: mismatched shapes are bugs and must not compute.
func TestPackedBShapePanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	pa := packMat(NewMatrix(8, 4))
	pb := PackBInto(make([]float64, 15), make([]float64, 15), 5, 5, 3)
	mustPanic("depth mismatch", func() { GemmPackedAB(1, pa, pb, 0, NewMatrix(8, 5)) })
	mustPanic("unpack shape", func() { pb.UnpackInto(NewMatrix(3, 5)) })
	mustPanic("AxpyCols columns", func() { AxpyCols(make([]float64, 4), make([]float64, 3), 1, NewMatrix(4, 3), 1, 3) })
	mustPanic("AxpyCols lanes", func() { AxpyCols(make([]float64, 5), make([]float64, 1), 1, NewMatrix(4, 3), 0, 1) })
	mustPanic("AxpyCols coefficients", func() { AxpyCols(make([]float64, 4), make([]float64, 4), 2, NewMatrix(4, 3), 0, 3) })
}
