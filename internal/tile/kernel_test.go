package tile

import (
	"fmt"
	"math"
	"testing"
	_ "unsafe" // go:linkname

	"repro/internal/linalg"
)

// linalgKernelISA is linalg's micro-kernel selection (0 portable, 1 AVX2,
// 2 AVX-512; see linalg.KernelISA). The single-precision kernels live there
// and their driver here, so this test reaches across for the one variable
// that tests — and nothing else — may flip.
//
//go:linkname linalgKernelISA repro/internal/linalg.kernelISA
var linalgKernelISA int

// canary32 is a signaling NaN: an overwrite or an accumulate changes its bits.
const canary32Bits = 0x7F800001

// gemm32Case runs Gemm32 on generated operands of one shape, C a window
// between canaries, and returns C (valid until the next run), the unpacked
// reference and whether the canaries survived.
type gemm32Case struct {
	name string
	k    int
	run  func() (got, want *Matrix32, intact bool)
}

// gemm32Cases visits the shape classes of the packed f32 kernel: m around
// its 32-row micro-tile, n around 6, depth 1, sub-panel, exact and past the
// panel depth, alpha rotating through {1, -1, 0.37}.
func gemm32Cases(visit func(gemm32Case)) {
	canary := math.Float32frombits(canary32Bits)
	const pad = 40
	x := uint64(0)
	fill := func(m *Matrix32) {
		for i := range m.Data {
			x = x*6364136223846793005 + 1442695040888963407
			m.Data[i] = float32(int64(x)>>40) / (1 << 23)
		}
	}
	num := 0
	for _, k := range []int{1, 30, 256, 300} {
		for _, m := range []int{1, 16, 31, 32, 33, 48, 250, 256} {
			for _, n := range []int{1, 5, 6, 7, 17, 250, 256} {
				k, m, n := k, m, n
				num++
				seed, alpha := uint64(num), []float32{1, -1, 0.37}[num%3]
				a, b := NewMatrix32(m, k), NewMatrix32(n, k)
				buf := make([]float32, m*n+2*pad)
				c := &Matrix32{Rows: m, Cols: n, Data: buf[pad : pad+m*n]}
				want := NewMatrix32(m, n)
				visit(gemm32Case{
					name: fmt.Sprintf("m=%d/n=%d/k=%d/alpha=%g", m, n, k, alpha),
					k:    k,
					run: func() (*Matrix32, *Matrix32, bool) {
						x = seed
						fill(a)
						fill(b)
						for i := range buf {
							buf[i] = canary
						}
						fill(c)
						copy(want.Data, c.Data)
						Gemm32(alpha, a, b, c)
						gemm32Naive(alpha, a, b, want)
						intact := true
						for i := 0; i < pad; i++ {
							intact = intact && math.Float32bits(buf[i]) == canary32Bits &&
								math.Float32bits(buf[len(buf)-1-i]) == canary32Bits
						}
						return c, want, intact
					},
				})
			}
		}
	}
}

// TestGemmCanaries: the f32 micro-kernel stores a full 32×6 tile unmasked;
// on every shape class Gemm32 matches the unpacked loops to f32 roundoff and
// touches nothing around C.
func TestGemmCanaries(t *testing.T) {
	gemm32Cases(func(gc gemm32Case) {
		got, want, intact := gc.run()
		if !intact {
			t.Errorf("%s: an element outside C changed", gc.name)
		}
		for i, w := range want.Data {
			if d := math.Abs(float64(got.Data[i] - w)); !(d <= 2e-6*float64(gc.k+4)) {
				t.Fatalf("%s: element %d differs from the unpacked kernel by %g", gc.name, i, d)
			}
		}
	})
}

// TestKernelsBitIdentical: the AVX-512 and AVX2 f32 micro-kernels run the same
// FMA chain and the same multiply-then-add write-back, so Gemm32 must return
// the same bits on both; linalg's twin of this test covers float64 and the
// portable kernel.
func TestKernelsBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("single-goroutine arithmetic: CI runs it in its own step, not under -race -short")
	}
	best := linalgKernelISA
	if best < 2 {
		t.Skipf("micro-kernel is %q: no second vector ISA to compare against", linalg.KernelISA())
	}
	defer func() { linalgKernelISA = best }()
	gemm32Cases(func(gc gemm32Case) {
		linalgKernelISA = best
		ref, _, _ := gc.run()
		refBits := make([]uint32, len(ref.Data))
		for i, v := range ref.Data {
			refBits[i] = math.Float32bits(v)
		}
		linalgKernelISA = 1
		got, _, intact := gc.run()
		if !intact {
			t.Errorf("%s on avx2: an element outside C changed", gc.name)
		}
		for i, v := range got.Data {
			if math.Float32bits(v) != refBits[i] {
				t.Fatalf("%s: element %d = %x on avx2, %x on avx512", gc.name, i, math.Float32bits(v), refBits[i])
			}
		}
	})
}
