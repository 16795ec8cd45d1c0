package tile

import (
	"sync"
	"sync/atomic"
)

// Pooled float32 scratch for the packed single-precision kernels, same box
// discipline as the linalg float64 pool (the boxes cycle through their own
// pool so steady state allocates nothing).
var (
	f32Pool    sync.Pool
	f32BoxPool = sync.Pool{New: func() any { return new([]float32) }}
)

// outstandingVec32 counts the buffers getVec32 has handed out and putVec32
// has not yet taken back; a factorization keeps one per dense float32 tile.
var outstandingVec32 atomic.Int64

// OutstandingVec32 reports how many float32 pool buffers are out of the pool.
func OutstandingVec32() int64 { return outstandingVec32.Load() }

// getVec32 returns a pooled float32 slice of length n, contents UNDEFINED.
func getVec32(n int) []float32 {
	if n <= 0 {
		return nil
	}
	outstandingVec32.Add(1)
	var buf []float32
	if p, _ := f32Pool.Get().(*[]float32); p != nil {
		buf = *p
		*p = nil
		f32BoxPool.Put(p)
	}
	if cap(buf) < n {
		c := 1
		for c < n {
			c <<= 1
		}
		buf = make([]float32, c)
	}
	return buf[:n]
}

// putVec32 recycles the slice *v obtained from getVec32 and sets *v to nil,
// as linalg.PutVec does.
func putVec32(v *[]float32) {
	buf := *v
	*v = nil
	if cap(buf) == 0 {
		return
	}
	outstandingVec32.Add(-1)
	p := f32BoxPool.Get().(*[]float32)
	*p = buf[:cap(buf)]
	f32Pool.Put(p)
}

// The exported pool mirrors linalg's float64 Get/Put API for the engine's
// float32 tile updates and the panel solve: pooled Matrix32s and full-height
// column views that share the parent's storage. Same ownership rules as the
// f64 pool: Put* only what the caller owns outright, never a view's data.

// mat32HeaderPool recycles Matrix32 headers so pooled Get/Put cycles are
// allocation-free on the warm path.
var mat32HeaderPool = sync.Pool{New: func() any { return new(Matrix32) }}

// GetMat32 returns a pooled r×c float32 matrix whose contents are UNDEFINED:
// the caller's first operation must fully overwrite it (note Gemm32 only
// accumulates — zero it first).
func GetMat32(r, c int) *Matrix32 {
	m := mat32HeaderPool.Get().(*Matrix32)
	m.Rows, m.Cols, m.Data = r, c, getVec32(r*c)
	return m
}

// PutMat32 recycles a matrix obtained from GetMat32 (never a
// view — see PutMat32View). The caller must drop its pointer.
func PutMat32(m *Matrix32) {
	if m == nil {
		return
	}
	putVec32(&m.Data)
	mat32HeaderPool.Put(m)
}

// GetMat32View returns a pooled header for the full-height c-column span of
// parent starting at column j, sharing parent's storage. Matrix32 carries no
// stride, so only full-height column views exist. Return with PutMat32View.
func GetMat32View(parent *Matrix32, j, c int) *Matrix32 {
	if j < 0 || c < 0 || j+c > parent.Cols {
		panic("tile: Matrix32 view out of range")
	}
	m := mat32HeaderPool.Get().(*Matrix32)
	m.Rows, m.Cols, m.Data = parent.Rows, c, parent.Data[j*parent.Rows:(j+c)*parent.Rows]
	return m
}

// PutMat32View recycles a header obtained from GetMat32View; the shared data
// stays with the parent.
func PutMat32View(m *Matrix32) {
	if m == nil {
		return
	}
	m.Data = nil
	mat32HeaderPool.Put(m)
}
