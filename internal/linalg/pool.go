package linalg

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

// The workspace pool recycles float64 scratch buffers across the hot kernel
// paths: GEMM packing panels, low-rank recompression intermediates, QR tau
// vectors, SVD work matrices. Buffers are segregated into power-of-two size
// classes — a single mixed pool thrashes under the factorization's blend of
// tile-sized, panel-sized and rank-sized requests (a small buffer popped for
// a large request is dropped and reallocated), and that churn is what drove
// the streamed factorization's peak heap. Within a class, sync.Pool's per-P
// caches make this an effectively per-worker workspace: a worker churning
// through factorization or recompression tasks reuses its own buffers
// instead of allocating on every task, which is what keeps the steady-state
// hot loops allocation-free.
var vecPools [vecClasses]sync.Pool // class c holds *[]float64 with cap ≥ 1<<c

// vecClasses bounds the size classes at 2^30 floats (8 GiB); larger requests
// are never sensible scratch.
const vecClasses = 31

// boxPool recycles the empty *[]float64 header boxes themselves, so the
// Get/Put cycle allocates nothing at steady state (a bare
// sync.Pool.Put(&v) would heap-allocate the box on every call).
var boxPool = sync.Pool{New: func() any { return new([]float64) }}

// outstandingVecs counts the buffers GetVec has handed out and PutVec has
// not yet taken back. A warm query returns every buffer it takes; a
// factorization keeps exactly one per dense float64 tile it stores.
var outstandingVecs atomic.Int64

// OutstandingVecs reports how many GetVec buffers are out of the pool.
func OutstandingVecs() int64 { return outstandingVecs.Load() }

// vecClass returns the smallest class whose buffers hold n floats.
func vecClass(n int) int { return bits.Len(uint(n - 1)) }

// GetVec returns a pooled float64 slice of length n with UNDEFINED contents;
// the caller's first operation must fully overwrite it. Return it with
// PutVec when no longer referenced.
func GetVec(n int) []float64 {
	if n <= 0 {
		return nil
	}
	outstandingVecs.Add(1)
	c := vecClass(n)
	if c < vecClasses {
		if p, _ := vecPools[c].Get().(*[]float64); p != nil {
			buf := *p
			*p = nil
			boxPool.Put(p)
			return buf[:n]
		}
	}
	return make([]float64, 1<<c)[:n]
}

// PutVec recycles the slice *v obtained from GetVec (or any slice whose
// backing array the caller owns outright — never a view into shared storage)
// and sets *v to nil, as PutMat clears its matrix: a later use of the
// variable reads an empty slice, not memory the pool may have handed to
// another owner. The buffer is filed under the largest class its capacity
// fully covers, so a later Get from that class always fits.
func PutVec(v *[]float64) {
	buf := *v
	*v = nil
	if cap(buf) == 0 {
		return
	}
	outstandingVecs.Add(-1)
	c := bits.Len(uint(cap(buf))) - 1 // floor log2
	if c >= vecClasses {
		c = vecClasses - 1
	}
	p := boxPool.Get().(*[]float64)
	*p = buf[:cap(buf)]
	vecPools[c].Put(p)
}

// GetVecZero returns a pooled zeroed slice of length n.
func GetVecZero(n int) []float64 {
	v := GetVec(n)
	for i := range v {
		v[i] = 0
	}
	return v
}

// matHeaderPool recycles the *Matrix headers themselves so a pooled
// Get/Put cycle is completely allocation-free.
var matHeaderPool = sync.Pool{New: func() any { return new(Matrix) }}

// GetMat returns a pooled r×c matrix whose contents are UNDEFINED: every
// caller's first operation must fully overwrite it (a beta=0 Gemm does —
// Gemm zeroes the destination first). Hand it back with PutMat once nothing
// references it.
func GetMat(r, c int) *Matrix {
	m := matHeaderPool.Get().(*Matrix)
	m.Rows, m.Cols, m.Stride, m.Data = r, c, max(r, 1), GetVec(r*c)
	return m
}

// GetMatZero returns a pooled zeroed r×c matrix.
func GetMatZero(r, c int) *Matrix {
	m := matHeaderPool.Get().(*Matrix)
	m.Rows, m.Cols, m.Stride, m.Data = r, c, max(r, 1), GetVecZero(r*c)
	return m
}

// PutMat recycles a matrix obtained from GetMat/GetMatZero, or any compact
// matrix (Stride == max(Rows,1)) whose backing slice the caller owns
// outright. It must NEVER be called on a view into a larger allocation —
// recycling a view's backing array while the parent is alive would hand the
// same memory to two owners — and the caller must drop its pointer: the
// header itself is recycled too. A nil matrix is ignored.
func PutMat(m *Matrix) {
	if m == nil {
		return
	}
	PutVec(&m.Data)
	matHeaderPool.Put(m)
}

// GetMatView returns a pooled Matrix header for the r×c submatrix of parent
// with upper-left corner (i,j), sharing parent's backing storage — View
// without the header allocation. Return it with PutMatView (never PutMat:
// the data belongs to the parent).
func GetMatView(parent *Matrix, i, j, r, c int) *Matrix {
	if i < 0 || j < 0 || r < 0 || c < 0 || i+r > parent.Rows || j+c > parent.Cols {
		panic(fmt.Sprintf("linalg: view (%d,%d,%d,%d) out of %dx%d", i, j, r, c, parent.Rows, parent.Cols))
	}
	outstandingViews.Add(1)
	m := matHeaderPool.Get().(*Matrix)
	m.Rows, m.Cols, m.Stride, m.Data = r, c, parent.Stride, parent.Data[i+j*parent.Stride:]
	return m
}

// PutMatView recycles a header obtained from GetMatView. The shared backing
// data is left with its owner; the caller must drop its pointer.
func PutMatView(m *Matrix) {
	if m == nil {
		return
	}
	outstandingViews.Add(-1)
	m.Data = nil
	matHeaderPool.Put(m)
}

// outstandingViews and outstandingInts count, as outstandingVecs does, the
// GetMatView headers and GetInts slices not yet handed back. No factor keeps
// either, so both return to their base after every call.
var outstandingViews, outstandingInts atomic.Int64

// OutstandingMatViews reports how many GetMatView headers are out of the pool.
func OutstandingMatViews() int64 { return outstandingViews.Load() }

// OutstandingInts reports how many GetInts slices are out of the pool.
func OutstandingInts() int64 { return outstandingInts.Load() }

// intPool recycles []int index scratch (sort permutations of the small-core
// SVDs), same box discipline as the float pool.
var intPool sync.Pool

var intBoxPool = sync.Pool{New: func() any { return new([]int) }}

// GetInts returns a pooled int slice of length n with UNDEFINED contents.
func GetInts(n int) []int {
	var buf []int
	if p, _ := intPool.Get().(*[]int); p != nil {
		buf = *p
		*p = nil
		intBoxPool.Put(p)
	}
	if cap(buf) < n {
		buf = make([]int, roundUpPow2(n))
	}
	if cap(buf) > 0 { // what PutInts takes back
		outstandingInts.Add(1)
	}
	return buf[:n]
}

// PutInts recycles a slice obtained from GetInts.
func PutInts(v []int) {
	if cap(v) == 0 {
		return
	}
	outstandingInts.Add(-1)
	p := intBoxPool.Get().(*[]int)
	*p = v[:cap(v)]
	intPool.Put(p)
}

func roundUpPow2(n int) int {
	if n <= 0 {
		return 0
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
