package linalg

import "math"

// QRFactor holds a Householder QR factorization A = Q·R computed by QR.
// The factors are stored compactly: reflectors in the strict lower part of
// QR plus Tau, and R in the upper triangle.
type QRFactor struct {
	QR  *Matrix   // m×n packed factorization
	Tau []float64 // n Householder scalars
}

// QR computes the Householder QR factorization of a (m×n, m ≥ n is typical
// but not required). The input is not modified.
func QR(a *Matrix) *QRFactor {
	f := QRInPlace(a.Clone(), make([]float64, min(a.Rows, a.Cols)))
	return &f
}

// QRInPlace factors a in place: the returned factor's QR field aliases a and
// Tau aliases tau (length min(m,n)). It is returned by value so the
// allocation-free recompression hot path keeps it on the stack.
func QRInPlace(a *Matrix, tau []float64) QRFactor {
	m, n := a.Rows, a.Cols
	qr := a
	k := min(m, n)
	if len(tau) != k {
		panic("linalg: QRInPlace tau length mismatch")
	}
	for j := 0; j < k; j++ {
		col := qr.Col(j)
		// Build the Householder reflector annihilating col[j+1:].
		alpha := col[j]
		norm := Nrm2(col[j+1 : m])
		if norm == 0 {
			tau[j] = 0
			continue
		}
		beta := -math.Copysign(math.Hypot(alpha, norm), alpha)
		tau[j] = (beta - alpha) / beta
		inv := 1 / (alpha - beta)
		for i := j + 1; i < m; i++ {
			col[i] *= inv
		}
		col[j] = beta
		// Apply H = I − tau·v·vᵀ to the trailing columns.
		v := col[j+1 : m]
		for c := j + 1; c < n; c++ {
			cc := qr.Col(c)
			s := (cc[j] + Dot(v, cc[j+1:m])) * tau[j]
			cc[j] -= s
			Axpy(-s, v, cc[j+1:m])
		}
	}
	return QRFactor{QR: qr, Tau: tau}
}

// R returns the k×n upper-triangular factor, k = min(m,n).
func (f *QRFactor) R() *Matrix {
	r := NewMatrix(min(f.QR.Rows, f.QR.Cols), f.QR.Cols)
	f.RInto(r)
	return r
}

// RInto writes the k×n upper-triangular factor into r (k×n, k = min(m,n)),
// zeroing its lower part.
func (f *QRFactor) RInto(r *Matrix) {
	m, n := f.QR.Rows, f.QR.Cols
	k := min(m, n)
	if r.Rows != k || r.Cols != n {
		panic("linalg: RInto shape mismatch")
	}
	for j := 0; j < n; j++ {
		src := f.QR.Col(j)
		dst := r.Col(j)
		top := min(j+1, k)
		copy(dst[:top], src[:top])
		for i := top; i < k; i++ {
			dst[i] = 0
		}
	}
}

// ApplyQ returns Q·[X; 0] for a k×c matrix X (k = min(m,n)): X is padded
// with zero rows to height m and the Householder reflectors are applied in
// reverse order. This is the cheap way to form Q·X without materializing
// the thin Q (cost 2·m·k·c instead of 2·m·k² + a GEMM), used by the TLR
// recompression kernel.
func (f *QRFactor) ApplyQ(x *Matrix) *Matrix {
	out := NewMatrix(f.QR.Rows, x.Cols)
	f.ApplyQInto(x, out)
	return out
}

// ApplyQInto writes Q·[X; 0] into out (m×cols), the allocation-free form of
// ApplyQ. out must not alias x.
func (f *QRFactor) ApplyQInto(x, out *Matrix) {
	m, n := f.QR.Rows, f.QR.Cols
	k := min(m, n)
	if x.Rows != k {
		panic("linalg: ApplyQ needs k rows")
	}
	if out.Rows != m || out.Cols != x.Cols {
		panic("linalg: ApplyQInto shape mismatch")
	}
	for j := 0; j < x.Cols; j++ {
		oc := out.Col(j)
		copy(oc[:k], x.Col(j))
		for i := k; i < m; i++ {
			oc[i] = 0
		}
	}
	for j := k - 1; j >= 0; j-- {
		tau := f.Tau[j]
		if tau == 0 {
			continue
		}
		v := f.QR.Col(j)[j+1 : m]
		for c := 0; c < x.Cols; c++ {
			cc := out.Col(c)
			s := (cc[j] + Dot(v, cc[j+1:m])) * tau
			cc[j] -= s
			Axpy(-s, v, cc[j+1:m])
		}
	}
}

// ThinQInto writes the m×k orthonormal factor, k = min(m,n), into q by
// accumulating the Householder reflectors against the identity.
func (f *QRFactor) ThinQInto(q *Matrix) {
	m, n := f.QR.Rows, f.QR.Cols
	k := min(m, n)
	if q.Rows != m || q.Cols != k {
		panic("linalg: ThinQInto shape mismatch")
	}
	q.Zero()
	for j := 0; j < k; j++ {
		q.Set(j, j, 1)
	}
	// Apply H_k-1 … H_0 to I (reverse order builds Q).
	for j := k - 1; j >= 0; j-- {
		if f.Tau[j] == 0 {
			continue
		}
		v := f.QR.Col(j)[j+1 : m]
		for c := 0; c < k; c++ {
			cc := q.Col(c)
			s := (cc[j] + Dot(v, cc[j+1:m])) * f.Tau[j]
			cc[j] -= s
			Axpy(-s, v, cc[j+1:m])
		}
	}
}
