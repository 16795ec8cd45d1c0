package linalg

import "math"

// GolubReinschSVD computes the thin SVD A = U·diag(s)·Vᵀ of a (m×n, m ≥ n)
// by the classical Golub–Reinsch algorithm: Householder bidiagonalization
// followed by implicit-shift QR iteration on the bidiagonal form, the same
// scheme LAPACK's dbdsqr-based solvers use. On return a is overwritten with
// U (m×n, orthonormal columns), v (n×n, must be provided) holds V, and s
// (length n) the singular values — non-negative but UNSORTED. It reports
// false if the QR iteration failed to converge.
//
// Compared with Jacobi — O(sweeps·n²) length-m inner products that resist
// convergence acceleration — the shifted QR iteration deflates one singular
// value every couple of iterations, each costing O(n) plane rotations
// applied with the level-1 vector kernels. For the tile-core sizes the
// low-rank rounding path produces, it is several times faster at equal
// accuracy, which is what lets TLR recompression keep up with the packed
// dense kernels.
func GolubReinschSVD(a, v *Matrix, s []float64) bool {
	m, n := a.Rows, a.Cols
	if m < n || v.Rows != n || v.Cols != n || len(s) != n {
		panic("linalg: GolubReinschSVD shape mismatch")
	}
	if n == 0 {
		return true
	}
	rv1 := GetVec(n)
	defer PutVec(&rv1)
	// rbuf gathers one row of a at a time so the right-reflector passes run
	// stride-1; sums carries the per-row inner products so the trailing
	// update is column-oriented Axpys instead of stride-n row walks.
	rbuf := GetVec(n)
	defer PutVec(&rbuf)
	sums := GetVec(m)
	defer PutVec(&sums)
	var g, scale, anorm float64

	// Householder reduction to bidiagonal form.
	for i := 0; i < n; i++ {
		l := i + 1
		rv1[i] = scale * g
		g, scale = 0, 0
		if i < m {
			ci := a.Col(i)
			for k := i; k < m; k++ {
				scale += math.Abs(ci[k])
			}
			if scale != 0 {
				ssum := 0.0
				for k := i; k < m; k++ {
					ci[k] /= scale
					ssum += ci[k] * ci[k]
				}
				f := ci[i]
				g = -math.Copysign(math.Sqrt(ssum), f)
				h := f*g - ssum
				ci[i] = f - g
				for j := l; j < n; j++ {
					cj := a.Col(j)
					sum := Dot(ci[i:m], cj[i:m])
					Axpy(sum/h, ci[i:m], cj[i:m])
				}
				for k := i; k < m; k++ {
					ci[k] *= scale
				}
			}
		}
		s[i] = scale * g
		g, scale = 0, 0
		if i < m && i != n-1 {
			for k := l; k < n; k++ {
				rbuf[k] = a.At(i, k)
				scale += math.Abs(rbuf[k])
			}
			if scale != 0 {
				ssum := 0.0
				for k := l; k < n; k++ {
					rbuf[k] /= scale
					ssum += rbuf[k] * rbuf[k]
				}
				f := rbuf[l]
				g = -math.Copysign(math.Sqrt(ssum), f)
				h := f*g - ssum
				rbuf[l] = f - g
				for k := l; k < n; k++ {
					rv1[k] = rbuf[k] / h
				}
				// Trailing rows l..m: sums = A[l:m, l:n]·row, then
				// A[:, k] += rv1[k]·sums — all stride-1 on columns.
				for j := l; j < m; j++ {
					sums[j] = 0
				}
				for k := l; k < n; k++ {
					Axpy(rbuf[k], a.Col(k)[l:m], sums[l:m])
				}
				for k := l; k < n; k++ {
					Axpy(rv1[k], sums[l:m], a.Col(k)[l:m])
				}
				for k := l; k < n; k++ {
					a.Set(i, k, rbuf[k]*scale)
				}
			}
		}
		anorm = math.Max(anorm, math.Abs(s[i])+math.Abs(rv1[i]))
	}

	// Accumulate the right-hand transformations into v.
	for i := n - 1; i >= 0; i-- {
		l := i + 1
		if i < n-1 {
			if g != 0 {
				for k := l; k < n; k++ {
					rbuf[k] = a.At(i, k)
				}
				denom := rbuf[l] * g
				vi := v.Col(i)
				for j := l; j < n; j++ {
					vi[j] = rbuf[j] / denom
				}
				for j := l; j < n; j++ {
					vj := v.Col(j)
					sum := Dot(rbuf[l:n], vj[l:n])
					Axpy(sum, vi[l:n], vj[l:n])
				}
			}
			for j := l; j < n; j++ {
				v.Set(i, j, 0)
				v.Set(j, i, 0)
			}
		}
		v.Set(i, i, 1)
		g = rv1[i]
	}

	// Accumulate the left-hand transformations into a (becoming U).
	for i := n - 1; i >= 0; i-- {
		l := i + 1
		g = s[i]
		ci := a.Col(i)
		for j := l; j < n; j++ {
			a.Set(i, j, 0)
		}
		if g != 0 {
			g = 1 / g
			for j := l; j < n; j++ {
				cj := a.Col(j)
				sum := Dot(ci[l:m], cj[l:m])
				Axpy((sum/ci[i])*g, ci[i:m], cj[i:m])
			}
			for j := i; j < m; j++ {
				ci[j] *= g
			}
		} else {
			for j := i; j < m; j++ {
				ci[j] = 0
			}
		}
		ci[i]++
	}

	// Diagonalize the bidiagonal form: implicit-shift QR with deflation.
	for k := n - 1; k >= 0; k-- {
		for its := 0; ; its++ {
			flag := true
			l, nm := k, k-1
			for ; l >= 0; l-- {
				nm = l - 1
				if math.Abs(rv1[l])+anorm == anorm {
					flag = false
					break
				}
				if math.Abs(s[nm])+anorm == anorm {
					break
				}
			}
			if flag {
				// s[nm] is negligible: cancel rv1[l] by rotations from the
				// left, touching columns nm and l..k of U.
				c, sn := 0.0, 1.0
				for i := l; i <= k; i++ {
					f := sn * rv1[i]
					rv1[i] = c * rv1[i]
					if math.Abs(f)+anorm == anorm {
						break
					}
					g = s[i]
					h := math.Hypot(f, g)
					s[i] = h
					h = 1 / h
					c = g * h
					sn = -f * h
					rotate(a.Col(nm), a.Col(i), c, -sn)
				}
			}
			z := s[k]
			if l == k {
				// Converged: enforce non-negative singular value.
				if z < 0 {
					s[k] = -z
					vk := v.Col(k)
					for j := range vk {
						vk[j] = -vk[j]
					}
				}
				break
			}
			if its >= 30*n {
				return false
			}
			// Shift from the bottom 2×2 minor (Wilkinson-style).
			x := s[l]
			nm = k - 1
			y := s[nm]
			g = rv1[nm]
			h := rv1[k]
			f := ((y-z)*(y+z) + (g-h)*(g+h)) / (2 * h * y)
			g = math.Hypot(f, 1)
			f = ((x-z)*(x+z) + h*(y/(f+math.Copysign(g, f))-h)) / x
			// QR sweep: chase the bulge down the bidiagonal.
			c, sn := 1.0, 1.0
			for j := l; j <= nm; j++ {
				i := j + 1
				g = rv1[i]
				y = s[i]
				h = sn * g
				g = c * g
				z = math.Hypot(f, h)
				rv1[j] = z
				c = f / z
				sn = h / z
				f = x*c + g*sn
				g = g*c - x*sn
				h = y * sn
				y *= c
				rotate(v.Col(j), v.Col(i), c, -sn)
				z = math.Hypot(f, h)
				s[j] = z
				if z != 0 {
					z = 1 / z
					c = f * z
					sn = h * z
				}
				f = c*g + sn*y
				x = c*y - sn*g
				rotate(a.Col(j), a.Col(i), c, -sn)
			}
			rv1[l] = 0
			rv1[k] = f
			s[k] = x
		}
	}
	return true
}

// rotate applies the plane rotation (c, s) to the column pair (x, y).
func rotate(x, y []float64, c, s float64) {
	if hasVectorKernels && len(x) >= vecMinLen {
		rotVec(x, y, c, s)
		return
	}
	for i := range x {
		xi, yi := x[i], y[i]
		x[i] = c*xi - s*yi
		y[i] = s*xi + c*yi
	}
}
