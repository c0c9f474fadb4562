package linalg

import (
	"fmt"
	"math"
)

// LeastSquares solves min ||A·x - b||₂ for a full-column-rank A with
// Rows >= Cols using Householder QR. It returns ErrShape on dimension
// mismatch or an underdetermined system, and ErrSingular when A is
// column-rank-deficient to working precision.
//
// The factorization runs on a column-major copy of A, so every
// reflector reads and updates contiguous memory.
func LeastSquares(a *Matrix, b []float64) ([]float64, error) {
	if a.Rows != len(b) {
		return nil, fmt.Errorf("%w: A is %dx%d, b has %d entries", ErrShape, a.Rows, a.Cols, len(b))
	}
	if a.Rows < a.Cols {
		return nil, fmt.Errorf("%w: underdetermined system %dx%d", ErrShape, a.Rows, a.Cols)
	}
	m, n := a.Rows, a.Cols
	// r holds column j of the working matrix at r[j*m : (j+1)*m].
	r := make([]float64, m*n)
	for i := 0; i < m; i++ {
		for j, v := range a.Data[i*n : (i+1)*n] {
			r[j*m+i] = v
		}
	}
	qtb := append([]float64(nil), b...)

	// Householder triangularization, applying each reflector to qtb.
	for k := 0; k < n; k++ {
		// Build the reflector for column k below the diagonal.
		vk := r[k*m+k : (k+1)*m]
		var norm float64
		for _, v := range vk {
			norm = math.Hypot(norm, v)
		}
		if norm == 0 {
			return nil, fmt.Errorf("%w: zero column %d", ErrSingular, k)
		}
		// LINPACK sign transfer: give norm the sign of the pivot so the
		// scaled pivot is positive and the reflector v_k = 1 + |x_k|/‖x‖
		// stays away from zero.
		if vk[0] < 0 {
			norm = -norm
		}
		for i := range vk {
			vk[i] /= norm
		}
		vk[0]++

		// Apply the reflector to the remaining columns and to qtb.
		for j := k + 1; j < n; j++ {
			applyReflector(vk, r[j*m+k:(j+1)*m])
		}
		applyReflector(vk, qtb[k:])
		// Store the diagonal of R (the reflector occupied it).
		vk[0] = norm
	}

	// Back substitution on the upper triangle. The stored diagonal
	// entries are -||column|| after reflection; reconstruct R(k,k).
	x := make([]float64, n)
	for k := n - 1; k >= 0; k-- {
		diag := r[k*m+k]
		// The diagonal stored above is `norm`, whose sign encodes the
		// reflector; R(k,k) is -norm in the standard formulation. The
		// sign cancels in the solve as long as we are consistent.
		if math.Abs(diag) < 1e-12 {
			return nil, fmt.Errorf("%w: tiny pivot at column %d", ErrSingular, k)
		}
		s := qtb[k]
		for j := k + 1; j < n; j++ {
			s -= r[j*m+k] * x[j]
		}
		x[k] = s / -diag
	}
	return x, nil
}

// applyReflector overwrites c with (I − v·vᵀ/v₀)·c, the Householder
// reflection whose vector v is stored with v₀ as its leading entry.
func applyReflector(v, c []float64) {
	var s float64
	for i, vi := range v {
		s += vi * c[i]
	}
	s = -s / v[0]
	for i, vi := range v {
		c[i] += s * vi
	}
}
