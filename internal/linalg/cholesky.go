package linalg

import (
	"fmt"
	"math"
)

// Cholesky holds the lower-triangular factor L of a symmetric
// positive-definite matrix A = L·Lᵀ.
type Cholesky struct {
	n int
	l []float64 // row-major n×n; L is the lower triangle, the rest is never read
}

// NewCholesky factorizes the symmetric positive-definite matrix a in
// place: it overwrites the lower triangle of a with the factor L, which
// the returned Cholesky shares, and neither reads nor writes the strict
// upper triangle. Each entry of the lower triangle is read once, just
// before L's entry at the same index is written. It returns ErrShape
// for a non-square input and ErrSingular, with the lower triangle
// partly overwritten, when a is not positive definite to working
// precision.
func NewCholesky(a *Matrix) (*Cholesky, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("%w: Cholesky of %dx%d", ErrShape, a.Rows, a.Cols)
	}
	n, l := a.Rows, a.Data
	for j := 0; j < n; j++ {
		lj := l[j*n : j*n+j]
		d := l[j*n+j]
		for _, v := range lj {
			d -= v * v
		}
		if d <= 0 {
			return nil, fmt.Errorf("%w: non-positive pivot %g at %d", ErrSingular, d, j)
		}
		ljj := math.Sqrt(d)
		l[j*n+j] = ljj
		// Rows below the pivot, four side by side so they share the
		// loads of row j; each sum still runs over k in order.
		i := j + 1
		for ; i+3 < n; i += 4 {
			l0, l1 := l[i*n:i*n+j], l[(i+1)*n:(i+1)*n+j]
			l2, l3 := l[(i+2)*n:(i+2)*n+j], l[(i+3)*n:(i+3)*n+j]
			s0, s1 := l[i*n+j], l[(i+1)*n+j]
			s2, s3 := l[(i+2)*n+j], l[(i+3)*n+j]
			for k, v := range lj {
				s0 -= l0[k] * v
				s1 -= l1[k] * v
				s2 -= l2[k] * v
				s3 -= l3[k] * v
			}
			l[i*n+j], l[(i+1)*n+j] = s0/ljj, s1/ljj
			l[(i+2)*n+j], l[(i+3)*n+j] = s2/ljj, s3/ljj
		}
		for ; i < n; i++ {
			li := l[i*n : i*n+j]
			s := l[i*n+j]
			for k, v := range li {
				s -= v * lj[k]
			}
			l[i*n+j] = s / ljj
		}
	}
	return &Cholesky{n: n, l: l}, nil
}

// Solve returns x with A·x = b. It returns ErrShape when len(b) != n.
func (c *Cholesky) Solve(b []float64) ([]float64, error) {
	n, l := c.n, c.l
	if len(b) != n {
		return nil, fmt.Errorf("%w: solve with %d-vector against %dx%d", ErrShape, len(b), n, n)
	}
	// Forward substitution L·y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for k, v := range l[i*n : i*n+i] {
			s -= v * y[k]
		}
		y[i] = s / l[i*n+i]
	}
	// Back substitution Lᵀ·x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l[k*n+i] * x[k]
		}
		x[i] = s / l[i*n+i]
	}
	return x, nil
}
