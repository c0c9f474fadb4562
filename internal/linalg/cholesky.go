package linalg

import (
	"fmt"
	"math"
)

// Cholesky holds the lower-triangular factor L of a symmetric
// positive-definite matrix A = L·Lᵀ.
type Cholesky struct {
	n int
	l []float64 // row-major n×n; only the lower triangle is written
}

// NewCholesky factorizes the symmetric positive-definite matrix a.
// Only the lower triangle of a is read. It returns ErrShape for a
// non-square input and ErrSingular when a is not positive definite to
// working precision.
func NewCholesky(a *Matrix) (*Cholesky, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("%w: Cholesky of %dx%d", ErrShape, a.Rows, a.Cols)
	}
	n := a.Rows
	l := make([]float64, n*n)
	for j := 0; j < n; j++ {
		lj := l[j*n : j*n+j]
		d := a.Data[j*n+j]
		for _, v := range lj {
			d -= v * v
		}
		if d <= 0 {
			return nil, fmt.Errorf("%w: non-positive pivot %g at %d", ErrSingular, d, j)
		}
		ljj := math.Sqrt(d)
		l[j*n+j] = ljj
		for i := j + 1; i < n; i++ {
			li := l[i*n : i*n+j]
			s := a.Data[i*n+j]
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
