// Package linalg provides the small dense linear-algebra kernel behind
// the linear regression models: a row-major matrix, Householder QR
// least squares and Cholesky factorization. It is deliberately
// minimal — what the OLS and ridge solvers need and nothing more.
package linalg

import (
	"errors"
	"fmt"
)

// ErrSingular is returned when a factorization meets a (numerically)
// singular matrix.
var ErrSingular = errors.New("linalg: matrix is singular to working precision")

// ErrShape is returned when operand dimensions are incompatible.
var ErrShape = errors.New("linalg: incompatible shapes")

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMatrix allocates a zero matrix with the given shape. It panics on
// non-positive dimensions.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Dot returns the inner product of a and b; it panics on length
// mismatch because that is always a programming error.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: Dot length mismatch")
	}
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
