package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewMatrixPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMatrix(0, 3)
}

// fromRows builds a matrix from rectangular row slices.
func fromRows(rows [][]float64) *Matrix {
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(m.Row(i), r)
	}
	return m
}

// mulVec returns m·x.
func mulVec(m *Matrix, x []float64) []float64 {
	out := make([]float64, m.Rows)
	for i := range out {
		out[i] = Dot(m.Row(i), x)
	}
	return out
}

func TestMatrixRowView(t *testing.T) {
	m := NewMatrix(3, 2)
	if m.Rows != 3 || m.Cols != 2 || len(m.Data) != 6 {
		t.Fatalf("shape %dx%d, %d entries", m.Rows, m.Cols, len(m.Data))
	}
	r := m.Row(2)
	r[0] = 42
	if m.Data[4] != 42 {
		t.Errorf("Row should be a view")
	}
	if len(r) != 2 {
		t.Errorf("Row has %d entries, want 2", len(r))
	}
}

func TestDot(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Error("Dot wrong")
	}
	if Dot(nil, nil) != 0 {
		t.Error("Dot(nil, nil) should be 0")
	}
}

func TestLeastSquaresExact(t *testing.T) {
	// Square nonsingular system: solve exactly.
	a := fromRows([][]float64{{2, 1}, {1, 3}})
	x, err := LeastSquares(a, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(x[0], 1, 1e-10) || !almost(x[1], 3, 1e-10) {
		t.Errorf("x = %v, want [1 3]", x)
	}
}

func TestLeastSquaresOverdetermined(t *testing.T) {
	// Fit y = 2x + 1 exactly through noisy-free points.
	xs := []float64{0, 1, 2, 3, 4}
	rows := make([][]float64, len(xs))
	b := make([]float64, len(xs))
	for i, v := range xs {
		rows[i] = []float64{1, v}
		b[i] = 2*v + 1
	}
	x, err := LeastSquares(fromRows(rows), b)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(x[0], 1, 1e-10) || !almost(x[1], 2, 1e-10) {
		t.Errorf("coef = %v", x)
	}
}

func TestLeastSquaresResidualOrthogonality(t *testing.T) {
	// Property: at the LS optimum, Aᵀ(Ax - b) = 0.
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		m := 10 + rng.Intn(40)
		n := 2 + rng.Intn(6)
		a := NewMatrix(m, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		b := make([]float64, m)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := LeastSquares(a, b)
		if err != nil {
			t.Fatal(err)
		}
		ax := mulVec(a, x)
		for j := 0; j < n; j++ {
			var atr float64
			for i := 0; i < m; i++ {
				atr += a.Data[i*n+j] * (ax[i] - b[i])
			}
			if math.Abs(atr) > 1e-8 {
				t.Fatalf("normal equations violated at column %d: %v", j, atr)
			}
		}
	}
}

func TestLeastSquaresErrors(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {3, 4}})
	if _, err := LeastSquares(a, []float64{1}); !errors.Is(err, ErrShape) {
		t.Errorf("want ErrShape, got %v", err)
	}
	under := fromRows([][]float64{{1, 2, 3}})
	if _, err := LeastSquares(under, []float64{1}); !errors.Is(err, ErrShape) {
		t.Errorf("want ErrShape for underdetermined, got %v", err)
	}
	sing := fromRows([][]float64{{1, 1}, {2, 2}, {3, 3}})
	if _, err := LeastSquares(sing, []float64{1, 2, 3}); !errors.Is(err, ErrSingular) {
		t.Errorf("want ErrSingular, got %v", err)
	}
	zero := fromRows([][]float64{{0, 1}, {0, 2}})
	if _, err := LeastSquares(zero, []float64{1, 2}); !errors.Is(err, ErrSingular) {
		t.Errorf("want ErrSingular for zero column, got %v", err)
	}
}

func TestCholeskySolve(t *testing.T) {
	a := fromRows([][]float64{{4, 2}, {2, 3}})
	c, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	x, err := c.Solve([]float64{10, 9})
	if err != nil {
		t.Fatal(err)
	}
	// Verify A·x = b.
	ax := mulVec(a, x)
	if !almost(ax[0], 10, 1e-10) || !almost(ax[1], 9, 1e-10) {
		t.Errorf("A·x = %v", ax)
	}
}

func TestCholeskyFactorReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(8)
		// Build SPD matrix A = MᵀM + I.
		m := NewMatrix(n, n)
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
		a := gram(m)
		for i := 0; i < n; i++ {
			a.Data[i*n+i]++
		}
		c, err := NewCholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				var llt float64
				for k := 0; k < n; k++ {
					llt += c.l[i*n+k] * c.l[j*n+k]
				}
				if !almost(llt, a.Data[i*n+j], 1e-8) {
					t.Fatalf("L·Lᵀ != A at (%d,%d): %v vs %v", i, j, llt, a.Data[i*n+j])
				}
			}
		}
		// Random solve round-trip.
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := c.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		ax := mulVec(a, x)
		for i := range b {
			if !almost(ax[i], b[i], 1e-8) {
				t.Fatalf("solve wrong at %d", i)
			}
		}
	}
}

func TestCholeskyErrors(t *testing.T) {
	if _, err := NewCholesky(fromRows([][]float64{{1, 2, 3}, {4, 5, 6}})); !errors.Is(err, ErrShape) {
		t.Errorf("want ErrShape, got %v", err)
	}
	// Not positive definite.
	if _, err := NewCholesky(fromRows([][]float64{{1, 2}, {2, 1}})); !errors.Is(err, ErrSingular) {
		t.Errorf("want ErrSingular, got %v", err)
	}
	c, err := NewCholesky(fromRows([][]float64{{2, 0}, {0, 2}}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Solve([]float64{1}); !errors.Is(err, ErrShape) {
		t.Errorf("want ErrShape on solve, got %v", err)
	}
}

func TestLeastSquaresAgainstCholesky(t *testing.T) {
	// Property: QR least squares equals normal-equation solution for
	// well-conditioned problems.
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		m, n := 30, 4
		a := NewMatrix(m, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		b := make([]float64, m)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		xqr, err := LeastSquares(a, b)
		if err != nil {
			t.Fatal(err)
		}
		atb := make([]float64, n)
		for i := 0; i < m; i++ {
			for j := range atb {
				atb[j] += a.Data[i*n+j] * b[i]
			}
		}
		c, err := NewCholesky(gram(a))
		if err != nil {
			t.Fatal(err)
		}
		xch, err := c.Solve(atb)
		if err != nil {
			t.Fatal(err)
		}
		for i := range xqr {
			if !almost(xqr[i], xch[i], 1e-7) {
				t.Fatalf("QR vs Cholesky mismatch: %v vs %v", xqr, xch)
			}
		}
	}
}

// gram returns AᵀA.
func gram(a *Matrix) *Matrix {
	g := NewMatrix(a.Cols, a.Cols)
	for r := 0; r < a.Rows; r++ {
		row := a.Row(r)
		for i, ai := range row {
			for j, aj := range row {
				g.Data[i*a.Cols+j] += ai * aj
			}
		}
	}
	return g
}

func TestCholeskyHandFactored(t *testing.T) {
	// A = L·Lᵀ with L = [2 0 0; 1 3 0; −1 2 4]. Every intermediate of
	// the factorization and of the solve below is exact in float64, so
	// the comparisons are exact. The upper triangle holds garbage: only
	// the lower triangle may be read.
	a := fromRows([][]float64{
		{4, 99, 99},
		{2, 10, 99},
		{-2, 5, 21},
	})
	c, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{
		2, 0, 0,
		1, 3, 0,
		-1, 2, 4,
	}
	for i, w := range want {
		if c.l[i] != w {
			t.Fatalf("L = %v, want %v", c.l, want)
		}
	}
	// b = A·[1 2 3].
	x, err := c.Solve([]float64{2, 37, 71})
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 1 || x[1] != 2 || x[2] != 3 {
		t.Errorf("x = %v, want [1 2 3]", x)
	}
}
