package regress

import (
	"errors"

	"vup/internal/linalg"
)

// Linear is ordinary least squares linear regression with an
// intercept. A full-rank design is solved by Householder QR. A design
// that QR cannot solve — fewer rows than columns, an exactly-zero
// column, or a rank deficiency QR detects — is solved instead from
// the ridge-regularized normal equations with a small penalty, so
// training never fails outright. A training window shorter than about
// six months has an all-zero season column, so sliding windows of the
// paper's and the server's length always take the ridge path.
type Linear struct {
	// RidgeFallback is the L2 penalty used only when QR cannot solve
	// the design. Zero selects a tiny default.
	RidgeFallback float64

	coef      []float64 // p weights
	intercept float64
	p         int
}

// NewLinear returns an OLS model.
func NewLinear() *Linear { return &Linear{} }

// Name implements Regressor.
func (m *Linear) Name() string { return "LR" }

// Fit implements Regressor.
func (m *Linear) Fit(x [][]float64, y []float64) error {
	n, p, err := checkXY(x, y)
	if err != nil {
		return err
	}
	var beta []float64
	// QR fails with ErrSingular on an exactly-zero column, so such a
	// design goes straight to the ridge solve.
	if n >= p+1 && !hasZeroColumn(x, p) {
		beta, err = linalg.LeastSquares(buildDesign(x, p), y)
		if err != nil && !errors.Is(err, linalg.ErrSingular) {
			return err
		}
	}
	if beta == nil {
		beta, err = ridgeSolve(x, y, m.ridge())
		if err != nil {
			return err
		}
	}
	m.intercept = beta[0]
	m.coef = beta[1:]
	m.p = p
	return nil
}

// hasZeroColumn reports whether some feature column of x is exactly
// zero in every row.
func hasZeroColumn(x [][]float64, p int) bool {
next:
	for j := 0; j < p; j++ {
		for _, row := range x {
			if row[j] != 0 {
				continue next
			}
		}
		return true
	}
	return false
}

// buildDesign assembles the design matrix with a leading intercept
// column.
func buildDesign(x [][]float64, p int) *linalg.Matrix {
	a := linalg.NewMatrix(len(x), p+1)
	for i, row := range x {
		ai := a.Row(i)
		ai[0] = 1
		copy(ai[1:], row)
	}
	return a
}

func (m *Linear) ridge() float64 {
	if m.RidgeFallback > 0 {
		return m.RidgeFallback
	}
	return 1e-8
}

// ridgeSolve solves (AᵀA + λI)β = Aᵀy for the design A = [1 x],
// leaving the intercept column unpenalized. AᵀA and Aᵀy are
// accumulated straight from the rows of x, each entry summed over the
// rows in order; only the lower triangle of AᵀA is formed, which is
// all the Cholesky factorization reads.
func ridgeSolve(x [][]float64, y []float64, lambda float64) ([]float64, error) {
	q := len(x[0]) + 1
	ata := linalg.NewMatrix(q, q)
	g := ata.Data
	aty := make([]float64, q)
	a := make([]float64, q) // the current design row
	a[0] = 1
	for r, row := range x {
		copy(a[1:], row)
		for i, ai := range a {
			aty[i] += ai * y[r]
			if ai == 0 {
				continue
			}
			gi := g[i*q : i*q+i+1]
			for j := range gi {
				gi[j] += ai * a[j]
			}
		}
	}
	for j := 1; j < q; j++ {
		g[j*q+j] += lambda
	}
	// A tiny jitter on the intercept keeps the factorization positive
	// definite even for pathological designs.
	g[0] += 1e-12
	chol, err := linalg.NewCholesky(ata)
	if err != nil {
		// Last resort: strengthen the penalty until it factorizes.
		for boost := lambda * 10; boost < 1e6; boost *= 10 {
			for j := 0; j < q; j++ {
				g[j*q+j] += boost
			}
			if chol, err = linalg.NewCholesky(ata); err == nil {
				break
			}
		}
		if err != nil {
			return nil, err
		}
	}
	return chol.Solve(aty)
}

// Predict implements Regressor.
func (m *Linear) Predict(x []float64) (float64, error) {
	if m.coef == nil {
		return 0, ErrNotTrained
	}
	if err := checkRow(x, m.p); err != nil {
		return 0, err
	}
	return m.intercept + linalg.Dot(m.coef, x), nil
}

// Coefficients returns the fitted weights (excluding the intercept).
func (m *Linear) Coefficients() []float64 { return append([]float64(nil), m.coef...) }

// Intercept returns the fitted intercept.
func (m *Linear) Intercept() float64 { return m.intercept }
