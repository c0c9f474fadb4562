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
// leaving the intercept column unpenalized. The normal equations are
// factored in place, so the fit holds one q×q matrix. When they do not
// factorize, the penalty is strengthened tenfold at a time; since the
// failed attempt overwrote the Gram, each retry rebuilds it, bit for
// bit, and adds every boost so far in order. The q×q array comes from
// a pool and goes back once the solve has read the factor.
func ridgeSolve(x [][]float64, y []float64, lambda float64) ([]float64, error) {
	q := len(x[0]) + 1
	gram := ridgeGram.get(q * q)
	defer ridgeGram.put(gram)
	clear(*gram) // normalEquations adds into it
	ata := &linalg.Matrix{Rows: q, Cols: q, Data: *gram}
	aty := make([]float64, q)
	ab := make([]float64, 2*q)
	normalEquations(ata.Data, aty, ab, x, y, lambda)
	chol, err := linalg.NewCholesky(ata)
	// Last resort: strengthen the penalty until it factorizes.
	for boost := lambda * 10; err != nil && boost < 1e6; boost *= 10 {
		clear(ata.Data)
		clear(aty)
		normalEquations(ata.Data, aty, ab, x, y, lambda)
		for b := lambda * 10; b <= boost; b *= 10 {
			for j := 0; j < q; j++ {
				ata.Data[j*q+j] += b
			}
		}
		chol, err = linalg.NewCholesky(ata)
	}
	if err != nil {
		return nil, err
	}
	return chol.Solve(aty)
}

// normalEquations adds AᵀA + λI (intercept unpenalized, with a 1e-12
// jitter instead) into the row-major q×q g and Aᵀy into aty, using ab
// (2q long) as row scratch. AᵀA and Aᵀy are accumulated straight from
// the rows of x, each entry summed over the rows in order; only the
// lower triangle of AᵀA is formed, which is all the Cholesky
// factorization reads. Rows are taken two at a time, so each Gram
// entry is loaded and stored once per pair, still adding the first
// row's product before the second's. A zero design entry skips its
// Gram row, as it would alone, so an infinite entry elsewhere in the
// row never meets it.
func normalEquations(g, aty, ab []float64, x [][]float64, y []float64, lambda float64) {
	q := len(aty)
	a, b := ab[:q:q], ab[q:]
	a[0], b[0] = 1, 1
	r := 0
	for ; r+1 < len(x); r += 2 {
		copy(a[1:], x[r])
		copy(b[1:], x[r+1])
		ya, yb := y[r], y[r+1]
		for i, ai := range a {
			bi := b[i]
			aty[i] += ai * ya
			aty[i] += bi * yb
			gi := g[i*q : i*q+i+1]
			switch {
			case ai != 0 && bi != 0:
				aj, bj := a[:len(gi)], b[:len(gi)]
				for j := range gi {
					gi[j] = gi[j] + ai*aj[j] + bi*bj[j]
				}
			case ai != 0:
				for j := range gi {
					gi[j] += ai * a[j]
				}
			case bi != 0:
				for j := range gi {
					gi[j] += bi * b[j]
				}
			}
		}
	}
	if r < len(x) {
		copy(a[1:], x[r])
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
