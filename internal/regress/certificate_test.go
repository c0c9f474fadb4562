package regress

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// lassoStandardized maps a fitted Lasso's original-space coefficients
// back into the standardized problem it solved: the columns C, the
// coefficients β and the residual y − ȳ − Cβ.
func lassoStandardized(x [][]float64, y, coef []float64) (cols [][]float64, stds, beta, resid []float64) {
	cols, _, stds, _, resid = refStandardize(x, y)
	beta = make([]float64, len(coef))
	for j, c := range coef {
		beta[j] = c * stds[j]
		if beta[j] == 0 {
			continue
		}
		for i, v := range cols[j] {
			resid[i] -= beta[j] * v
		}
	}
	return cols, stds, beta, resid
}

// lassoObjective returns ½‖y − ȳ − Cβ‖² + λ‖β‖₁, λ = n·α, at the fitted
// coefficients: the objective Lasso minimizes, scaled by n.
func lassoObjective(x [][]float64, y, coef []float64, alpha float64) float64 {
	_, _, beta, resid := lassoStandardized(x, y, coef)
	var f float64
	for _, r := range resid {
		f += r * r
	}
	f /= 2
	for _, b := range beta {
		f += alpha * float64(len(x)) * math.Abs(b)
	}
	return f
}

// kktCertificate checks the fitted coefficients against the KKT
// conditions of that objective, with the gradient ∇ = −Cᵀ(y − ȳ − Cβ)
// recomputed from the residual: |∇ⱼ + λ·sign βⱼ| ≤ tol·λ for a non-zero
// βⱼ and |∇ⱼ| ≤ (1 + tol)·λ for a zero one, over the non-constant
// columns; a constant column's coefficient must be zero.
func kktCertificate(x [][]float64, y, coef []float64, alpha, tol float64) error {
	lam := alpha * float64(len(x))
	cols, stds, beta, resid := lassoStandardized(x, y, coef)
	for j, col := range cols {
		if stds[j] == 0 {
			if coef[j] != 0 {
				return fmt.Errorf("constant column %d has β = %v", j, coef[j])
			}
			continue
		}
		var g float64
		for i, v := range col {
			g -= v * resid[i]
		}
		if b := beta[j]; b != 0 {
			if v := math.Abs(g + math.Copysign(lam, b)); !(v <= tol*lam) {
				return fmt.Errorf("β[%d] = %v is not stationary: |∇+λ·sign β| = %.3g, λ = %g", j, b, v, lam)
			}
		} else if v := math.Abs(g); !(v <= (1+tol)*lam) {
			return fmt.Errorf("β[%d] = 0 violates optimality: |∇| = %.6g > λ = %g", j, v, lam)
		}
	}
	return nil
}

// checkLassoFit fits Lasso(α) on x, y and holds the result to its
// contract. A fit the feature-sign solver certified passes the KKT
// certificate recomputed from the residual, at the solver's own slack:
// the residual form rounds differently from the covariance form the
// solver certified on, by far less than that slack. A fit that fell
// back is bit-identical to coordinate descent alone. Either way its
// objective is no worse than the reference coordinate descent's by
// more than a relative 1e-12. That slack is floored at 1e-12 of the
// objective at β = 0: an interpolating fit (α = 0, n ≤ p) has an
// objective at the rounding level, where both descents land on
// different ulps. It reports whether the fit fell back.
func checkLassoFit(tb testing.TB, x [][]float64, y []float64, alpha float64) (fellBack bool) {
	tb.Helper()
	m := &Lasso{Alpha: alpha}
	fellBack, err := m.fit(x, y, true)
	if err != nil {
		tb.Fatalf("α=%g: %v", alpha, err)
	}
	if fellBack {
		cd := &Lasso{Alpha: alpha}
		if _, err := cd.fit(x, y, false); err != nil {
			tb.Fatalf("α=%g: %v", alpha, err)
		}
		if !sameBits(append(m.Coefficients(), m.Intercept()), append(cd.Coefficients(), cd.Intercept())) {
			tb.Errorf("α=%g: the fallback differs from coordinate descent alone", alpha)
		}
	} else if err := kktCertificate(x, y, m.coef, alpha, kktTol); err != nil {
		tb.Errorf("α=%g: certified fit fails the recomputed certificate: %v", alpha, err)
	}
	refCoef, _ := refLassoFit(x, y, alpha, 1000, 1e-6)
	got, ref := lassoObjective(x, y, m.coef, alpha), lassoObjective(x, y, refCoef, alpha)
	floor := lassoObjective(x, y, make([]float64, len(refCoef)), alpha)
	if !(got <= ref+1e-12*max(ref, floor)) {
		tb.Errorf("α=%g: objective %.17g exceeds the reference's %.17g", alpha, got, ref)
	}
	return fellBack
}

// lassoDesigns are the seeded designs of the Lasso certificate: n > p,
// n < p, constant columns, duplicate columns, and every design of the
// linear reference suite.
func lassoDesigns() []refDesignCase {
	var cases []refDesignCase
	x, y := seededDesign(11, 60, 8)
	cases = append(cases, refDesignCase{name: "n>p", x: x, y: y})
	x, y = seededDesign(12, 10, 25)
	cases = append(cases, refDesignCase{name: "n<p", x: x, y: y})
	x, y = seededDesign(13, 40, 6)
	for _, row := range x {
		row[1], row[4] = 0, 5
	}
	cases = append(cases, refDesignCase{name: "constant-columns", x: x, y: y})
	x, y = seededDesign(14, 50, 6)
	for _, row := range x {
		row[3], row[5] = row[0], row[0]
	}
	cases = append(cases, refDesignCase{name: "duplicate-columns", x: x, y: y})
	return append(cases, referenceDesigns()...)
}

// TestLassoCertificate holds Lasso to its certificate on the seeded
// designs at α ∈ {0, 0.1, 10}. α = 0 always takes coordinate descent.
func TestLassoCertificate(t *testing.T) {
	for _, tc := range lassoDesigns() {
		t.Run(tc.name, func(t *testing.T) {
			for _, alpha := range []float64{0, 0.1, 10} {
				if fellBack := checkLassoFit(t, tc.x, tc.y, alpha); alpha == 0 && !fellBack {
					t.Errorf("α=0 was not fitted by coordinate descent")
				}
			}
		})
	}
}

// TestLassoFallbackMatchesDescent forces the fallback: with 8 rows the
// centered columns span 7 dimensions, and at α = 0.01 the optimum
// wants more columns than fit in a positive-definite support, so a
// column the search must pass over as collinear still violates
// optimality at the end. The fit must then be coordinate descent's,
// bit for bit — the Gram columns the search already formed are the
// ones coordinate descent would form.
func TestLassoFallbackMatchesDescent(t *testing.T) {
	x, y := seededDesign(1, 8, 12)
	if !checkLassoFit(t, x, y, 0.01) {
		t.Fatal("the saturated support did not force the fallback")
	}
}

// TestRidgeCertificate checks the ridge solve against its normal
// equations: the residual ‖(AᵀA + Λ)β − Aᵀy‖ of the design A = [1 x],
// with Λ the penalty on every coefficient but the intercept, is small
// relative to ‖Aᵀy‖.
func TestRidgeCertificate(t *testing.T) {
	for _, tc := range referenceDesigns() {
		if tc.path == refPathBoost {
			continue // the retry solves with a larger penalty
		}
		for _, alpha := range []float64{1e-3, 1} {
			r := &Ridge{Alpha: alpha}
			if err := r.Fit(tc.x, tc.y); err != nil {
				t.Fatal(err)
			}
			beta := append([]float64{r.linear.Intercept()}, r.Coefficients()...)
			if res := ridgeResidual(tc.x, tc.y, beta, alpha); res > 1e-10 {
				t.Errorf("%s α=%g: relative normal-equation residual %.3g", tc.name, alpha, res)
			}
		}
	}
}

// ridgeResidual returns ‖(AᵀA + Λ)β − Aᵀy‖/‖Aᵀy‖ for the design
// A = [1 x], β = (intercept, coefficients) and Λ = λ on every
// coefficient but the intercept.
func ridgeResidual(x [][]float64, y, beta []float64, lambda float64) float64 {
	q := len(beta)
	a := make([]float64, q)
	a[0] = 1
	res := make([]float64, q)
	aty := make([]float64, q)
	for r, row := range x {
		copy(a[1:], row)
		var fit float64
		for j, v := range a {
			fit += v * beta[j]
		}
		for j, v := range a {
			res[j] += v * (fit - y[r])
			aty[j] += v * y[r]
		}
	}
	var num, den float64
	for j := range res {
		if j > 0 {
			res[j] += lambda * beta[j]
		}
		num += res[j] * res[j]
		den += aty[j] * aty[j]
	}
	return math.Sqrt(num / den)
}

// FuzzLassoCertificate fits Lasso on small seeded designs, n, p ≤ 12,
// with optional constant and duplicate columns, and asserts either the
// certificate or the fallback's bit-identity with coordinate descent.
func FuzzLassoCertificate(f *testing.F) {
	f.Add(int64(1), uint8(30), uint8(6), uint8(0), 0.1)
	f.Add(int64(2), uint8(5), uint8(12), uint8(1), 0.1)
	f.Add(int64(3), uint8(12), uint8(4), uint8(2), 0.01)
	f.Add(int64(4), uint8(12), uint8(12), uint8(3), 1.0)
	f.Fuzz(func(t *testing.T, seed int64, n, p, shape uint8, alpha float64) {
		rows, width := 2+int(n)%11, 1+int(p)%12
		if !(alpha >= 0 && alpha <= 100) {
			t.Skip()
		}
		x, y, _ := randomProblem(rand.New(rand.NewSource(seed)), rows, width, 0.5)
		for _, row := range x {
			if shape&1 != 0 {
				row[0] = 3 // a constant column
			}
			if shape&2 != 0 && width > 2 {
				row[width-1] = row[1] // a duplicate column
			}
		}
		checkLassoFit(t, x, y, alpha)
	})
}
