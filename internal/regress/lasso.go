package regress

import (
	"fmt"
	"math"
)

// Lasso is L1-regularized linear regression on standardized features,
// with scikit-learn's objective
//
//	(1/(2n))·||y − Xβ||² + α·||β||₁
//
// Fit solves it exactly by feature-sign search (Lee, Battle, Raina &
// Ng, NIPS 2006) on the covariance form of the standardized problem,
// and accepts the result only behind a KKT certificate of that
// objective. A window the search cannot certify — one whose optimum
// needs a column collinear with the rest of its support, a search
// that runs too long, or a failed certificate — and α = 0 are fitted
// instead by covariance-update cyclic coordinate descent from zero;
// MaxIter and Tol bound only that fallback.
//
// The paper's grid search selected α = 0.1 (Section 4.2).
type Lasso struct {
	// Alpha is the L1 penalty. Must be >= 0 and not NaN.
	Alpha float64
	// MaxIter bounds the coordinate-descent sweeps of the fallback
	// solver (default 1000).
	MaxIter int
	// Tol is the fallback solver's convergence threshold on the max
	// coefficient change (default 1e-6). Must not be NaN.
	Tol float64

	coef      []float64
	intercept float64
	means     []float64
	stds      []float64
	p         int
}

// NewLasso returns a Lasso model with the paper's α = 0.1.
func NewLasso() *Lasso { return &Lasso{Alpha: 0.1} }

// Name implements Regressor.
func (m *Lasso) Name() string { return "Lasso" }

// Fit implements Regressor.
func (m *Lasso) Fit(x [][]float64, y []float64) error {
	_, err := m.fit(x, y, true)
	return err
}

// fit is Fit. exact selects the feature-sign solver; fellBack reports
// that coordinate descent produced the coefficients.
func (m *Lasso) fit(x [][]float64, y []float64, exact bool) (fellBack bool, err error) {
	n, p, err := checkXY(x, y)
	if err != nil {
		return false, err
	}
	if m.Alpha < 0 || math.IsNaN(m.Alpha) {
		return false, fmt.Errorf("%w: lasso alpha %v", ErrBadParam, m.Alpha)
	}
	if math.IsNaN(m.Tol) {
		return false, fmt.Errorf("%w: lasso tol %v", ErrBadParam, m.Tol)
	}
	maxIter := m.MaxIter
	if maxIter <= 0 {
		maxIter = 1000
	}
	tol := m.Tol
	if tol <= 0 {
		tol = 1e-6
	}

	// Standardize features and center the target: both solvers work on
	// comparable scales.
	m.means = make([]float64, p)
	m.stds = make([]float64, p)
	cols := make([][]float64, p)
	// Every entry is written below, and both solvers (the certificate
	// included) are done with the columns when fit returns.
	colPtr := lassoCols.get(n * p)
	defer lassoCols.put(colPtr)
	colBuf := *colPtr
	for j := 0; j < p; j++ {
		col := colBuf[j*n : (j+1)*n : (j+1)*n]
		var sum float64
		for i := 0; i < n; i++ {
			col[i] = x[i][j]
			sum += col[i]
		}
		mean := sum / float64(n)
		var ss float64
		for i := range col {
			col[i] -= mean
			ss += col[i] * col[i]
		}
		std := math.Sqrt(ss / float64(n))
		if std > 0 {
			for i := range col {
				col[i] /= std
			}
		}
		m.means[j], m.stds[j] = mean, std
		cols[j] = col
	}
	var ySum float64
	for _, v := range y {
		ySum += v
	}
	yMean := ySum / float64(n)
	resid := make([]float64, n)
	for i := range resid {
		resid[i] = y[i] - yMean
	}

	lp := lassoProblem{
		n:      n,
		cols:   cols,
		active: make([]int, 0, p),
		c:      make([]float64, p),
		gram:   make([][]float64, p),
		todo:   make([]int, 0, p),
		lambda: m.Alpha * float64(n),
	}
	for j, std := range m.stds {
		if std != 0 {
			lp.active = append(lp.active, j)
		}
	}
	dotsInto(lp.c, cols, lp.active, resid)
	var beta []float64
	if exact && lp.lambda > 0 {
		beta = lp.featureSign()
	}
	if beta == nil {
		fellBack = true
		beta = lp.descend(maxIter, tol)
	}

	// Fold the standardization back into original-space coefficients.
	m.coef = make([]float64, p)
	m.intercept = yMean
	for j := 0; j < p; j++ {
		if m.stds[j] == 0 {
			continue
		}
		m.coef[j] = beta[j] / m.stds[j]
		m.intercept -= m.coef[j] * m.means[j]
	}
	m.p = p
	return fellBack, nil
}

// lassoProblem is the covariance form of the standardized Lasso:
//
//	minimize ½βᵀGβ − cᵀβ + λ‖β‖₁
//
// over the standardized columns C, with G = CᵀC, c = Cᵀ(y − ȳ) and
// λ = n·α. Its gradient ∇ = Gβ − c needs only the Gram columns of
// non-zero coefficients, so those are formed on first use and shared
// by both solvers. Constant columns (active lists the others) stay at
// zero.
type lassoProblem struct {
	n      int
	cols   [][]float64
	active []int
	c      []float64
	gram   [][]float64
	todo   []int
	lambda float64
}

// column returns the Gram column CᵀC[:,j], forming it on first use.
// Its entries do not depend on the order columns are formed in, so
// either solver sees the same bits.
func (lp *lassoProblem) column(j int) []float64 {
	if lp.gram[j] == nil {
		lp.gram[j] = gramColumn(lp.gram, lp.cols, j, lp.todo)
	}
	return lp.gram[j]
}

// descend is cyclic coordinate descent with soft thresholding from
// β = 0. It keeps g = c − Gβ current instead of the n-vector residual:
// a move of βⱼ by δ changes g by −δ·G[:,j], so a sweep costs O(p) per
// moving coordinate rather than O(n). With unit-variance columns,
// each diagonal entry of G is n.
func (lp *lassoProblem) descend(maxIter int, tol float64) []float64 {
	n := float64(lp.n)
	g := append([]float64(nil), lp.c...)
	beta := make([]float64, len(lp.c))
	for iter := 0; iter < maxIter; iter++ {
		maxDelta := 0.0
		for _, j := range lp.active {
			// rho = Cⱼᵀ(resid + Cⱼβⱼ)
			rho := g[j] + n*beta[j]
			newBeta := softThreshold(rho, lp.lambda) / n
			if delta := newBeta - beta[j]; delta != 0 {
				for k, v := range lp.column(j) {
					g[k] -= delta * v
				}
				if ad := math.Abs(delta); ad > maxDelta {
					maxDelta = ad
				}
				beta[j] = newBeta
			}
		}
		if maxDelta < tol {
			break
		}
	}
	return beta
}

// Limits of the feature-sign search. A column whose Cholesky pivot
// keeps less than pivotFloor of its squared norm is collinear with the
// support to working precision. kktTol is the certificate's slack,
// relative to λ, on each KKT condition. A search of more than
// stepsPerColumn·p steps is cycling on rounding.
const (
	pivotFloor     = 1e-10
	kktTol         = 1e-9
	stepsPerColumn = 4
)

// featureSign minimizes the problem by feature-sign search and returns
// β, or nil when the result cannot be certified. Each step either adds
// the zero coefficient that most violates optimality, with the sign
// that descends, or moves the support to the minimizer of the
// objective under the current signs — the point of G_AA·β_A =
// c_A − λ·θ_A — stopping at the best sign crossing on the way.
// Coefficients that reach zero leave the support. The support's
// Cholesky factor is extended one row per entering column and
// refactored from the first leaving one. A column collinear with the
// support cannot enter; it is passed over until a coefficient leaves.
// The search ends when no other zero coefficient violates optimality;
// the result is then checked against the KKT conditions with the
// gradient recomputed from scratch, which also decides whether the
// columns passed over may stay at zero.
func (lp *lassoProblem) featureSign() []float64 {
	p, lam := len(lp.c), lp.lambda
	kmax := min(len(lp.active), lp.n)
	beta := make([]float64, p)
	grad := make([]float64, p) // ∇ = Gβ − c, kept current incrementally
	for j, v := range lp.c {
		grad[j] = -v
	}
	w := make([]float64, p) // G·d for the step direction d
	supp := make([]int, 0, kmax)
	sgn := make([]float64, 0, kmax) // θ, by support position
	sol := make([]float64, len(lp.active))
	dir := make([]float64, len(lp.active))
	l := make([]float64, 0, kmax*(kmax+1)/2) // packed rows of L, L·Lᵀ = G_AA
	collinear := make([]bool, p)             // columns in the span of the support
	var ok bool

	settled := true // β is the minimizer under the support's signs
	for steps := 0; ; steps++ {
		if steps > stepsPerColumn*p {
			return nil
		}
		if settled {
			j, best := -1, lam
			for _, k := range lp.active {
				if beta[k] == 0 && !collinear[k] && math.Abs(grad[k]) > best {
					j, best = k, math.Abs(grad[k])
				}
			}
			if j < 0 {
				break
			}
			if l, ok = lp.cholAppend(l, supp, j); !ok {
				collinear[j] = true
				continue
			}
			supp = append(supp, j)
			sgn = append(sgn, -math.Copysign(1, grad[j]))
		}

		// The minimizer under the current signs, the direction to it,
		// and G·d over every column.
		s := len(supp)
		sol, dir = sol[:s], dir[:s]
		for i, k := range supp {
			sol[i] = lp.c[k] - lam*sgn[i]
		}
		cholSolve(l, sol)
		clear(w)
		var slope, curv float64 // ∂/∂t and ∂²/∂t² of the smooth part
		for i, k := range supp {
			d := sol[i] - beta[k]
			dir[i] = d
			for r, v := range lp.gram[k] {
				w[r] += d * v
			}
			slope += d * grad[k]
		}
		for i, k := range supp {
			curv += dir[i] * w[k]
		}
		// Objective change at β + t·d, relative to t = 0.
		objective := func(t float64) float64 {
			f := t*slope + 0.5*t*t*curv
			for i, k := range supp {
				f += lam * (math.Abs(beta[k]+t*dir[i]) - math.Abs(beta[k]))
			}
			return f
		}
		// The full step or the best crossing, whose coefficient stops
		// at zero.
		bestT, bestF, stop := 1.0, objective(1), -1
		for i, k := range supp {
			if t, ok := crossing(beta[k], sol[i]); ok {
				if f := objective(t); f < bestF {
					bestT, bestF, stop = t, f, i
				}
			}
		}

		// Take the step and drop the coefficients it zeroed.
		settled = stop < 0
		for i, k := range supp {
			switch {
			case stop < 0:
				beta[k] = sol[i]
			case i == stop:
				beta[k] = 0
			default:
				beta[k] += bestT * dir[i]
			}
		}
		for r, v := range w {
			grad[r] += bestT * v
		}
		first, kept := s, 0
		for i, k := range supp {
			b := beta[k]
			if b == 0 {
				first = min(first, i)
				continue
			}
			if math.Signbit(b) != math.Signbit(sgn[i]) {
				settled = false
				sgn[i] = -sgn[i]
			}
			supp[kept], sgn[kept] = k, sgn[i]
			kept++
		}
		if kept < s {
			settled = false
			clear(collinear)
			supp, sgn = supp[:kept], sgn[:kept]
			l = l[:first*(first+1)/2]
			for i := first; i < kept; i++ {
				if l, ok = lp.cholAppend(l, supp[:i], supp[i]); !ok {
					return nil
				}
			}
		}
	}

	// KKT certificate on the gradient recomputed over the support.
	copy(grad, lp.c)
	for j := range grad {
		grad[j] = -grad[j]
	}
	for _, k := range supp {
		b := beta[k]
		for r, v := range lp.gram[k] {
			grad[r] += b * v
		}
	}
	for _, j := range lp.active {
		if b := beta[j]; b != 0 {
			if !(math.Abs(grad[j]+math.Copysign(lam, b)) <= kktTol*lam) {
				return nil
			}
		} else if !(math.Abs(grad[j]) <= (1+kktTol)*lam) {
			return nil
		}
	}
	return beta
}

// crossing returns the t in (0, 1) at which the segment from a to b
// passes through zero, if it does.
func crossing(a, b float64) (float64, bool) {
	if a == 0 || (a > 0) == (b > 0) || b == 0 {
		return 0, false
	}
	return a / (a - b), true
}

// cholAppend extends l, the Cholesky factor of G_AA for the support A
// stored as packed rows, by the row of column j, and reports whether
// the extended block is still positive definite to working precision.
func (lp *lassoProblem) cholAppend(l []float64, supp []int, j int) ([]float64, bool) {
	gj := lp.column(j)
	base := len(l)
	for i, k := range supp {
		li := l[i*(i+1)/2:][:i+1]
		s := gj[k]
		for m, v := range li[:i] {
			s -= v * l[base+m]
		}
		l = append(l, s/li[i])
	}
	d := gj[j]
	for _, v := range l[base:] {
		d -= v * v
	}
	if !(d > pivotFloor*gj[j]) {
		return l[:base], false
	}
	return append(l, math.Sqrt(d)), true
}

// cholSolve overwrites b with the solution of L·Lᵀ·x = b, for L stored
// as packed rows.
func cholSolve(l, b []float64) {
	for i := range b {
		li := l[i*(i+1)/2:][:i+1]
		s := b[i]
		for k, v := range li[:i] {
			s -= v * b[k]
		}
		b[i] = s / li[i]
	}
	for i := len(b) - 1; i >= 0; i-- {
		li := l[i*(i+1)/2:][:i+1]
		b[i] /= li[i]
		for k, v := range li[:i] {
			b[k] -= v * b[i]
		}
	}
}

// gramColumn returns CᵀC[:,j] for the columns C. Entries of Gram
// columns already formed are copied from their symmetric twin; todo is
// scratch for the indices left to compute.
func gramColumn(gram, cols [][]float64, j int, todo []int) []float64 {
	out := make([]float64, len(cols))
	todo = todo[:0]
	for k, gk := range gram {
		if gk != nil {
			out[k] = gk[j]
		} else {
			todo = append(todo, k)
		}
	}
	dotsInto(out, cols, todo, cols[j])
	return out
}

// dotsInto sets out[k] = cols[k]·v for every k in idx. It works on
// four columns at a time so the four sums run side by side; each is
// still accumulated over the rows in order.
func dotsInto(out []float64, cols [][]float64, idx []int, v []float64) {
	for ; len(idx) >= 4; idx = idx[4:] {
		a, b := cols[idx[0]][:len(v)], cols[idx[1]][:len(v)]
		c, d := cols[idx[2]][:len(v)], cols[idx[3]][:len(v)]
		var sa, sb, sc, sd float64
		for i, vi := range v {
			sa += a[i] * vi
			sb += b[i] * vi
			sc += c[i] * vi
			sd += d[i] * vi
		}
		out[idx[0]], out[idx[1]], out[idx[2]], out[idx[3]] = sa, sb, sc, sd
	}
	for _, k := range idx {
		var s float64
		for i, ck := range cols[k][:len(v)] {
			s += ck * v[i]
		}
		out[k] = s
	}
}

func softThreshold(z, gamma float64) float64 {
	switch {
	case z > gamma:
		return z - gamma
	case z < -gamma:
		return z + gamma
	default:
		return 0
	}
}

// Predict implements Regressor.
func (m *Lasso) Predict(x []float64) (float64, error) {
	if m.coef == nil {
		return 0, ErrNotTrained
	}
	if err := checkRow(x, m.p); err != nil {
		return 0, err
	}
	out := m.intercept
	for j, c := range m.coef {
		out += c * x[j]
	}
	return out, nil
}

// Coefficients returns the fitted original-space weights.
func (m *Lasso) Coefficients() []float64 { return append([]float64(nil), m.coef...) }

// Intercept returns the fitted intercept.
func (m *Lasso) Intercept() float64 { return m.intercept }

// NumNonZero returns the number of active (non-zero) coefficients.
func (m *Lasso) NumNonZero() int {
	count := 0
	for _, c := range m.coef {
		if c != 0 {
			count++
		}
	}
	return count
}
