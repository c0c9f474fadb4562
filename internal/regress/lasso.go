package regress

import (
	"fmt"
	"math"
)

// Lasso is L1-regularized linear regression fitted by covariance-update
// cyclic coordinate descent on standardized features, matching
// scikit-learn's objective
//
//	(1/(2n))·||y − Xβ||² + α·||β||₁
//
// The paper's grid search selected α = 0.1 (Section 4.2).
type Lasso struct {
	// Alpha is the L1 penalty. Must be >= 0 and not NaN.
	Alpha float64
	// MaxIter bounds the coordinate-descent sweeps (default 1000).
	MaxIter int
	// Tol is the convergence threshold on the max coefficient change
	// (default 1e-6). Must not be NaN.
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
	n, p, err := checkXY(x, y)
	if err != nil {
		return err
	}
	if m.Alpha < 0 || math.IsNaN(m.Alpha) {
		return fmt.Errorf("%w: lasso alpha %v", ErrBadParam, m.Alpha)
	}
	if math.IsNaN(m.Tol) {
		return fmt.Errorf("%w: lasso tol %v", ErrBadParam, m.Tol)
	}
	maxIter := m.MaxIter
	if maxIter <= 0 {
		maxIter = 1000
	}
	tol := m.Tol
	if tol <= 0 {
		tol = 1e-6
	}

	// Standardize features and center the target: coordinate descent
	// is only well-behaved on comparable scales.
	m.means = make([]float64, p)
	m.stds = make([]float64, p)
	cols := make([][]float64, p)
	colBuf := make([]float64, n*p)
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

	// Cyclic coordinate descent with soft thresholding, in covariance-
	// update form: g = Cᵀ·resid over the standardized columns C is kept
	// current instead of the n-vector residual itself. A move of βⱼ by δ
	// changes g by −δ·CᵀC[:,j], and that Gram column is formed the first
	// time βⱼ moves, so a sweep costs O(p) per moving coordinate rather
	// than O(n). With unit-variance columns, each column's squared norm
	// is n.
	active := make([]int, 0, p) // non-constant columns
	for j, std := range m.stds {
		if std != 0 {
			active = append(active, j)
		}
	}
	g := make([]float64, p)
	dotsInto(g, cols, active, resid)
	gram := make([][]float64, p)
	todo := make([]int, 0, p)
	beta := make([]float64, p)
	threshold := m.Alpha * float64(n)
	for iter := 0; iter < maxIter; iter++ {
		maxDelta := 0.0
		for j := 0; j < p; j++ {
			if m.stds[j] == 0 {
				continue // constant feature stays at zero
			}
			// rho = Cⱼᵀ(resid + Cⱼβⱼ)
			rho := g[j] + float64(n)*beta[j]
			newBeta := softThreshold(rho, threshold) / float64(n)
			if delta := newBeta - beta[j]; delta != 0 {
				if gram[j] == nil {
					gram[j] = gramColumn(gram, cols, j, todo)
				}
				for k, v := range gram[j] {
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
	return nil
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
