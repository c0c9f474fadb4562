package regress

import (
	"errors"
	"math"
)

// Reference implementations of the LR, Ridge and Lasso fitting kernels
// in their straightforward form: the design matrix built explicitly,
// AᵀA formed by a transpose and a general matrix product, an
// element-accessor Cholesky, a row-major Householder QR, and Lasso's
// coordinate descent updating the full n-vector residual. The
// production kernels must reproduce the linear fits bit for bit;
// equivalence_test.go holds them to that. Lasso is held to a KKT
// certificate instead, with the reference's objective as a ceiling
// (certificate_test.go).

var errRefSingular = errors.New("reference: singular")

// refMatrix is a dense row-major matrix.
type refMatrix struct {
	rows, cols int
	data       []float64
}

func newRefMatrix(rows, cols int) *refMatrix {
	return &refMatrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

func (m *refMatrix) at(i, j int) float64     { return m.data[i*m.cols+j] }
func (m *refMatrix) set(i, j int, v float64) { m.data[i*m.cols+j] = v }
func (m *refMatrix) row(i int) []float64     { return m.data[i*m.cols : (i+1)*m.cols] }

func (m *refMatrix) clone() *refMatrix {
	c := newRefMatrix(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

func (m *refMatrix) t() *refMatrix {
	t := newRefMatrix(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.data[j*t.cols+i] = m.data[i*m.cols+j]
		}
	}
	return t
}

func (m *refMatrix) mul(o *refMatrix) *refMatrix {
	out := newRefMatrix(m.rows, o.cols)
	for i := 0; i < m.rows; i++ {
		mi := m.data[i*m.cols : (i+1)*m.cols]
		oi := out.data[i*out.cols : (i+1)*out.cols]
		for k, mik := range mi {
			if mik == 0 {
				continue
			}
			ok := o.data[k*o.cols : (k+1)*o.cols]
			for j, okj := range ok {
				oi[j] += mik * okj
			}
		}
	}
	return out
}

func (m *refMatrix) mulVec(x []float64) []float64 {
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		s := 0.0
		for k, v := range m.row(i) {
			s += v * x[k]
		}
		out[i] = s
	}
	return out
}

// refCholesky returns the lower-triangular factor of a, reading only
// its lower triangle.
func refCholesky(a *refMatrix) (*refMatrix, error) {
	n := a.rows
	l := newRefMatrix(n, n)
	for j := 0; j < n; j++ {
		d := a.at(j, j)
		for k := 0; k < j; k++ {
			d -= l.at(j, k) * l.at(j, k)
		}
		if d <= 0 {
			return nil, errRefSingular
		}
		l.set(j, j, math.Sqrt(d))
		for i := j + 1; i < n; i++ {
			s := a.at(i, j)
			for k := 0; k < j; k++ {
				s -= l.at(i, k) * l.at(j, k)
			}
			l.set(i, j, s/l.at(j, j))
		}
	}
	return l, nil
}

func refCholeskySolve(l *refMatrix, b []float64) []float64 {
	n := l.rows
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l.at(i, k) * y[k]
		}
		y[i] = s / l.at(i, i)
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l.at(k, i) * x[k]
		}
		x[i] = s / l.at(i, i)
	}
	return x
}

// refLeastSquares is Householder QR least squares on a row-major copy
// of a (Rows >= Cols).
func refLeastSquares(a *refMatrix, b []float64) ([]float64, error) {
	m, n := a.rows, a.cols
	r := a.clone()
	qtb := append([]float64(nil), b...)
	for k := 0; k < n; k++ {
		var norm float64
		for i := k; i < m; i++ {
			norm = math.Hypot(norm, r.at(i, k))
		}
		if norm == 0 {
			return nil, errRefSingular
		}
		if r.at(k, k) < 0 {
			norm = -norm
		}
		for i := k; i < m; i++ {
			r.set(i, k, r.at(i, k)/norm)
		}
		r.set(k, k, r.at(k, k)+1)
		for j := k + 1; j < n; j++ {
			var s float64
			for i := k; i < m; i++ {
				s += r.at(i, k) * r.at(i, j)
			}
			s = -s / r.at(k, k)
			for i := k; i < m; i++ {
				r.set(i, j, r.at(i, j)+s*r.at(i, k))
			}
		}
		var s float64
		for i := k; i < m; i++ {
			s += r.at(i, k) * qtb[i]
		}
		s = -s / r.at(k, k)
		for i := k; i < m; i++ {
			qtb[i] += s * r.at(i, k)
		}
		r.set(k, k, norm)
	}
	x := make([]float64, n)
	for k := n - 1; k >= 0; k-- {
		diag := r.at(k, k)
		if math.Abs(diag) < 1e-12 {
			return nil, errRefSingular
		}
		s := qtb[k]
		for j := k + 1; j < n; j++ {
			s -= r.at(k, j) * x[j]
		}
		x[k] = s / -diag
	}
	return x, nil
}

func refDesign(x [][]float64) *refMatrix {
	p := len(x[0])
	a := newRefMatrix(len(x), p+1)
	for i, row := range x {
		a.set(i, 0, 1)
		copy(a.row(i)[1:], row)
	}
	return a
}

// refRidgeSolve solves (AᵀA + λI)β = Aᵀy with the intercept
// unpenalized, boosting the penalty until the factorization succeeds.
// boosted reports whether the first factorization failed.
func refRidgeSolve(a *refMatrix, y []float64, lambda float64) (beta []float64, boosted bool, err error) {
	at := a.t()
	ata := at.mul(a)
	for j := 1; j < ata.cols; j++ {
		ata.set(j, j, ata.at(j, j)+lambda)
	}
	ata.set(0, 0, ata.at(0, 0)+1e-12)
	aty := at.mulVec(y)
	l, err := refCholesky(ata)
	if err != nil {
		boosted = true
		for boost := lambda * 10; boost < 1e6; boost *= 10 {
			for j := 0; j < ata.cols; j++ {
				ata.set(j, j, ata.at(j, j)+boost)
			}
			if l, err = refCholesky(ata); err == nil {
				break
			}
		}
		if err != nil {
			return nil, true, err
		}
	}
	return refCholeskySolve(l, aty), boosted, nil
}

// refLinearPath names the solve a reference linear fit took.
type refLinearPath int

const (
	refPathQR refLinearPath = iota
	refPathRidge
	refPathBoost
)

// refLinearFit fits OLS with an intercept: QR when the design has at
// least as many rows as columns, the ridge normal equations with
// penalty lambda when QR is not applicable or fails. qr selects
// whether QR is tried at all (false reproduces Ridge).
func refLinearFit(x [][]float64, y []float64, lambda float64, qr bool) (coef []float64, intercept float64, path refLinearPath, err error) {
	a := refDesign(x)
	var beta []float64
	if qr && a.rows >= a.cols {
		beta, err = refLeastSquares(a, y)
	}
	if beta == nil {
		var boosted bool
		beta, boosted, err = refRidgeSolve(a, y, lambda)
		if err != nil {
			return nil, 0, 0, err
		}
		path = refPathRidge
		if boosted {
			path = refPathBoost
		}
	}
	return beta[1:], beta[0], path, nil
}

// refStandardize centers and scales each column of x to unit
// population variance (a constant column is left centered, with std
// 0) and centers y.
func refStandardize(x [][]float64, y []float64) (cols [][]float64, means, stds []float64, yMean float64, resid []float64) {
	n, p := len(x), len(x[0])
	means = make([]float64, p)
	stds = make([]float64, p)
	cols = make([][]float64, p)
	for j := 0; j < p; j++ {
		col := make([]float64, n)
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
		means[j], stds[j] = mean, std
		cols[j] = col
	}
	var ySum float64
	for _, v := range y {
		ySum += v
	}
	yMean = ySum / float64(n)
	resid = make([]float64, n)
	for i := range resid {
		resid[i] = y[i] - yMean
	}
	return cols, means, stds, yMean, resid
}

// refLassoFit is cyclic coordinate descent on standardized features
// that keeps the full residual vector current.
func refLassoFit(x [][]float64, y []float64, alpha float64, maxIter int, tol float64) (coef []float64, intercept float64) {
	n, p := len(x), len(x[0])
	cols, means, stds, yMean, resid := refStandardize(x, y)
	beta := make([]float64, p)
	threshold := alpha * float64(n)
	for iter := 0; iter < maxIter; iter++ {
		maxDelta := 0.0
		for j := 0; j < p; j++ {
			if stds[j] == 0 {
				continue
			}
			col := cols[j]
			rho := 0.0
			for i := range col {
				rho += col[i] * resid[i]
			}
			rho += float64(n) * beta[j]
			newBeta := softThreshold(rho, threshold) / float64(n)
			if delta := newBeta - beta[j]; delta != 0 {
				for i := range col {
					resid[i] -= delta * col[i]
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
	coef = make([]float64, p)
	intercept = yMean
	for j := 0; j < p; j++ {
		if stds[j] == 0 {
			continue
		}
		coef[j] = beta[j] / stds[j]
		intercept -= coef[j] * means[j]
	}
	return coef, intercept
}
