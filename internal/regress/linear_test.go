package regress

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// makeLinearData builds y = 3 + 2·x0 − 1.5·x1 + noise.
func makeLinearData(n int, noise float64, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = []float64{rng.NormFloat64() * 2, rng.NormFloat64() * 3}
		y[i] = 3 + 2*x[i][0] - 1.5*x[i][1] + noise*rng.NormFloat64()
	}
	return x, y
}

func TestLinearRecoversCoefficients(t *testing.T) {
	x, y := makeLinearData(200, 0, 1)
	m := NewLinear()
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	coef := m.Coefficients()
	if math.Abs(coef[0]-2) > 1e-8 || math.Abs(coef[1]+1.5) > 1e-8 {
		t.Errorf("coef = %v", coef)
	}
	if math.Abs(m.Intercept()-3) > 1e-8 {
		t.Errorf("intercept = %v", m.Intercept())
	}
	pred, err := m.Predict([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pred-3.5) > 1e-8 {
		t.Errorf("pred = %v", pred)
	}
}

func TestLinearNoisy(t *testing.T) {
	x, y := makeLinearData(500, 0.5, 2)
	m := NewLinear()
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	coef := m.Coefficients()
	if math.Abs(coef[0]-2) > 0.1 || math.Abs(coef[1]+1.5) > 0.1 {
		t.Errorf("coef = %v", coef)
	}
}

func TestLinearCollinearFallsBackToRidge(t *testing.T) {
	// Two identical columns: QR reports singular, ridge must cope.
	n := 50
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		v := float64(i)
		x[i] = []float64{v, v}
		y[i] = 4 * v
	}
	m := NewLinear()
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	pred, err := m.Predict([]float64{10, 10})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pred-40) > 0.5 {
		t.Errorf("collinear prediction = %v, want ~40", pred)
	}
}

func TestLinearUnderdeterminedFallsBackToRidge(t *testing.T) {
	// Fewer rows than features.
	x := [][]float64{{1, 0, 0, 2}, {0, 1, 0, 1}}
	y := []float64{1, 2}
	m := NewLinear()
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Predict([]float64{1, 1, 1, 1}); err != nil {
		t.Fatal(err)
	}
}

func TestLinearErrors(t *testing.T) {
	m := NewLinear()
	if _, err := m.Predict([]float64{1}); !errors.Is(err, ErrNotTrained) {
		t.Errorf("want ErrNotTrained, got %v", err)
	}
	if err := m.Fit(nil, nil); !errors.Is(err, ErrBadShape) {
		t.Errorf("want ErrBadShape, got %v", err)
	}
	if err := m.Fit([][]float64{{1}}, []float64{1, 2}); !errors.Is(err, ErrBadShape) {
		t.Errorf("want ErrBadShape, got %v", err)
	}
	if err := m.Fit([][]float64{{1, 2}, {1}}, []float64{1, 2}); !errors.Is(err, ErrBadShape) {
		t.Errorf("ragged rows: %v", err)
	}
	if err := m.Fit([][]float64{{}}, []float64{1}); !errors.Is(err, ErrBadShape) {
		t.Errorf("zero-width rows: %v", err)
	}
	x, y := makeLinearData(20, 0, 3)
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Predict([]float64{1}); !errors.Is(err, ErrBadShape) {
		t.Errorf("wrong row width: %v", err)
	}
	if m.Name() != "LR" {
		t.Error("name wrong")
	}
}

func TestLassoShrinksIrrelevantFeatures(t *testing.T) {
	// y depends only on x0; x1..x3 are noise. Lasso must zero most of
	// the irrelevant weights.
	rng := rand.New(rand.NewSource(4))
	n := 300
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		y[i] = 5*x[i][0] + 0.1*rng.NormFloat64()
	}
	m := NewLasso()
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	coef := m.Coefficients()
	if math.Abs(coef[0]-5) > 0.3 {
		t.Errorf("signal coef = %v", coef[0])
	}
	for j := 1; j < 4; j++ {
		if math.Abs(coef[j]) > 0.05 {
			t.Errorf("noise coef %d = %v, want ~0", j, coef[j])
		}
	}
}

func TestLassoAlphaZeroMatchesOLS(t *testing.T) {
	x, y := makeLinearData(200, 0.2, 5)
	lasso := &Lasso{Alpha: 0}
	if err := lasso.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	ols := NewLinear()
	if err := ols.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	lc, oc := lasso.Coefficients(), ols.Coefficients()
	for j := range lc {
		if math.Abs(lc[j]-oc[j]) > 1e-3 {
			t.Errorf("coef %d: lasso %v vs ols %v", j, lc[j], oc[j])
		}
	}
}

func TestLassoLargeAlphaZeroesEverything(t *testing.T) {
	x, y := makeLinearData(100, 0.2, 6)
	m := &Lasso{Alpha: 1e6}
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if m.NumNonZero() != 0 {
		t.Errorf("nonzero = %d, want 0", m.NumNonZero())
	}
	// Prediction collapses to the target mean.
	pred, _ := m.Predict([]float64{100, 100})
	var mean float64
	for _, v := range y {
		mean += v
	}
	mean /= float64(len(y))
	if math.Abs(pred-mean) > 1e-9 {
		t.Errorf("pred = %v, want mean %v", pred, mean)
	}
}

func TestLassoConstantFeature(t *testing.T) {
	x := [][]float64{{1, 5}, {2, 5}, {3, 5}, {4, 5}}
	y := []float64{2, 4, 6, 8}
	m := NewLasso()
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	coef := m.Coefficients()
	if coef[1] != 0 {
		t.Errorf("constant feature coef = %v", coef[1])
	}
	pred, _ := m.Predict([]float64{5, 5})
	if math.Abs(pred-10) > 1 {
		t.Errorf("pred = %v, want ~10", pred)
	}
}

func TestLassoErrors(t *testing.T) {
	m := NewLasso()
	if _, err := m.Predict([]float64{1}); !errors.Is(err, ErrNotTrained) {
		t.Errorf("want ErrNotTrained, got %v", err)
	}
	for _, bad := range []*Lasso{{Alpha: -1}, {Alpha: math.NaN()}, {Alpha: 0.1, Tol: math.NaN()}} {
		if err := bad.Fit([][]float64{{1}, {2}}, []float64{1, 2}); !errors.Is(err, ErrBadParam) {
			t.Errorf("Alpha %v Tol %v: want ErrBadParam, got %v", bad.Alpha, bad.Tol, err)
		}
	}
	if m.Name() != "Lasso" {
		t.Error("name wrong")
	}
}

func TestLassoOrthogonalClosedForm(t *testing.T) {
	// Centered, mutually orthogonal ±1 columns (Walsh functions),
	// scaled by s: the standardized columns are the ±1 columns c
	// themselves, so coordinate descent converges in one sweep to
	// βⱼ = S(cⱼᵀ(y−ȳ), α·n)/(n·sⱼ), and the intercept is ȳ.
	walsh := [][]float64{
		{1, -1, 1, -1, 1, -1, 1, -1},
		{1, 1, -1, -1, 1, 1, -1, -1},
		{1, 1, 1, 1, -1, -1, -1, -1},
	}
	scale := []float64{2.5, 0.5, 4}
	y := []float64{3.1, 0.4, 2.2, -1.7, 5.0, 0.9, 1.3, -0.6}
	n := len(y)
	x := make([][]float64, n)
	for i := range x {
		x[i] = make([]float64, len(walsh))
		for j, w := range walsh {
			x[i][j] = scale[j] * w[i]
		}
	}
	var yMean float64
	for _, v := range y {
		yMean += v
	}
	yMean /= float64(n)
	for _, alpha := range []float64{0, 0.1, 0.3, 10} {
		m := &Lasso{Alpha: alpha}
		if err := m.Fit(x, y); err != nil {
			t.Fatal(err)
		}
		coef := m.Coefficients()
		for j, w := range walsh {
			var cy float64
			for i, v := range y {
				cy += w[i] * (v - yMean)
			}
			want := softThreshold(cy, alpha*float64(n)) / (float64(n) * scale[j])
			if math.Abs(coef[j]-want) > 1e-12 {
				t.Errorf("α=%g: β[%d] = %v, closed form %v", alpha, j, coef[j], want)
			}
		}
		if math.Abs(m.Intercept()-yMean) > 1e-12 {
			t.Errorf("α=%g: intercept %v, want ȳ = %v", alpha, m.Intercept(), yMean)
		}
	}
}

func TestLinearZeroColumnClosedForm(t *testing.T) {
	// An all-zero column has no information: its coefficient is
	// exactly zero and the rest match OLS on the design without it.
	x, y := makeLinearData(60, 0.3, 8)
	withZero := make([][]float64, len(x))
	for i, row := range x {
		withZero[i] = []float64{row[0], 0, row[1]}
	}
	full, reduced := NewLinear(), NewLinear()
	if err := full.Fit(withZero, y); err != nil {
		t.Fatal(err)
	}
	if err := reduced.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	fc, rc := full.Coefficients(), reduced.Coefficients()
	if fc[1] != 0 {
		t.Errorf("zero-column coefficient = %v, want exactly 0", fc[1])
	}
	if math.Abs(fc[0]-rc[0]) > 1e-6 || math.Abs(fc[2]-rc[1]) > 1e-6 || math.Abs(full.Intercept()-reduced.Intercept()) > 1e-6 {
		t.Errorf("with zero column %v + %v, reduced OLS %v + %v", full.Intercept(), fc, reduced.Intercept(), rc)
	}
}

func TestLastValue(t *testing.T) {
	m := NewLastValue()
	if _, err := m.Predict([]float64{1}); !errors.Is(err, ErrNotTrained) {
		t.Errorf("want ErrNotTrained, got %v", err)
	}
	x := [][]float64{{1}, {2}, {3}}
	y := []float64{5, 6, 7}
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	pred, err := m.Predict([]float64{99})
	if err != nil || pred != 7 {
		t.Errorf("LV pred = %v %v", pred, err)
	}
	if _, err := m.Predict([]float64{1, 2}); !errors.Is(err, ErrBadShape) {
		t.Errorf("want ErrBadShape, got %v", err)
	}
	if m.Name() != "LV" {
		t.Error("name wrong")
	}
}

func TestMovingAverage(t *testing.T) {
	m := &MovingAverage{Period: 3}
	x := [][]float64{{1}, {2}, {3}, {4}, {5}}
	y := []float64{10, 20, 30, 40, 50}
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	pred, err := m.Predict([]float64{0})
	if err != nil || pred != 40 {
		t.Errorf("MA(3) pred = %v %v, want 40", pred, err)
	}
	// Period longer than data averages everything.
	long := &MovingAverage{Period: 100}
	long.Fit(x, y)
	pred, _ = long.Predict([]float64{0})
	if pred != 30 {
		t.Errorf("long MA = %v, want 30", pred)
	}
	// Default period is the paper's 30 days.
	if NewMovingAverage().Period != 30 {
		t.Error("default period != 30")
	}
	bad := &MovingAverage{Period: 0}
	if err := bad.Fit(x, y); !errors.Is(err, ErrBadParam) {
		t.Errorf("want ErrBadParam, got %v", err)
	}
	var untrained MovingAverage
	if _, err := untrained.Predict([]float64{1}); !errors.Is(err, ErrNotTrained) {
		t.Errorf("want ErrNotTrained, got %v", err)
	}
	if m.Name() != "MA" {
		t.Error("name wrong")
	}
}

func TestPredictAll(t *testing.T) {
	x, y := makeLinearData(50, 0, 7)
	m := NewLinear()
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	preds, err := PredictAll(m, x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range preds {
		if math.Abs(preds[i]-y[i]) > 1e-6 {
			t.Fatalf("PredictAll mismatch at %d", i)
		}
	}
	if _, err := PredictAll(m, [][]float64{{1}}); err == nil {
		t.Error("bad row accepted")
	}
}
