package regress

import (
	"math"
	"math/rand"
	"testing"
)

// refDesignCase is a seeded training set for the reference-equivalence
// tests, with the solve the reference LR fit must take on it.
type refDesignCase struct {
	name string
	x    [][]float64
	y    []float64
	path refLinearPath
}

// seededDesign draws an n×p standard-normal design and a noisy linear
// target.
func seededDesign(seed int64, n, p int) ([][]float64, []float64) {
	x, y, _ := randomProblem(rand.New(rand.NewSource(seed)), n, p, 0.5)
	return x, y
}

// referenceDesigns covers each solve path of the linear fit: QR on
// full-rank designs (well and badly conditioned), the ridge normal
// equations on a zero column, on n < p+1 and on a rank deficiency QR
// detects, and the boosted-penalty retry when even the ridge matrix
// does not factorize.
func referenceDesigns() []refDesignCase {
	var cases []refDesignCase

	x, y := seededDesign(1, 80, 6)
	cases = append(cases, refDesignCase{"full-rank", x, y, refPathQR})

	x, y = seededDesign(2, 60, 8)
	for _, row := range x {
		row[3] = 0 // a one-hot category absent from the window
	}
	cases = append(cases, refDesignCase{"zero-column", x, y, refPathRidge})

	x, y = seededDesign(3, 6, 10)
	cases = append(cases, refDesignCase{"n<p+1", x, y, refPathRidge})

	x, y = seededDesign(4, 9, 8)
	cases = append(cases, refDesignCase{"n=p+1", x, y, refPathQR})

	rng := rand.New(rand.NewSource(5))
	x, y = seededDesign(5, 50, 5)
	for _, row := range x {
		row[4] = row[0] + 1e-9*rng.NormFloat64()
	}
	cases = append(cases, refDesignCase{"near-collinear", x, y, refPathQR})

	x, y = seededDesign(6, 50, 5)
	for _, row := range x {
		row[4] = 2 * row[1]
	}
	cases = append(cases, refDesignCase{"collinear", x, y, refPathRidge})

	x, y = seededDesign(7, 40, 4)
	for _, row := range x {
		row[0] *= 1e9
		row[1], row[2] = row[0], row[0]
	}
	cases = append(cases, refDesignCase{"cholesky-boost", x, y, refPathBoost})
	return cases
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestLinearMatchesReference holds LR and Ridge to the reference
// kernels bit for bit on every solve path.
func TestLinearMatchesReference(t *testing.T) {
	for _, tc := range referenceDesigns() {
		t.Run(tc.name, func(t *testing.T) {
			wantCoef, wantIcpt, path, err := refLinearFit(tc.x, tc.y, 1e-8, true)
			if err != nil {
				t.Fatal(err)
			}
			if path != tc.path {
				t.Fatalf("design takes reference path %d, want %d", path, tc.path)
			}
			lr := NewLinear()
			if err := lr.Fit(tc.x, tc.y); err != nil {
				t.Fatal(err)
			}
			if !sameBits(lr.Coefficients(), wantCoef) || !sameBits([]float64{lr.Intercept()}, []float64{wantIcpt}) {
				t.Errorf("LR = %v + %v, reference %v + %v", lr.Intercept(), lr.Coefficients(), wantIcpt, wantCoef)
			}
			for _, alpha := range []float64{1e-3, 1} {
				wantCoef, wantIcpt, _, err := refLinearFit(tc.x, tc.y, alpha, false)
				if err != nil {
					t.Fatal(err)
				}
				r := &Ridge{Alpha: alpha}
				if err := r.Fit(tc.x, tc.y); err != nil {
					t.Fatal(err)
				}
				if !sameBits(r.Coefficients(), wantCoef) || !sameBits([]float64{r.linear.Intercept()}, []float64{wantIcpt}) {
					t.Errorf("Ridge(%g) = %v + %v, reference %v + %v", alpha, r.linear.Intercept(), r.Coefficients(), wantIcpt, wantCoef)
				}
			}
		})
	}
}

// TestLassoMatchesReference holds the covariance-update Lasso to the
// residual-update reference within 1e-9·(1+|β|).
func TestLassoMatchesReference(t *testing.T) {
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
	cases = append(cases, referenceDesigns()...)

	for _, tc := range cases {
		for _, alpha := range []float64{0, 0.1, 10} {
			wantCoef, wantIcpt := refLassoFit(tc.x, tc.y, alpha, 1000, 1e-6)
			m := &Lasso{Alpha: alpha}
			if err := m.Fit(tc.x, tc.y); err != nil {
				t.Fatalf("%s α=%g: %v", tc.name, alpha, err)
			}
			got := append(m.Coefficients(), m.Intercept())
			want := append(wantCoef, wantIcpt)
			for j := range want {
				if d := math.Abs(got[j] - want[j]); d > 1e-9*(1+math.Abs(want[j])) {
					t.Errorf("%s α=%g: β[%d] = %v, reference %v (|Δ| %.3g)", tc.name, alpha, j, got[j], want[j], d)
				}
			}
		}
	}
}
