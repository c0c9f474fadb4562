package regress

// Reference kernels and helpers exported to the external test package,
// which drives them with training windows built by vup/internal/core.
var (
	RefLinearFit = func(x [][]float64, y []float64) ([]float64, float64, error) {
		coef, icpt, _, err := refLinearFit(x, y, 1e-8, true)
		return coef, icpt, err
	}
	CheckLassoFit = checkLassoFit
	SameBits      = sameBits
	HasZeroColumn = func(x [][]float64) bool { return hasZeroColumn(x, len(x[0])) }
)
