package regress

import (
	"fmt"
	"math"

	"vup/internal/randx"
)

// RandomForest is a bagged ensemble of CART regression trees with
// per-split feature subsampling. The paper's related work ([8], [14],
// [3]) uses Random Forests for public buses, waste collectors and
// heavy-duty trucks; it is provided here as the cross-study baseline
// and for ablations.
type RandomForest struct {
	// NTrees is the ensemble size (default 100).
	NTrees int
	// MaxDepth limits each tree (default 6).
	MaxDepth int
	// MinSamplesLeaf is the per-leaf minimum (default 2).
	MinSamplesLeaf int
	// MaxFeatures is the number of candidate features considered at
	// each split; <=0 selects max(p/3, 2) (the regression heuristic).
	MaxFeatures int
	// Seed drives the bootstrap and feature draws (default 1).
	Seed int64

	trees []*Tree
	p     int
}

// NewRandomForest returns a forest with common defaults.
func NewRandomForest() *RandomForest {
	return &RandomForest{NTrees: 100, MaxDepth: 6, MinSamplesLeaf: 2, Seed: 1}
}

// Name implements Regressor.
func (m *RandomForest) Name() string { return "RF" }

// Fit implements Regressor.
func (m *RandomForest) Fit(x [][]float64, y []float64) error {
	n, p, err := checkXY(x, y)
	if err != nil {
		return err
	}
	if m.NTrees <= 0 {
		return fmt.Errorf("%w: %d trees", ErrBadParam, m.NTrees)
	}
	if m.MaxDepth < 1 {
		return fmt.Errorf("%w: max depth %d", ErrBadParam, m.MaxDepth)
	}
	maxFeatures := m.MaxFeatures
	if maxFeatures <= 0 {
		maxFeatures = (p + 2) / 3
		if maxFeatures < 2 {
			maxFeatures = 2
		}
	}
	if maxFeatures > p {
		maxFeatures = p
	}
	// randx.New wraps rand.New(rand.NewSource(seed)), so the bootstrap
	// and feature draws are stream-identical to the pre-randx code.
	rng := randx.New(m.Seed)

	m.trees = make([]*Tree, 0, m.NTrees)
	bx := make([][]float64, n)
	by := make([]float64, n)
	for t := 0; t < m.NTrees; t++ {
		// Bootstrap sample.
		for i := 0; i < n; i++ {
			src := rng.Intn(n)
			bx[i] = x[src]
			by[i] = y[src]
		}
		tree := &Tree{
			MaxDepth:       m.MaxDepth,
			MinSamplesLeaf: m.MinSamplesLeaf,
			// Per-split feature subsampling: each split draws its own
			// candidate set.
			splitFeatures: func(pp int) []int { return rng.Perm(pp)[:maxFeatures] },
		}
		if err := tree.Fit(bx, by); err != nil {
			return fmt.Errorf("regress: forest tree %d: %w", t, err)
		}
		m.trees = append(m.trees, tree)
	}
	m.p = p
	return nil
}

// Predict implements Regressor.
func (m *RandomForest) Predict(x []float64) (float64, error) {
	if m.trees == nil {
		return 0, ErrNotTrained
	}
	if err := checkRow(x, m.p); err != nil {
		return 0, err
	}
	sum := 0.0
	for _, tree := range m.trees {
		v, err := tree.Predict(x)
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum / float64(len(m.trees)), nil
}

// NumTrees returns the fitted ensemble size.
func (m *RandomForest) NumTrees() int { return len(m.trees) }

// Ridge is L2-regularized linear regression solved in closed form via
// the normal equations. It is the stable reference point between OLS
// and Lasso for the ablation benchmarks.
type Ridge struct {
	// Alpha is the L2 penalty (default 1).
	Alpha float64

	linear Linear
}

// NewRidge returns a Ridge model with α = 1.
func NewRidge() *Ridge { return &Ridge{Alpha: 1} }

// Name implements Regressor.
func (m *Ridge) Name() string { return "Ridge" }

// Fit implements Regressor.
func (m *Ridge) Fit(x [][]float64, y []float64) error {
	if m.Alpha <= 0 || math.IsNaN(m.Alpha) {
		return fmt.Errorf("%w: ridge alpha %v", ErrBadParam, m.Alpha)
	}
	// Reuse the Linear solver forced onto its ridge path by requesting
	// the penalized normal equations directly.
	_, p, err := checkXY(x, y)
	if err != nil {
		return err
	}
	m.linear = Linear{RidgeFallback: m.Alpha}
	beta, err := ridgeSolve(x, y, m.Alpha)
	if err != nil {
		return err
	}
	m.linear.intercept = beta[0]
	m.linear.coef = beta[1:]
	m.linear.p = p
	return nil
}

// Predict implements Regressor.
func (m *Ridge) Predict(x []float64) (float64, error) { return m.linear.Predict(x) }

// Coefficients returns the fitted weights (excluding the intercept).
func (m *Ridge) Coefficients() []float64 { return m.linear.Coefficients() }
