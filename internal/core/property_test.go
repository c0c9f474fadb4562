package core

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Property tests on the evaluation metrics.

func randomPair(r *rand.Rand, n int) (pred, actual []float64) {
	pred = make([]float64, n)
	actual = make([]float64, n)
	for i := 0; i < n; i++ {
		pred[i] = math.Abs(r.NormFloat64()) * 5
		actual[i] = math.Abs(r.NormFloat64()) * 5
	}
	return pred, actual
}

// PE is scale-invariant: scaling both series leaves it unchanged.
func TestPEScaleInvariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		pred, actual := randomPair(r, 1+r.Intn(50))
		pe1, err1 := PE(pred, actual)
		scale := 0.1 + r.Float64()*10
		for i := range pred {
			pred[i] *= scale
			actual[i] *= scale
		}
		pe2, err2 := PE(pred, actual)
		if err1 != nil || err2 != nil {
			return false
		}
		if math.IsNaN(pe1) {
			return math.IsNaN(pe2)
		}
		return math.Abs(pe1-pe2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Perfect predictions give PE = 0, MAE = 0, RMSE = 0.
func TestPerfectPredictionProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		_, actual := randomPair(r, 1+r.Intn(50))
		pe, e1 := PE(actual, actual)
		mae, e2 := MAE(actual, actual)
		rmse, e3 := RMSE(actual, actual)
		if e1 != nil || e2 != nil || e3 != nil {
			return false
		}
		if math.IsNaN(pe) { // all-zero actuals
			return mae == 0 && rmse == 0
		}
		return pe == 0 && mae == 0 && rmse == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// RMSE dominates MAE (Jensen), and both are non-negative.
func TestRMSEDominatesMAEProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		pred, actual := randomPair(r, 2+r.Intn(50))
		mae, e1 := MAE(pred, actual)
		rmse, e2 := RMSE(pred, actual)
		if e1 != nil || e2 != nil {
			return false
		}
		return mae >= 0 && rmse >= mae-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// PE is symmetric in the sense that swapping a single over- and
// under-prediction of equal magnitude leaves it unchanged, and adding
// a prediction equal to its actual can only lower it.
func TestPEAddingPerfectDayLowersProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		pred, actual := randomPair(r, 2+r.Intn(30))
		pe1, err := PE(pred, actual)
		if err != nil || math.IsNaN(pe1) {
			return true
		}
		pred2 := append(append([]float64(nil), pred...), 3)
		actual2 := append(append([]float64(nil), actual...), 3)
		pe2, err := PE(pred2, actual2)
		if err != nil {
			return false
		}
		return pe2 <= pe1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Evaluation is deterministic: same dataset and config give identical
// results.
func TestEvaluateDeterministicProperty(t *testing.T) {
	d := testDataset(t, 60, 400)
	cfg := fastConfig()
	a, err := EvaluateVehicleContext(context.Background(), d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EvaluateVehicleContext(context.Background(), d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.PE != b.PE || len(a.Predictions) != len(b.Predictions) {
		t.Fatalf("nondeterministic evaluation: %v vs %v", a.PE, b.PE)
	}
	for i := range a.Predictions {
		if a.Predictions[i].Predicted != b.Predictions[i].Predicted {
			t.Fatalf("prediction %d differs", i)
		}
	}
}
