package core

import (
	"context"
	"errors"
	"testing"
)

func TestResidualQuantiles(t *testing.T) {
	res := &Result{Predictions: []Prediction{
		{Actual: 5, Predicted: 4}, // residual +1
		{Actual: 3, Predicted: 4}, // residual -1
		{Actual: 6, Predicted: 4}, // residual +2
		{Actual: 2, Predicted: 4}, // residual -2
		{Actual: 4, Predicted: 4}, // residual 0
	}}
	lo, hi, err := ResidualQuantiles(res, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if lo >= 0 || hi <= 0 {
		t.Errorf("band = [%v, %v]", lo, hi)
	}
	if lo < -2 || hi > 2 {
		t.Errorf("band wider than residual range: [%v, %v]", lo, hi)
	}
	// Wider level gives a wider band.
	lo2, hi2, _ := ResidualQuantiles(res, 0.9)
	if hi2-lo2 < hi-lo {
		t.Errorf("level 0.9 band narrower than 0.5: [%v %v] vs [%v %v]", lo2, hi2, lo, hi)
	}
}

func TestResidualQuantilesErrors(t *testing.T) {
	res := &Result{Predictions: []Prediction{{Actual: 1, Predicted: 1}}}
	if _, _, err := ResidualQuantiles(res, 0); !errors.Is(err, ErrConfig) {
		t.Errorf("level 0: %v", err)
	}
	if _, _, err := ResidualQuantiles(res, 1); !errors.Is(err, ErrConfig) {
		t.Errorf("level 1: %v", err)
	}
	if _, _, err := ResidualQuantiles(&Result{}, 0.8); !errors.Is(err, ErrNoPredictions) {
		t.Errorf("empty: %v", err)
	}
}

func TestForecastInterval(t *testing.T) {
	d := testDataset(t, 40, 450)
	cfg := fastConfig()
	iv, err := ForecastInterval(d, cfg, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if iv.Lo > iv.Hours || iv.Hours > iv.Hi {
		t.Errorf("point forecast outside band: %v not in [%v, %v]", iv.Hours, iv.Lo, iv.Hi)
	}
	if iv.Lo < 0 || iv.Hi > 24 {
		t.Errorf("band not clamped: [%v, %v]", iv.Lo, iv.Hi)
	}
	if iv.Level != 0.8 || iv.Residuals == 0 || len(iv.Lags) == 0 {
		t.Errorf("metadata = %+v", iv)
	}
}

func TestForecastIntervalErrors(t *testing.T) {
	d := testDataset(t, 41, 450)
	if _, err := ForecastInterval(d, fastConfig(), 2); err == nil {
		t.Error("invalid level accepted")
	}
	bad := fastConfig()
	bad.W = 0
	if _, err := ForecastInterval(d, bad, 0.8); !errors.Is(err, ErrConfig) {
		t.Errorf("invalid config: %v", err)
	}
}

func TestCoverageMatchesLevel(t *testing.T) {
	// Coverage on the calibration data itself must be close to the
	// nominal level (it is exact up to quantile interpolation).
	d := testDataset(t, 42, 500)
	cfg := fastConfig()
	cfg.Stride = 3
	res, err := EvaluateVehicleContext(context.Background(), d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, level := range []float64{0.5, 0.8, 0.95} {
		cov, err := Coverage(res, level)
		if err != nil {
			t.Fatal(err)
		}
		if cov < level-0.12 || cov > 1 {
			t.Errorf("level %v: coverage %v", level, cov)
		}
	}
}
