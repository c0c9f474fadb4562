package core

import (
	"context"
	"testing"

	"vup/internal/obs"
)

// TestEvaluateRecordsStageTimings checks that a hold-out evaluation
// populates the Section 4.5 stage histograms: fits and predictions
// labeled with the algorithm, and feature-build observations.
func TestEvaluateRecordsStageTimings(t *testing.T) {
	d := testDataset(t, 7, 240)
	cfg := fastConfig()

	alg := obs.Label{Name: "algorithm", Value: "LR"}
	before, _ := obs.FindSample(obs.Default.Gather(), "pipeline_fit_seconds", alg)
	res, err := EvaluateVehicleContext(context.Background(), d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	after := obs.Default.Gather()

	fits, ok := obs.FindSample(after, "pipeline_fit_seconds", alg)
	if !ok {
		t.Fatal("pipeline_fit_seconds{algorithm=LR} not registered")
	}
	gotFits := fits.Count - before.Count
	if want := uint64(len(res.Predictions)); gotFits < want {
		t.Errorf("recorded %d fits, want at least %d (one per prediction)", gotFits, want)
	}
	preds, ok := obs.FindSample(after, "pipeline_predict_seconds", alg)
	if !ok || preds.Count == 0 {
		t.Error("pipeline_predict_seconds{algorithm=LR} empty")
	}
	feats, ok := obs.FindSample(after, "pipeline_feature_build_seconds")
	if !ok || feats.Count == 0 {
		t.Error("pipeline_feature_build_seconds empty")
	}
	if fits.Sum <= 0 {
		t.Error("fit time sum should be positive")
	}
}
