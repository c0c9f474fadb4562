package core

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"vup/internal/canbus"
	"vup/internal/etl"
	"vup/internal/regress"
	"vup/internal/timeseries"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden pipeline equivalence file")

// goldenPrediction serializes one evaluated day with full float
// round-trip precision (encoding/json emits the shortest exact
// representation), so the golden file pins results to the bit.
type goldenPrediction struct {
	Index     int     `json:"index"`
	Date      string  `json:"date"`
	Actual    float64 `json:"actual"`
	Predicted float64 `json:"predicted"`
	Lags      []int   `json:"lags"`
}

type goldenCase struct {
	Vehicle  string `json:"vehicle"`
	Algo     string `json:"algorithm"`
	Scenario string `json:"scenario"`
	Strategy string `json:"strategy"`

	// EvaluateVehicle outputs.
	PE          float64            `json:"pe"`
	MAE         float64            `json:"mae"`
	Skipped     int                `json:"skipped_windows"`
	Predictions []goldenPrediction `json:"predictions"`

	// Forecast outputs.
	ForecastHours float64 `json:"forecast_hours"`
	ForecastLags  []int   `json:"forecast_lags"`

	// ForecastInterval(0.8) outputs.
	IntervalLo        float64 `json:"interval_lo"`
	IntervalHi        float64 `json:"interval_hi"`
	IntervalHours     float64 `json:"interval_hours"`
	IntervalResiduals int     `json:"interval_residuals"`

	// ForecastHorizon(5) outputs, with per-step target-channel values
	// on the first two steps to exercise the override path.
	Horizon []float64 `json:"horizon"`
}

// goldenConfig keeps the suite fast enough for CI while exercising
// every algorithm: short window, strided evaluation, two channels and
// one target channel.
func goldenConfig(alg regress.Algorithm, sc Scenario, st timeseries.Strategy) Config {
	cfg := DefaultConfig()
	cfg.Algorithm = alg
	cfg.Scenario = sc
	cfg.Strategy = st
	cfg.W = 60
	cfg.K = 8
	cfg.MaxLag = 21
	cfg.Stride = 7
	cfg.Channels = []string{canbus.ChanFuelRate, canbus.ChanEngineSpeed}
	cfg.TargetChannels = []string{canbus.ChanPercentLoad}
	return cfg
}

// TestGoldenEquivalence pins the byte-exact outputs of the four
// pipeline drivers — EvaluateVehicle, Forecast, ForecastInterval and
// ForecastHorizon — across all six algorithms, both scenarios and both
// window strategies on a seeded fleet. The golden file was generated
// on the pre-Plan pipeline (go test ./internal/core -run Golden
// -update), so a pass certifies the compiled-Plan refactor is
// behaviour-preserving to the last bit.
func TestGoldenEquivalence(t *testing.T) {
	datasets := []*etl.VehicleDataset{
		testDataset(t, 401, 300),
		testDataset(t, 402, 340),
	}

	var cases []goldenCase
	for _, d := range datasets {
		for _, alg := range regress.Algorithms() {
			for _, sc := range []Scenario{NextDay, NextWorkingDay} {
				for _, st := range []timeseries.Strategy{timeseries.Sliding, timeseries.Expanding} {
					cfg := goldenConfig(alg, sc, st)
					gc := goldenCase{
						Vehicle:  d.VehicleID,
						Algo:     string(alg),
						Scenario: sc.String(),
						Strategy: st.String(),
					}
					res, err := EvaluateVehicleContext(context.Background(), d, cfg)
					if err != nil {
						t.Fatalf("%s/%s/%s evaluate: %v", alg, sc, st, err)
					}
					gc.PE, gc.MAE, gc.Skipped = res.PE, res.MAE, res.SkippedWindows
					for _, p := range res.Predictions {
						gc.Predictions = append(gc.Predictions, goldenPrediction{
							Index: p.Index, Date: p.Date.Format("2006-01-02"),
							Actual: p.Actual, Predicted: p.Predicted, Lags: p.Lags,
						})
					}
					gc.ForecastHours, gc.ForecastLags, err = Forecast(d, cfg)
					if err != nil {
						t.Fatalf("%s/%s/%s forecast: %v", alg, sc, st, err)
					}
					iv, err := ForecastInterval(d, cfg, 0.8)
					if err != nil {
						t.Fatalf("%s/%s/%s interval: %v", alg, sc, st, err)
					}
					gc.IntervalLo, gc.IntervalHi = iv.Lo, iv.Hi
					gc.IntervalHours, gc.IntervalResiduals = iv.Hours, iv.Residuals
					targets := []map[string]float64{
						{canbus.ChanPercentLoad: 37.5, canbus.ChanFuelRate: 8.25},
						{canbus.ChanPercentLoad: 12.5},
					}
					gc.Horizon, err = ForecastHorizon(d, cfg, 5, targets)
					if err != nil {
						t.Fatalf("%s/%s/%s horizon: %v", alg, sc, st, err)
					}
					cases = append(cases, gc)
				}
			}
		}
	}

	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(cases); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "golden_pipeline.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden rewritten: %s (%d cases)", path, len(cases))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (run with -update to generate): %v", err)
	}
	if !bytes.Equal(want, buf.Bytes()) {
		diffGolden(t, want, buf.Bytes())
	}
}

// diffGolden reports the first differing golden case instead of a raw
// byte diff, so a regression names the algorithm and scenario.
func diffGolden(t *testing.T, want, got []byte) {
	t.Helper()
	var wc, gc []goldenCase
	if err := json.Unmarshal(want, &wc); err != nil {
		t.Fatalf("golden outputs differ and stored file unparsable: %v", err)
	}
	if err := json.Unmarshal(got, &gc); err != nil {
		t.Fatalf("golden outputs differ and new output unparsable: %v", err)
	}
	if len(wc) != len(gc) {
		t.Fatalf("golden case count changed: stored %d, got %d", len(wc), len(gc))
	}
	for i := range wc {
		wj, _ := json.Marshal(wc[i])
		gj, _ := json.Marshal(gc[i])
		if !bytes.Equal(wj, gj) {
			t.Fatalf("pipeline output diverged for %s %s/%s/%s:\nstored: %s\nnow:    %s",
				wc[i].Vehicle, wc[i].Algo, wc[i].Scenario, wc[i].Strategy, clip(wj), clip(gj))
		}
	}
	t.Fatal("golden bytes differ (formatting only?) — inspect testdata/golden_pipeline.json")
}

func clip(b []byte) string {
	const max = 600
	if len(b) <= max {
		return string(b)
	}
	return fmt.Sprintf("%s... (%d bytes)", b[:max], len(b))
}
