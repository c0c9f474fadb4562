package vup

import (
	"context"
	"fmt"
	"testing"

	"vup/internal/canbus"
	"vup/internal/core"
	"vup/internal/etl"
	"vup/internal/experiments"
	"vup/internal/featsel"
	"vup/internal/fleet"
	"vup/internal/randx"
	"vup/internal/regress"
)

// The benchmarks regenerate every table and figure of the paper at a
// reduced scale (experiments.Tiny), plus the Section 4.5 per-algorithm
// training-time comparison at the paper's recommended settings. Run
// the full-scale regeneration with `go run ./cmd/vup-experiments
// -scale full`.

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	cfg := experiments.Tiny()
	for i := 0; i < b.N; i++ {
		rep, err := experiments.RunContext(context.Background(), id, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Text == "" {
			b.Fatal("empty report")
		}
	}
}

func BenchmarkFig1aCharacterization(b *testing.B) { benchExperiment(b, "fig1a") }
func BenchmarkFig1bModelBoxplots(b *testing.B)    { benchExperiment(b, "fig1b") }
func BenchmarkFig1cUnitBoxplots(b *testing.B)     { benchExperiment(b, "fig1c") }
func BenchmarkFig1dWeeklySeries(b *testing.B)     { benchExperiment(b, "fig1d") }
func BenchmarkFig2ACF(b *testing.B)               { benchExperiment(b, "fig2") }
func BenchmarkFig3WindowEnumeration(b *testing.B) { benchExperiment(b, "fig3") }
func BenchmarkFig4ParameterSweep(b *testing.B)    { benchExperiment(b, "fig4") }
func BenchmarkFig5NextDay(b *testing.B)           { benchExperiment(b, "fig5a") }
func BenchmarkFig5NextWorkingDay(b *testing.B)    { benchExperiment(b, "fig5b") }
func BenchmarkFig6Prediction(b *testing.B)        { benchExperiment(b, "fig6a") }
func BenchmarkTimingTable(b *testing.B)           { benchExperiment(b, "timing") }

// benchTrainingData builds one training matrix at the paper's
// recommended settings (w=140, K=20) on a 4-year unit.
func benchTrainingData(b *testing.B) ([][]float64, []float64) {
	b.Helper()
	rng := randx.New(1)
	v := fleet.Vehicle{ID: "bench", Model: fleet.Model{Type: fleet.RefuseCompactor, Index: 0}, Country: "IT"}
	u := fleet.Unit{Vehicle: v, Model: fleet.NewUsageModel(v, 1, rng.Split())}
	usage := u.Model.Simulate(fleet.StudyStart, fleet.StudyDays)
	d, err := etl.FromUsage(u, usage, rng.Split())
	if err != nil {
		b.Fatal(err)
	}
	n := d.Len()
	lags := featsel.SelectLags(d.Hours[n-140:], 42, 20)
	spec := featsel.Spec{
		Lags:           lags,
		Channels:       canbus.AnalogChannels(),
		IncludeHours:   true,
		IncludeContext: true,
	}
	x, y, _, err := spec.Matrix(d, n-140, n)
	if err != nil {
		b.Fatal(err)
	}
	return x, y
}

// benchAlgorithm measures one model fit at the paper's settings — the
// Section 4.5 comparison. The expected ordering is
// LV < MA < LR ≈ Lasso < SVR < GB.
func benchAlgorithm(b *testing.B, alg regress.Algorithm) {
	x, y := benchTrainingData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := regress.New(alg)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Fit(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAlgorithmLV(b *testing.B)    { benchAlgorithm(b, regress.AlgLastValue) }
func BenchmarkAlgorithmMA(b *testing.B)    { benchAlgorithm(b, regress.AlgMovingAverage) }
func BenchmarkAlgorithmLR(b *testing.B)    { benchAlgorithm(b, regress.AlgLinear) }
func BenchmarkAlgorithmLasso(b *testing.B) { benchAlgorithm(b, regress.AlgLasso) }
func BenchmarkAlgorithmSVR(b *testing.B)   { benchAlgorithm(b, regress.AlgSVR) }
func BenchmarkAlgorithmGB(b *testing.B)    { benchAlgorithm(b, regress.AlgGB) }

// BenchmarkEvaluateVehicle measures the full per-vehicle hold-out
// evaluation (feature selection + training per window) at a reduced
// stride.
func BenchmarkEvaluateVehicle(b *testing.B) {
	fc := SmallFleet()
	fc.Units = 1
	fc.Days = 500
	ds, err := GenerateDatasets(fc, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Algorithm = AlgLasso
	cfg.W = 120
	cfg.K = 10
	cfg.MaxLag = 21
	cfg.Stride = 10
	cfg.Channels = []string{canbus.ChanFuelRate}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.EvaluateVehicleContext(context.Background(), ds[0], cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForecast measures a single next-day forecast, the
// operation a fleet dashboard performs per vehicle per day.
func BenchmarkForecast(b *testing.B) {
	fc := SmallFleet()
	fc.Units = 1
	fc.Days = 400
	ds, err := GenerateDatasets(fc, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Algorithm = AlgSVR
	cfg.W = 120
	cfg.K = 10
	cfg.MaxLag = 21
	cfg.Channels = []string{canbus.ChanFuelRate}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.Forecast(ds[0], cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDatasetGeneration measures the synthetic substrate: fleet
// generation plus the daily ETL for a small fleet.
func BenchmarkDatasetGeneration(b *testing.B) {
	fc := SmallFleet()
	fc.Units = 10
	fc.Days = 365
	for i := 0; i < b.N; i++ {
		ds, err := GenerateDatasets(fc, 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(ds) != 10 {
			b.Fatal("wrong fleet size")
		}
	}
}

// Example-style sanity check that the benchmark harness settings are
// the paper's: printed once under -v.
func TestBenchSettingsMatchPaper(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.W != 140 || cfg.K != 20 {
		t.Fatalf("defaults drifted: w=%d K=%d", cfg.W, cfg.K)
	}
	fmt.Printf("paper settings: w=%d K=%d algorithm=%s\n", cfg.W, cfg.K, cfg.Algorithm)
}
