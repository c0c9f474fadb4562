package core

import (
	"context"
	"testing"

	"vup/internal/etl"
	"vup/internal/regress"
)

// benchEvalConfig is the paper's recommended pipeline shape (w=140,
// K=20, MaxLag=42, every analog channel, every-day evaluation); only
// the algorithm varies. The LV/MA baselines fit in nanoseconds, so
// their numbers isolate the sliding-window evaluation path itself —
// lag selection, feature materialization and matrix assembly — while
// LR adds a realistic model fit on top.
func benchEvalConfig(alg regress.Algorithm) Config {
	cfg := DefaultConfig()
	cfg.Algorithm = alg
	return cfg
}

// BenchmarkEvaluateVehicle measures the full per-vehicle hold-out
// evaluation. Old-vs-new numbers for the compiled-Plan refactor are
// recorded in BENCH_plan.json at the repository root.
func BenchmarkEvaluateVehicle(b *testing.B) {
	d := testDataset(b, 77, 420)
	for _, alg := range []regress.Algorithm{
		regress.AlgLastValue, regress.AlgMovingAverage, regress.AlgLinear, regress.AlgLasso,
	} {
		b.Run(string(alg), func(b *testing.B) {
			cfg := benchEvalConfig(alg)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := EvaluateVehicleContext(context.Background(), d, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkForecastHorizon measures iterated multi-step forecasting;
// the Plan refactor replaces the per-step O(n) dataset clone with a
// single extension mutated in place.
func BenchmarkForecastHorizon(b *testing.B) {
	d := testDataset(b, 78, 420)
	cfg := benchEvalConfig(regress.AlgLinear)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ForecastHorizon(d, cfg, 14, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForecastInterval measures the calibrated-interval path;
// post-refactor it shares one Plan between the evaluation pass and the
// forecast fit instead of compiling the pipeline twice.
func BenchmarkForecastInterval(b *testing.B) {
	d := testDataset(b, 79, 420)
	cfg := benchEvalConfig(regress.AlgLinear)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ForecastInterval(d, cfg, 0.8); err != nil {
			b.Fatal(err)
		}
	}
}

// compiledPlan keeps BenchmarkForecastCompile's result alive.
var compiledPlan *Plan

// BenchmarkForecastCompile measures the compilation a cold forecast
// pays on a study-length (1 369-day) series: the full plan
// NewPlanContext builds, and the forecast plan NewForecastPlanContext
// builds over the last W+MaxLag days. Numbers are recorded in
// BENCH_plan.json.
func BenchmarkForecastCompile(b *testing.B) {
	d := testDataset(b, 80, 1369)
	cfg := benchEvalConfig(regress.AlgLinear)
	for _, bc := range []struct {
		name    string
		compile func(context.Context, *etl.VehicleDataset, Config) (*Plan, error)
	}{{"full", NewPlanContext}, {"tail", NewForecastPlanContext}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p, err := bc.compile(context.Background(), d, cfg)
				if err != nil {
					b.Fatal(err)
				}
				compiledPlan = p
			}
		})
	}
}
