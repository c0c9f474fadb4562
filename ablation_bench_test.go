package vup

// Ablation benchmarks for the design choices DESIGN.md calls out:
// autocorrelation-based lag selection vs naive first-K lags, the
// contextual enrichment, the SVR kernel-matrix precomputation and the
// per-window retraining cost of the two evaluation strategies. These
// measure end-to-end evaluation cost; the corresponding accuracy
// ablations live in the experiments (fig4, ext-weather).

import (
	"context"
	"testing"
	"time"

	"vup/internal/canbus"
	"vup/internal/core"
	"vup/internal/etl"
	"vup/internal/fleet"
	"vup/internal/randx"
	"vup/internal/regress"
	"vup/internal/telematics"
	"vup/internal/timeseries"
)

func ablationDataset(b *testing.B) *etl.VehicleDataset {
	b.Helper()
	fc := SmallFleet()
	fc.Units = 1
	fc.Days = 500
	ds, err := GenerateDatasets(fc, 3)
	if err != nil {
		b.Fatal(err)
	}
	return ds[0]
}

func ablationConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Algorithm = regress.AlgLasso
	cfg.W = 120
	cfg.K = 10
	cfg.MaxLag = 28
	cfg.Stride = 10
	cfg.Channels = []string{canbus.ChanFuelRate, canbus.ChanEngineSpeed}
	return cfg
}

func benchEvaluate(b *testing.B, cfg core.Config) {
	d := ablationDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.EvaluateVehicleContext(context.Background(), d, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationACFSelection is the default pipeline: K lags picked
// by autocorrelation out of the MaxLag budget.
func BenchmarkAblationACFSelection(b *testing.B) {
	benchEvaluate(b, ablationConfig())
}

// BenchmarkAblationNaiveLags disables the selection by collapsing the
// budget to K (lags 1..K), the "no smart selection" reference of
// Figure 4.
func BenchmarkAblationNaiveLags(b *testing.B) {
	cfg := ablationConfig()
	cfg.MaxLag = cfg.K
	benchEvaluate(b, cfg)
}

// BenchmarkAblationAllLags uses every lag in the budget (K = MaxLag),
// the paper's "very large number of features" regime.
func BenchmarkAblationAllLags(b *testing.B) {
	cfg := ablationConfig()
	cfg.K = cfg.MaxLag
	benchEvaluate(b, cfg)
}

// BenchmarkAblationNoContext drops the contextual enrichment features.
func BenchmarkAblationNoContext(b *testing.B) {
	cfg := ablationConfig()
	cfg.IncludeContext = false
	benchEvaluate(b, cfg)
}

// BenchmarkAblationExpandingWindow measures the expanding-window
// strategy's extra training cost (Section 4.3: "performs better, but
// at the cost of additional computational complexity").
func BenchmarkAblationExpandingWindow(b *testing.B) {
	cfg := ablationConfig()
	cfg.Strategy = timeseries.Expanding
	benchEvaluate(b, cfg)
}

// BenchmarkAblationRandomForest measures the cross-study baseline.
func BenchmarkAblationRandomForest(b *testing.B) {
	x, y := benchTrainingData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := regress.NewRandomForest()
		if err := m.Fit(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationRidge measures the closed-form regularized model.
func BenchmarkAblationRidge(b *testing.B) {
	x, y := benchTrainingData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := regress.NewRidge()
		if err := m.Fit(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTelematicsDay measures the frame-level acquisition path for
// one vehicle-day at a 1-minute sample period.
func BenchmarkTelematicsDay(b *testing.B) {
	rng := randx.New(5)
	v := fleet.Vehicle{ID: "bench", Model: fleet.Model{Type: fleet.Grader, Index: 0}, Country: "IT"}
	dev := telematics.NewDevice(v, rng.Split())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reports, err := dev.SimulateDay(fleet.StudyStart.AddDate(0, 0, i%365), 6, time.Minute)
		if err != nil {
			b.Fatal(err)
		}
		if len(reports) == 0 {
			b.Fatal("no reports")
		}
	}
}
