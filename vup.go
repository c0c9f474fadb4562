// Package vup (Vehicle Usage Prediction) is the public facade of this
// repository's reproduction of "Heterogeneous Industrial Vehicle Usage
// Predictions: A Real Case" (EDBT/ICDT Workshops 2019).
//
// The library predicts the daily utilization hours of industrial and
// construction vehicles from CAN bus telematics enriched with
// contextual information. Per vehicle, it generates training data with
// a sliding window, selects the K most autocorrelated lags, trains one
// of six regression models (LV, MA, LR, Lasso, SVR, GB) and evaluates
// the Percentage Error under sliding- or expanding-window hold-out.
//
// Because the study's industrial dataset is proprietary, the library
// ships a statistically calibrated synthetic fleet (see internal/fleet
// and DESIGN.md) plus the full telematics substrate — CAN frames,
// J1939-style signal packing, 10-minute report aggregation, lossy
// uplink and the five-step ETL pipeline — so the entire methodology
// runs end to end.
//
// Quickstart:
//
//	ds, _ := vup.GenerateDatasets(vup.SmallFleet(), 1)
//	cfg := vup.DefaultConfig()
//	cfg.Algorithm = vup.AlgGB
//	res, _ := vup.Evaluate(ds[0], cfg)
//	fmt.Printf("PE = %.1f%%\n", res.PE)
//	next, _, _ := vup.Forecast(ds[0], cfg)
package vup

import (
	"context"
	"io"

	"vup/internal/core"
	"vup/internal/etl"
	"vup/internal/experiments"
	"vup/internal/fleet"
	"vup/internal/randx"
	"vup/internal/regress"
	"vup/internal/timeseries"
)

// Re-exported types. The aliases keep the full method sets available
// through the facade.
type (
	// Dataset is a per-vehicle daily relation of utilization hours,
	// CAN channel aggregates and contextual features.
	Dataset = etl.VehicleDataset
	// Config parameterizes the prediction pipeline.
	Config = core.Config
	// Result is a per-vehicle evaluation outcome.
	Result = core.Result
	// FleetResult aggregates per-vehicle evaluations.
	FleetResult = core.FleetResult
	// Prediction is one evaluated test day.
	Prediction = core.Prediction
	// Scenario selects next-day or next-working-day prediction.
	Scenario = core.Scenario
	// Algorithm identifies a regression algorithm.
	Algorithm = regress.Algorithm
	// Regressor is the supervised regression interface.
	Regressor = regress.Regressor
	// FleetConfig parameterizes synthetic fleet generation.
	FleetConfig = fleet.Config
	// Strategy selects the sliding or expanding training window.
	Strategy = timeseries.Strategy
	// ExperimentConfig scales an experiment run.
	ExperimentConfig = experiments.Config
	// ExperimentReport is a regenerated figure or table.
	ExperimentReport = experiments.Report
)

// Scenarios.
const (
	NextDay        = core.NextDay
	NextWorkingDay = core.NextWorkingDay
)

// Window strategies.
const (
	Sliding   = timeseries.Sliding
	Expanding = timeseries.Expanding
)

// Algorithms compared in the paper.
const (
	AlgLastValue     = regress.AlgLastValue
	AlgMovingAverage = regress.AlgMovingAverage
	AlgLinear        = regress.AlgLinear
	AlgLasso         = regress.AlgLasso
	AlgSVR           = regress.AlgSVR
	AlgGB            = regress.AlgGB
)

// DefaultConfig returns the paper's recommended pipeline settings
// (SVR, K=20, w=140, sliding window, next-day scenario).
func DefaultConfig() Config { return core.DefaultConfig() }

// Algorithms returns the six algorithms of the paper's comparison.
func Algorithms() []Algorithm { return regress.Algorithms() }

// NewRegressor constructs a regressor with the paper's defaults.
func NewRegressor(a Algorithm) (Regressor, error) { return regress.New(a) }

// SaveModel serializes a trained regressor as JSON, so forecasts can
// be served without refitting.
func SaveModel(w io.Writer, m Regressor) error { return regress.Save(w, m) }

// LoadModel reads a model saved by SaveModel, ready to predict.
func LoadModel(r io.Reader) (Regressor, error) { return regress.Load(r) }

// StudyFleet returns the full study-scale fleet configuration:
// 2 239 vehicles observed 2015-01-01 to 2018-09-30.
func StudyFleet() FleetConfig { return fleet.DefaultConfig() }

// SmallFleet returns a laptop-scale fleet configuration for examples
// and experimentation.
func SmallFleet() FleetConfig { return fleet.SmallConfig() }

// GenerateDatasets generates a synthetic fleet and builds the
// per-vehicle daily dataset for every unit. seed drives the per-day
// sensor noise independently of the fleet seed.
func GenerateDatasets(cfg FleetConfig, seed int64) ([]*Dataset, error) {
	f, err := fleet.Generate(cfg)
	if err != nil {
		return nil, err
	}
	usage := f.SimulateAll()
	rng := randx.New(seed)
	out := make([]*Dataset, 0, len(f.Units))
	for _, u := range f.Units {
		d, err := etl.FromUsage(u, usage[u.Vehicle.ID], rng.Split())
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}

// Evaluate runs the hold-out evaluation on one vehicle.
func Evaluate(d *Dataset, cfg Config) (*Result, error) {
	return core.EvaluateVehicleContext(context.Background(), d, cfg)
}

// EvaluateFleet evaluates every dataset concurrently and aggregates
// the per-vehicle Percentage Errors.
func EvaluateFleet(ds []*Dataset, cfg Config, workers int) (*FleetResult, error) {
	return core.EvaluateFleetContext(context.Background(), ds, cfg, workers)
}

// Forecast trains on the most recent window and predicts the next
// (working) day's utilization hours.
func Forecast(d *Dataset, cfg Config) (hours float64, lags []int, err error) {
	return core.Forecast(d, cfg)
}

// Experiments returns the IDs of every reproducible figure/table.
func Experiments() []string { return experiments.IDs() }

// RunExperiment regenerates one of the paper's figures or tables.
func RunExperiment(id string, cfg ExperimentConfig) (*ExperimentReport, error) {
	return experiments.RunContext(context.Background(), id, cfg)
}

// SmallExperiments returns the laptop-scale experiment configuration.
func SmallExperiments() ExperimentConfig { return experiments.Small() }

// FullExperiments returns the study-scale experiment configuration.
func FullExperiments() ExperimentConfig { return experiments.Full() }
