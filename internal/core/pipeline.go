package core

import (
	"context"
	"fmt"
	"time"

	"vup/internal/etl"
	"vup/internal/regress"
)

// Prediction is one evaluated test day.
type Prediction struct {
	// Index is the day index in the scenario view of the series.
	Index int
	// Date is the calendar date of the predicted day.
	Date time.Time
	// Actual and Predicted are utilization hours.
	Actual, Predicted float64
	// Lags are the selected lags used for this window.
	Lags []int
}

// Result is the evaluation outcome for one vehicle.
type Result struct {
	VehicleID   string
	Algorithm   regress.Algorithm
	Scenario    Scenario
	Predictions []Prediction
	// PE is the per-vehicle Percentage Error over all predictions
	// (evaluation step 5).
	PE float64
	// MAE is the mean absolute error in hours.
	MAE float64
	// SkippedWindows counts windows skipped for lack of training rows.
	SkippedWindows int
}

// scenarioView applies the scenario transformation: for NextWorkingDay
// the idle days are removed so "the next day" in the compacted series
// is the next working day.
func scenarioView(d *etl.VehicleDataset, cfg Config) (*etl.VehicleDataset, error) {
	if cfg.Scenario == NextDay {
		return d, nil
	}
	var keep []int
	for i, h := range d.Hours {
		if h >= cfg.ActiveThreshold {
			keep = append(keep, i)
		}
	}
	if len(keep) == 0 {
		return nil, fmt.Errorf("core: vehicle %s has no working days above %v hours", d.VehicleID, cfg.ActiveThreshold)
	}
	return d.Subset(keep)
}

// EvaluateVehicleContext runs the full hold-out evaluation of Section
// 4.1 on one vehicle: enumerate the train/test windows, re-run feature
// selection and model training per window, predict each test day and
// aggregate the per-vehicle PE. It compiles a Plan and runs it; use
// NewPlanContext directly to share the compiled features with a
// forecast or interval on the same vehicle. The plan compilation and
// hold-out run appear as child spans of an active trace in ctx.
func EvaluateVehicleContext(ctx context.Context, d *etl.VehicleDataset, cfg Config) (*Result, error) {
	p, err := NewPlanContext(ctx, d, cfg)
	if err != nil {
		return nil, err
	}
	return p.EvaluateContext(ctx)
}

// viewDate returns the calendar date of a view day. Compacted views
// carry explicit per-day dates (etl.VehicleDataset.Dates), so this is
// exact for both scenarios.
func viewDate(view *etl.VehicleDataset, i int) time.Time {
	return view.Date(i)
}

// Forecast trains on the most recent window of the dataset (under the
// given scenario) and predicts the next upcoming day: the next
// calendar day for NextDay, the next working day for NextWorkingDay.
// It returns the predicted utilization hours and the feature lags
// used. Config.TargetChannels default to zero for the unknown next
// day; use ForecastWith to supply known values (e.g. the weather
// forecast).
func Forecast(d *etl.VehicleDataset, cfg Config) (float64, []int, error) {
	return ForecastWith(d, cfg, nil)
}

// ForecastWith is Forecast with known target-day channel values (for
// channels listed in cfg.TargetChannels), such as tomorrow's weather
// forecast.
func ForecastWith(d *etl.VehicleDataset, cfg Config, target map[string]float64) (float64, []int, error) {
	ctx := context.Background()
	p, err := NewForecastPlanContext(ctx, d, cfg)
	if err != nil {
		return 0, nil, err
	}
	f, err := p.FitContext(ctx)
	if err != nil {
		return 0, nil, err
	}
	hours, err := f.ForecastContext(ctx, target)
	if err != nil {
		return 0, nil, err
	}
	return hours, f.Lags(), nil
}

// ForecastHorizon predicts the next h days (NextDay scenario) or the
// next h working days (NextWorkingDay) by iterated one-step
// forecasting: each predicted day becomes lag input for the following
// step. The model is trained once on the most recent window; per-step
// target-channel values (e.g. a weather forecast per day) can be
// supplied via targets, indexed by step.
func ForecastHorizon(d *etl.VehicleDataset, cfg Config, h int, targets []map[string]float64) ([]float64, error) {
	if h <= 0 {
		return nil, fmt.Errorf("%w: horizon %d", ErrConfig, h)
	}
	ctx := context.Background()
	p, err := NewForecastPlanContext(ctx, d, cfg)
	if err != nil {
		return nil, err
	}
	f, err := p.FitContext(ctx)
	if err != nil {
		return nil, err
	}
	return f.HorizonContext(ctx, h, targets)
}
