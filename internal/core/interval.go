package core

import (
	"context"
	"fmt"
	"math"

	"vup/internal/etl"
	"vup/internal/stats"
)

// Interval is a forecast with an empirical confidence band, addressing
// the paper's goal (iii): "estimate the prediction errors to get
// confidence intervals for the estimations".
type Interval struct {
	// Hours is the point forecast.
	Hours float64
	// Lo and Hi bound the central Level mass of the empirical
	// residual distribution around the forecast, clamped to [0, 24].
	Lo, Hi float64
	// Level is the nominal coverage (e.g. 0.8).
	Level float64
	// Residuals is the number of hold-out residuals behind the band.
	Residuals int
	// Lags are the selected feature lags of the point forecast.
	Lags []int
}

// ResidualQuantiles returns the lo and hi quantiles of the signed
// hold-out residuals (actual − predicted) for the central level mass.
func ResidualQuantiles(res *Result, level float64) (lo, hi float64, err error) {
	if level <= 0 || level >= 1 {
		return 0, 0, fmt.Errorf("%w: interval level %v", ErrConfig, level)
	}
	if len(res.Predictions) == 0 {
		return 0, 0, ErrNoPredictions
	}
	residuals := make([]float64, len(res.Predictions))
	for i, p := range res.Predictions {
		residuals[i] = p.Actual - p.Predicted
	}
	alpha := (1 - level) / 2
	return stats.Quantile(residuals, alpha), stats.Quantile(residuals, 1-alpha), nil
}

// ForecastInterval produces the next-day point forecast together with
// an empirical confidence band calibrated on the vehicle's own
// hold-out residuals: the same per-vehicle evaluation that produces
// the PE also yields the residual distribution, whose central quantile
// range is re-centred on the new forecast.
func ForecastInterval(d *etl.VehicleDataset, cfg Config, level float64) (*Interval, error) {
	ctx := context.Background()
	p, err := NewPlanContext(ctx, d, cfg)
	if err != nil {
		return nil, err
	}
	return p.ForecastIntervalContext(ctx, level)
}

// ForecastIntervalContext runs the calibrated-interval path over one
// compiled plan: a single evaluation pass yields the residual
// distribution, and one additional fit on the most recent window
// (which reaches one day further than the evaluation's final window)
// yields the point forecast the quantile band is centred on. The
// pipeline is compiled once — no second pass over the dataset. The
// evaluation, fit and prediction appear as child spans of an active
// trace in ctx.
func (p *Plan) ForecastIntervalContext(ctx context.Context, level float64) (*Interval, error) {
	res, err := p.EvaluateContext(ctx)
	if err != nil {
		return nil, err
	}
	lo, hi, err := ResidualQuantiles(res, level)
	if err != nil {
		return nil, err
	}
	f, err := p.FitContext(ctx)
	if err != nil {
		return nil, err
	}
	hours, err := f.ForecastContext(ctx, nil)
	if err != nil {
		return nil, err
	}
	iv := &Interval{
		Hours:     hours,
		Lo:        math.Max(0, hours+lo),
		Hi:        math.Min(24, hours+hi),
		Level:     level,
		Residuals: len(res.Predictions),
		Lags:      f.Lags(),
	}
	return iv, nil
}

// Coverage computes the empirical coverage of residual-quantile bands
// on the hold-out predictions themselves (leave-one-out style
// diagnostic): the fraction of predictions whose actual value falls
// inside pred+[lo, hi].
func Coverage(res *Result, level float64) (float64, error) {
	lo, hi, err := ResidualQuantiles(res, level)
	if err != nil {
		return 0, err
	}
	inside := 0
	for _, p := range res.Predictions {
		if p.Actual >= p.Predicted+lo-1e-9 && p.Actual <= p.Predicted+hi+1e-9 {
			inside++
		}
	}
	return float64(inside) / float64(len(res.Predictions)), nil
}
