package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"vup/internal/etl"
	"vup/internal/parallel"
	"vup/internal/stats"
)

// FleetResult aggregates per-vehicle evaluations (evaluation step 6:
// "evaluate the overall prediction error by averaging the prediction
// errors over all the vehicles").
type FleetResult struct {
	Results []*Result
	// MeanPE is the average of the per-vehicle Percentage Errors
	// (NaN-PE vehicles excluded).
	MeanPE float64
	// MedianPE is the median per-vehicle PE.
	MedianPE float64
	// PEs are the finite per-vehicle PE values, one per evaluated
	// vehicle, for distribution plots (Figure 5).
	PEs []float64
	// Failed maps vehicle IDs to the error that prevented their
	// evaluation (e.g. too little data for the window).
	Failed map[string]error
}

// EvaluateFleetContext evaluates cfg on every dataset through the
// bounded worker pool of vup/internal/parallel (<=0 workers selects
// GOMAXPROCS; each vehicle's evaluation fans its windows out on a pool
// of its own). Vehicles that cannot be evaluated (short series,
// all-idle) are collected in Failed rather than aborting the fleet
// run. The pool derives per-worker contexts from ctx, so when it
// carries an active trace the per-vehicle evaluations appear as
// (concurrent) child spans.
//
// The result is deterministic in the inputs and independent of
// workers: per-vehicle outcomes land in pre-sized slices by index and
// are aggregated in dataset order after the pool drains, so a
// workers=N run is byte-identical to the sequential one.
func EvaluateFleetContext(ctx context.Context, datasets []*etl.VehicleDataset, cfg Config, workers int) (*FleetResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(datasets) == 0 {
		return nil, fmt.Errorf("%w: empty fleet", ErrNoPredictions)
	}
	results := make([]*Result, len(datasets))
	failures := make([]error, len(datasets))
	err := parallel.ForEach(ctx, len(datasets),
		parallel.Options{Workers: workers, Stage: cfg.stage()},
		func(ctx context.Context, i int) error {
			// Per-vehicle failures are data conditions, not pool
			// errors: record them by index and keep the fan-out alive.
			results[i], failures[i] = EvaluateVehicleContext(ctx, datasets[i], cfg)
			return nil
		})
	if err != nil {
		return nil, err
	}

	fr := &FleetResult{Failed: map[string]error{}}
	for i, res := range results {
		if failures[i] != nil {
			fr.Failed[datasets[i].VehicleID] = failures[i]
			continue
		}
		fr.Results = append(fr.Results, res)
		if !isNaN(res.PE) {
			fr.PEs = append(fr.PEs, res.PE)
		}
	}
	if len(fr.PEs) == 0 {
		return nil, fmt.Errorf("%w: no vehicle produced a finite PE", ErrNoPredictions)
	}
	sort.Float64s(fr.PEs)
	fr.MeanPE = stats.Mean(fr.PEs)
	fr.MedianPE = stats.Median(fr.PEs)
	return fr, nil
}

func isNaN(v float64) bool { return math.IsNaN(v) }
