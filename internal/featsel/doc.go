// Package featsel implements the statistics-based feature selection of
// Section 3 (the "smart selection" whose payoff Figure 4 sweeps over K
// and w): the autocorrelation function of the training window's
// utilization series ranks the lags, the K most-correlated days are
// kept, and the training matrix is assembled from the utilization
// hours and CAN channel values ([vup/internal/canbus]) at the selected
// lags plus the target day's contextual features.
//
// [SelectLags] and [Spec] are re-run per training window by
// [vup/internal/core.EvaluateVehicleContext] — feature selection is
// inside the hold-out loop, as Section 4.1 requires — and the
// selection is a pure function of the window, so the parallel sweeps
// of [vup/internal/experiments] reproduce sequential feature sets
// exactly. The ACF itself lives in [vup/internal/stats].
//
// [Spec] assembles rows from the dataset maps one at a time; it is the
// reference. The compiled pipeline uses [Materialized] instead
// ([MaterializeContext]): it resolves the dataset's columns once and
// gathers rows straight from them, value-identical to Spec, without
// copying the series. The context encoding of a gathered row is copied
// from a table of every calendar context, built once per process and
// indexed by the day's packed [vup/internal/etl.Context] class.
package featsel
