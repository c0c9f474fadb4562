// Package core implements the paper's primary contribution (Section 3
// and the evaluation procedure of Section 4.1): the per-vehicle
// utilization-hours prediction pipeline. For each vehicle it generates
// training data with the sliding-window approach, selects the K most
// autocorrelated lags (delegated to [vup/internal/featsel]), trains a
// regression model from [vup/internal/regress], predicts the next
// (working) day and evaluates the Percentage Error under the sliding-
// or expanding-window hold-out strategies of Figure 3
// ([vup/internal/timeseries]).
//
// The pipeline is compiled, then driven. [NewPlanContext] builds a
// [Plan] once per (dataset, Config) pair: the validated configuration,
// the scenario view of the series (Section 3's next-day vs
// next-working-day targets) and a one-pass lag-superset feature
// materialization ([vup/internal/featsel.MaterializeContext]) holding
// every feature any training window could select. The paper's
// per-window steps then run over the plan: [Plan.EvaluateContext]
// re-ranks lags and gathers each window's matrix from the superset by
// block copies (feature generation + selection, Section 4.1 steps
// 1-3), running the independent windows on GOMAXPROCS workers and
// merging them in window order, [Plan.FitContext] trains the most-recent-window model and
// returns a [Fitted] artifact (step 4 for serving), and
// [Plan.ForecastIntervalContext] calibrates a residual-quantile band
// from a single evaluation pass (goal iii). [Fitted.ForecastContext]
// and [Fitted.HorizonContext] predict phantom next days — the horizon
// mutates one reusable extension in place, feeding each prediction
// back as lag input for the following step. Every step takes a
// context; an active trace span in it records the step as a child.
//
// A forecast under the sliding strategy reads only the last W+MaxLag
// view rows, so [NewForecastPlanContext] compiles a forecast plan over
// a copy of just those rows: fits and forecasts bit-identical to the
// full plan's at O((W+MaxLag)×F) memory whatever the series length.
// [Plan.ExtendContext] grows either kind of plan over appended days;
// a forecast plan refuses evaluation.
//
// [EvaluateVehicleContext] is the unit of work of the whole evaluation
// campaign — a thin driver that compiles a Plan and runs it, as are
// [Forecast], [ForecastHorizon] and [ForecastInterval].
// [EvaluateFleetContext] fans it out over the vehicles on the bounded
// worker pool of [vup/internal/parallel] and aggregates the per-vehicle
// errors deterministically (evaluation step 6), feeding the Figure 4
// sweep, the Figure 5 comparison and the by-type table that
// [vup/internal/experiments] renders. Callers serving several
// pipeline products for one vehicle (the HTTP API's forecast +
// horizon + evaluation endpoints) compile once and share the Plan or
// cache the Fitted artifact; both are safe for concurrent use.
//
// Every feature materialization, per-window matrix gather, fit and
// predict is timed into the [vup/internal/obs] stage histograms — the
// live Section 4.5 table.
package core
