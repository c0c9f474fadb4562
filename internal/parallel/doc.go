// Package parallel is the sweep engine behind the paper's evaluation
// campaign: a bounded worker pool with context cancellation,
// first-error propagation and order-preserving result collection.
//
// The campaign of Section 4 (Figures 4-6 and the Section 4.5 timing
// table) is an embarrassingly parallel fan-out — per-vehicle ×
// per-algorithm × per-grid-point runs of the same rolling-window
// evaluation — and every one of those fan-outs runs through [ForEach]
// or [Map]: the per-vehicle loop of
// [vup/internal/core.EvaluateFleetContext], the hold-out windows of one
// vehicle's evaluation in [vup/internal/core.Plan.EvaluateContext]
// (stage "evaluate_windows"), the per-unit simulation of the
// [vup/internal/fleet] generator, and the per-algorithm and per-search
// loops of [vup/internal/experiments]. The pools nest: a fleet sweep's
// vehicle jobs each run a window pool of their own.
//
// Determinism is the design constraint, not throughput: a parallel run
// must be byte-identical to the sequential one. The rules that make
// that hold (RNG streams split in a fixed pre-fan-out order, results
// written into pre-sized slices by index, deterministic aggregation
// after the barrier) are stated on [ForEach] and enforced by the
// determinism tests in vup/internal/experiments, which compare
// Workers=1 against Workers=4 reports.
//
// Every job is measured: the pool feeds the sweep_jobs_in_flight gauge
// and the per-stage sweep_job_seconds histogram of
// [vup/internal/obs], giving the Section 4.5 analysis a live
// sequential-cost-vs-wall-clock speedup signal.
package parallel
