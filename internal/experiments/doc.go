// Package experiments regenerates every table and figure of the
// paper's evaluation (Section 4) on the synthetic fleet of
// [vup/internal/fleet]:
//
//   - fig1a-fig1d — the data characterization of Figure 1 (Section 2)
//   - fig2 — the autocorrelation example of Figure 2
//   - fig3 — the sliding-vs-expanding window sketch of Figure 3
//   - fig4 — the K×w parameter sweep of Figure 4 (Section 4.3)
//   - fig5a/fig5b — the algorithm comparison of Figure 5 (Section 4.4)
//   - fig6a/fig6b — the predicted-vs-actual series of Figure 6
//   - tuning — the hyper-parameter grid search of Section 4.2
//   - timing — the training-time table of Section 4.5
//   - by-type — goal (iv), the best model across vehicle types
//   - ext-weather / ext-levels — the paper's future-work extensions
//
// Each experiment returns structured rows (for CSV) plus an ASCII
// rendering; EXPERIMENTS.md holds the figure ↔ command crosswalk and
// the measured-vs-published comparison.
//
// The runners drive [vup/internal/core.EvaluateFleetContext] over the
// per-vehicle datasets and fan their per-algorithm and per-search
// loops out on [vup/internal/parallel]. Reports are byte-identical for
// any Config.Workers value: per-vehicle dataset RNGs are split in a
// fixed pre-fan-out order (see splitUnitRNGs) and all aggregation runs
// in index order after the pool drains — the property the
// TestDeterminism tests pin down.
package experiments
