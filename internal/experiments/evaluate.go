package experiments

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"time"

	"vup/internal/core"
	"vup/internal/etl"
	"vup/internal/featsel"
	"vup/internal/parallel"
	"vup/internal/regress"
	"vup/internal/stats"
	"vup/internal/textplot"
)

func init() {
	register("fig4", "Prediction error vs number of selected days K, per window size w", runFig4)
	register("fig5a", "Algorithm comparison, next-day scenario", runFig5a)
	register("fig5b", "Algorithm comparison, next-working-day scenario", runFig5b)
	register("fig6a", "Predicted vs actual utilization, next-day scenario", runFig6a)
	register("fig6b", "Predicted vs actual utilization, next-working-day scenario", runFig6b)
	register("timing", "Per-algorithm training time (Section 4.5)", runTiming)
}

// pipelineConfig maps an experiment configuration onto the core
// pipeline settings. stage labels the evaluation's worker-pool
// telemetry and is normally the experiment id.
func pipelineConfig(cfg Config, alg regress.Algorithm, scenario core.Scenario, stage string) core.Config {
	pc := core.DefaultConfig()
	pc.Algorithm = alg
	pc.Scenario = scenario
	pc.W = cfg.W
	pc.K = cfg.K
	pc.MaxLag = cfg.MaxLag
	pc.Channels = cfg.Channels
	pc.Stride = cfg.Stride
	pc.Stage = stage
	return pc
}

func runFig4(ctx context.Context, cfg Config) (*Report, error) {
	datasets, err := evalDatasets(cfg)
	if err != nil {
		return nil, err
	}
	// The sweep uses Lasso: fast enough for the grid and regularized,
	// so the error trend over K reflects the information in the
	// selected lags rather than raw over-parameterization.
	ks := filterLE([]int{2, 5, 10, 15, 20, 30, 40}, cfg.MaxLag)
	ws := filterLE([]int{30, 60, 100, 140}, cfg.W)
	if len(ws) == 0 || ws[len(ws)-1] != cfg.W {
		ws = append(ws, cfg.W)
	}

	table := Table{Name: "fig4_sweep", Header: []string{"w", "K", "mean_pe", "vehicles"}}
	var lines []textplot.Line
	for _, w := range ws {
		var xs, ys []float64
		for _, k := range ks {
			pc := pipelineConfig(cfg, regress.AlgLasso, core.NextDay, "fig4")
			pc.W = w
			pc.K = k
			fr, err := core.EvaluateFleetContext(ctx, datasets, pc, cfg.Workers)
			if err != nil {
				continue // window too large for this scale
			}
			xs = append(xs, float64(k))
			ys = append(ys, fr.MeanPE)
			table.Rows = append(table.Rows, []string{
				strconv.Itoa(w), strconv.Itoa(k), fmtF(fr.MeanPE), strconv.Itoa(len(fr.PEs)),
			})
		}
		if len(xs) > 0 {
			lines = append(lines, textplot.Line{Name: fmt.Sprintf("w=%d", w), X: xs, Y: ys})
		}
	}
	if len(table.Rows) == 0 {
		return nil, fmt.Errorf("experiments: fig4 produced no sweep points (datasets too short for every w)")
	}
	rep := &Report{ID: "fig4", Title: Title("fig4")}
	rep.Text = textplot.LinePlot("mean PE (%) vs K, one curve per window size w", lines, 64, 16)
	rep.Tables = append(rep.Tables, table)
	return rep, nil
}

func filterLE(vals []int, limit int) []int {
	var out []int
	for _, v := range vals {
		if v <= limit {
			out = append(out, v)
		}
	}
	return out
}

// runFig5 is the shared algorithm-comparison runner.
func runFig5(ctx context.Context, cfg Config, scenario core.Scenario, id string) (*Report, error) {
	datasets, err := evalDatasets(cfg)
	if err != nil {
		return nil, err
	}
	table := Table{Name: id + "_errors", Header: []string{"algorithm", "mean_pe", "median_pe", "p25_pe", "p75_pe", "vehicles", "failed"}}
	// Outer fan-out over the six algorithms; each job fans out again
	// over the vehicles inside EvaluateFleet. Results come back in
	// algorithm order, so the table and plots below are byte-identical
	// at any worker count.
	algs := regress.Algorithms()
	frs, err := parallel.Map(ctx, len(algs),
		parallel.Options{Workers: cfg.Workers, Stage: id},
		func(ctx context.Context, i int) (*core.FleetResult, error) {
			pc := pipelineConfig(cfg, algs[i], scenario, id)
			fr, err := core.EvaluateFleetContext(ctx, datasets, pc, cfg.Workers)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s with %s: %w", id, algs[i], err)
			}
			return fr, nil
		})
	if err != nil {
		return nil, err
	}
	var labels []string
	var boxes []stats.BoxStats
	var means []float64
	for i, fr := range frs {
		box, err := stats.Box(fr.PEs)
		if err != nil {
			return nil, err
		}
		labels = append(labels, string(algs[i]))
		boxes = append(boxes, box)
		means = append(means, fr.MeanPE)
		table.Rows = append(table.Rows, []string{
			string(algs[i]), fmtF(fr.MeanPE), fmtF(fr.MedianPE),
			fmtF(stats.Quantile(fr.PEs, 0.25)), fmtF(stats.Quantile(fr.PEs, 0.75)),
			strconv.Itoa(len(fr.PEs)), strconv.Itoa(len(fr.Failed)),
		})
	}
	rep := &Report{ID: id, Title: Title(id)}
	rep.Text = textplot.Histogram(
		fmt.Sprintf("mean PE (%%) per algorithm, %s scenario", scenario),
		labels, means, 40) +
		"\n" + textplot.BoxStrip("per-vehicle PE distribution (%)", labels, boxes, 52)
	rep.Tables = append(rep.Tables, table)
	return rep, nil
}

func runFig5a(ctx context.Context, cfg Config) (*Report, error) {
	return runFig5(ctx, cfg, core.NextDay, "fig5a")
}
func runFig5b(ctx context.Context, cfg Config) (*Report, error) {
	return runFig5(ctx, cfg, core.NextWorkingDay, "fig5b")
}

// runFig6 renders predicted vs actual for one unit under the given
// scenario using the paper's best single model (SVR).
func runFig6(ctx context.Context, cfg Config, scenario core.Scenario, id string) (*Report, error) {
	datasets, err := evalDatasets(cfg)
	if err != nil {
		return nil, err
	}
	pc := pipelineConfig(cfg, regress.AlgSVR, scenario, id)
	// The figure plots a contiguous stretch of days, so the evaluation
	// stride does not apply; at most ~60 days are plotted regardless
	// of scale.
	pc.Stride = 1
	var res *core.Result
	var used *etl.VehicleDataset
	for _, d := range datasets {
		if res, err = core.EvaluateVehicleContext(ctx, d, pc); err == nil {
			used = d
			break
		}
	}
	if res == nil {
		return nil, fmt.Errorf("experiments: %s: no evaluable vehicle: %v", id, err)
	}
	preds := res.Predictions
	if len(preds) > 60 {
		preds = preds[len(preds)-60:]
	}
	var xs, actual, predicted []float64
	table := Table{Name: id + "_series", Header: []string{"date", "actual_hours", "predicted_hours"}}
	for i, p := range preds {
		xs = append(xs, float64(i))
		actual = append(actual, p.Actual)
		predicted = append(predicted, p.Predicted)
		table.Rows = append(table.Rows, []string{p.Date.Format("2006-01-02"), fmtF(p.Actual), fmtF(p.Predicted)})
	}
	pe, err := core.PE(predicted, actual)
	if err != nil {
		return nil, err
	}
	rep := &Report{ID: id, Title: Title(id)}
	rep.Text = textplot.LinePlot(
		fmt.Sprintf("%s, unit %s, SVR, PE=%.1f%% (evaluated days on x)", scenario, used.VehicleID, pe),
		[]textplot.Line{
			{Name: "actual", X: xs, Y: actual, Marker: 'a'},
			{Name: "predicted", X: xs, Y: predicted, Marker: 'p'},
		}, 70, 16)
	rep.Tables = append(rep.Tables, table)
	return rep, nil
}

func runFig6a(ctx context.Context, cfg Config) (*Report, error) {
	return runFig6(ctx, cfg, core.NextDay, "fig6a")
}
func runFig6b(ctx context.Context, cfg Config) (*Report, error) {
	return runFig6(ctx, cfg, core.NextWorkingDay, "fig6b")
}

func runTiming(ctx context.Context, cfg Config) (*Report, error) {
	datasets, err := evalDatasets(cfg)
	if err != nil {
		return nil, err
	}
	d := datasets[0]
	// One training window at the end of the series, the paper's
	// recommended settings scaled to this configuration.
	n := d.Len()
	trainFrom := n - cfg.W
	if trainFrom < 0 {
		trainFrom = 0
	}
	lags := featsel.SelectLags(d.Hours[trainFrom:n], cfg.MaxLag, cfg.K)
	spec := featsel.Spec{Lags: lags, Channels: cfg.Channels, IncludeHours: true, IncludeContext: true}
	x, y, _, err := spec.Matrix(d, trainFrom, n)
	if err != nil {
		return nil, err
	}

	type entry struct {
		alg     regress.Algorithm
		elapsed time.Duration
	}
	table := Table{Name: "timing", Header: []string{"algorithm", "fit_microseconds", "train_rows", "features"}}
	// The six fits run on the pool; concurrent fits contend for cores,
	// but the table's claim is the ordering across orders of magnitude
	// (baselines in microseconds, GB in tens of milliseconds), which
	// contention cannot invert.
	algs := regress.Algorithms()
	entries, err := parallel.Map(ctx, len(algs),
		parallel.Options{Workers: cfg.Workers, Stage: "timing"},
		func(_ context.Context, i int) (entry, error) {
			model, err := regress.New(algs[i])
			if err != nil {
				return entry{}, err
			}
			start := time.Now() //lint:allow determinism timing experiment wall-clock table; documented as machine-dependent, not a figure
			if err := model.Fit(x, y); err != nil {
				return entry{}, fmt.Errorf("experiments: timing %s: %w", algs[i], err)
			}
			return entry{algs[i], time.Since(start)}, nil
		})
	if err != nil {
		return nil, err
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].elapsed < entries[j].elapsed })
	labels := make([]string, len(entries))
	micros := make([]float64, len(entries))
	for i, e := range entries {
		labels[i] = string(e.alg)
		micros[i] = float64(e.elapsed.Microseconds())
		table.Rows = append(table.Rows, []string{
			string(e.alg), strconv.FormatInt(e.elapsed.Microseconds(), 10),
			strconv.Itoa(len(x)), strconv.Itoa(len(x[0])),
		})
	}
	rep := &Report{ID: "timing", Title: Title("timing")}
	rep.Text = textplot.Histogram("single-model training time (µs), ascending", labels, micros, 40)
	rep.Tables = append(rep.Tables, table)
	return rep, nil
}
