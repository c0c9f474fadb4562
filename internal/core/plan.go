package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"vup/internal/etl"
	"vup/internal/featsel"
	"vup/internal/obs/trace"
	"vup/internal/parallel"
	"vup/internal/regress"
	"vup/internal/stats"
	"vup/internal/timeseries"
)

// Plan is the compiled pipeline for one (dataset, Config) pair: the
// validated configuration, the scenario view of the series and the
// lag-superset feature materialization — every feature any training
// window could select, computed once in a single O(n×F) pass. The
// public drivers (EvaluateVehicleContext, Forecast, ForecastHorizon,
// ForecastInterval) are thin wrappers that compile a Plan and run it;
// callers that run several of those on the same vehicle and config
// (the server's evaluate+forecast handlers, the calibrated-interval
// path) compile once and share it.
//
// A Plan is immutable after NewPlanContext and safe for concurrent
// use; the per-window scratch of EvaluateContext comes from a pool
// shared by its workers, and Fitted builds its own per call.
type Plan struct {
	cfg  Config
	d    *etl.VehicleDataset // original dataset: identity + country
	view *etl.VehicleDataset // scenario view of the series
	mat  *featsel.Materialized
}

// NewPlanContext validates the configuration and dataset, applies the
// scenario transformation and materializes the lag-superset features.
// The materialization covers lags up to cfg.MaxLag (clamped to the
// view length), so every per-window lag selection gathers from it by
// block copies instead of re-walking the dataset maps. When ctx
// carries an active trace span, the compilation is recorded as a
// "plan.build" child (with the materialization under it).
func NewPlanContext(ctx context.Context, d *etl.VehicleDataset, cfg Config) (p *Plan, err error) {
	ctx, sp := trace.Start(ctx, "plan.build")
	if sp != nil {
		sp.SetAttr("vehicle", d.VehicleID)
		sp.SetAttr("algorithm", string(cfg.Algorithm))
		defer func() {
			sp.SetError(err)
			sp.End()
		}()
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	view, err := scenarioView(d, cfg)
	if err != nil {
		return nil, err
	}
	maxLag := cfg.MaxLag
	if maxLag > view.Len()-1 {
		maxLag = view.Len() - 1
	}
	if maxLag < 1 {
		maxLag = 1 // degenerate view; windows will refuse their rows
	}
	mt := time.Now() //lint:allow determinism stage timer; feeds pipeline_feature_build_seconds only, never figure bytes
	mat, err := featsel.MaterializeContext(ctx, view, maxLag, cfg.Channels, cfg.IncludeContext, cfg.TargetChannels)
	featureBuildSeconds.With().ObserveSince(mt)
	if err != nil {
		return nil, err
	}
	return &Plan{cfg: cfg, d: d, view: view, mat: mat}, nil
}

// View exposes the scenario view the plan was compiled over.
func (p *Plan) View() *etl.VehicleDataset { return p.view }

// ExtendContext compiles a plan for d — the same vehicle's series with
// days appended, as produced by the streaming-ingest path — by reusing
// the receiver's materialization through featsel.AppendDays instead of
// the full O(n×F) rebuild. The receiver is untouched and stays valid
// for readers holding cached artifacts.
//
// Extension is only sound when the receiver's compiled state is a
// strict prefix of the new one, so ExtendContext refuses (and the
// caller falls back to NewPlanContext) when the vehicle identity
// changed, the series shrank or rewrote history, the scenario view
// dropped previously-kept days, or the clamped lag budget differs —
// the one structural parameter a longer series can move.
func (p *Plan) ExtendContext(ctx context.Context, d *etl.VehicleDataset) (np *Plan, err error) {
	ctx, sp := trace.Start(ctx, "plan.extend")
	if sp != nil {
		sp.SetAttr("vehicle", d.VehicleID)
		defer func() {
			if np != nil {
				sp.SetAttrInt("appended_days", np.view.Len()-p.view.Len())
			}
			sp.SetError(err)
			sp.End()
		}()
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if d.VehicleID != p.d.VehicleID {
		return nil, fmt.Errorf("core: extend plan of %s with dataset of %s", p.d.VehicleID, d.VehicleID)
	}
	if d.Len() < p.d.Len() {
		return nil, fmt.Errorf("core: vehicle %s: series shrank from %d to %d days", d.VehicleID, p.d.Len(), d.Len())
	}
	// The compiled rows embed the old series; any rewrite of the shared
	// prefix invalidates them. Hours also decide next-working-day view
	// membership, so this one check covers both. (Channel prefixes are
	// spot-checked over the lag window inside AppendDays; the ingest
	// path appends to a clone and never rewrites history.)
	if !hoursPrefixEqual(d.Hours, p.d.Hours) {
		return nil, fmt.Errorf("core: vehicle %s: series rewrote history", d.VehicleID)
	}
	view, err := scenarioView(d, p.cfg)
	if err != nil {
		return nil, err
	}
	if view.Len() < p.view.Len() {
		return nil, fmt.Errorf("core: vehicle %s: scenario view shrank from %d to %d days", d.VehicleID, p.view.Len(), view.Len())
	}
	maxLag := p.cfg.MaxLag
	if maxLag > view.Len()-1 {
		maxLag = view.Len() - 1
	}
	if maxLag < 1 {
		maxLag = 1
	}
	if maxLag != p.mat.MaxLag() {
		return nil, fmt.Errorf("core: vehicle %s: lag budget moved from %d to %d, rebuild required", d.VehicleID, p.mat.MaxLag(), maxLag)
	}
	mt := time.Now() //lint:allow determinism stage timer; feeds pipeline_feature_build_seconds only, never figure bytes
	mat, err := p.mat.AppendDays(view)
	featureBuildSeconds.With().ObserveSince(mt)
	if err != nil {
		return nil, err
	}
	return &Plan{cfg: p.cfg, d: d, view: view, mat: mat}, nil
}

// hoursPrefixEqual reports whether b is a bitwise prefix of a.
func hoursPrefixEqual(a, b []float64) bool {
	if len(a) < len(b) {
		return false
	}
	for i := range b {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// selectLags runs the per-window feature-selection step on the
// training slice of the view's hours: rank lags 1..MaxLag (clamped to
// the slice) by autocorrelation, keep the top K (or the significant
// ones). A window too short to rank anything falls back to lag 1.
func (p *Plan) selectLags(trainFrom, trainTo int) []int {
	trainHours := p.view.Hours[trainFrom:trainTo]
	maxLag := p.cfg.MaxLag
	if maxLag >= len(trainHours) {
		maxLag = len(trainHours) - 1
	}
	if maxLag < 1 {
		return []int{1}
	}
	var lags []int
	if p.cfg.Selection == SelectSignificant {
		lags = stats.SignificantLags(trainHours, maxLag, p.cfg.K)
	} else {
		lags = featsel.SelectLags(trainHours, maxLag, p.cfg.K)
	}
	if len(lags) == 0 {
		lags = []int{1}
	}
	return lags
}

// clampHours bounds a predicted utilization to the physical [0, 24]
// hour range.
func clampHours(pred float64) float64 {
	if pred < 0 {
		return 0
	}
	if pred > 24 {
		return 24
	}
	return pred
}

// EvaluateContext runs the full hold-out evaluation of Section 4.1
// over the compiled plan: enumerate the train/test windows, re-run
// feature selection per window, gather the window's matrix from the
// superset, train a fresh model and predict the test day. When ctx
// carries an active trace span, the hold-out run is recorded as a
// "plan.evaluate" child with window, skip and worker counts.
//
// The windows are independent, so they fan out over a GOMAXPROCS-sized
// pool (stage "evaluate_windows"); outcomes are merged in window order,
// so the result and any returned error are those of a serial loop.
// Cancelling ctx does not stop the windows: an evaluation shared by
// coalesced callers must not fail them when its first caller leaves.
func (p *Plan) EvaluateContext(ctx context.Context) (res *Result, err error) {
	ctx, sp := trace.Start(ctx, "plan.evaluate")
	if sp != nil {
		sp.SetAttr("vehicle", p.d.VehicleID)
		defer func() {
			if res != nil {
				sp.SetAttrInt("predictions", len(res.Predictions))
				sp.SetAttrInt("skipped_windows", res.SkippedWindows)
			}
			sp.SetError(err)
			sp.End()
		}()
	}
	return p.evaluate(ctx, sp)
}

// windowOutcome is what one hold-out window produced: a prediction
// and the lags it used, a skip (lags nil), or an error.
type windowOutcome struct {
	lags []int
	pred float64
	err  error
}

// windowScratch is the reusable per-worker state of the window
// fan-out: the training-matrix scratch and the test-day row.
type windowScratch struct {
	feat featsel.Scratch
	row  []float64
}

var windowScratchPool = sync.Pool{New: func() any { return new(windowScratch) }}

func (p *Plan) evaluate(ctx context.Context, sp *trace.Span) (*Result, error) {
	windows, err := timeseries.Enumerate(p.view.Len(), p.cfg.W, p.cfg.Strategy)
	if err != nil {
		return nil, fmt.Errorf("core: vehicle %s: %w", p.d.VehicleID, err)
	}
	n := (len(windows) + p.cfg.Stride - 1) / p.cfg.Stride
	outcomes := make([]windowOutcome, n)
	opts := parallel.Options{Stage: "evaluate_windows"}
	sp.SetAttrInt("workers", opts.WorkerCount(n))
	err = parallel.ForEach(context.WithoutCancel(ctx), n, opts, func(_ context.Context, k int) error {
		s := windowScratchPool.Get().(*windowScratch)
		defer windowScratchPool.Put(s)
		outcomes[k] = p.evaluateWindow(s, windows[k*p.cfg.Stride], k*p.cfg.Stride)
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := &Result{VehicleID: p.d.VehicleID, Algorithm: p.cfg.Algorithm, Scenario: p.cfg.Scenario}
	var preds, actuals []float64
	for k, o := range outcomes {
		if o.err != nil {
			return nil, o.err
		}
		if o.lags == nil {
			res.SkippedWindows++
			continue
		}
		win := windows[k*p.cfg.Stride]
		res.Predictions = append(res.Predictions, Prediction{
			Index:     win.Test,
			Date:      viewDate(p.view, win.Test),
			Actual:    p.view.Hours[win.Test],
			Predicted: o.pred,
			Lags:      o.lags,
		})
		preds = append(preds, o.pred)
		actuals = append(actuals, p.view.Hours[win.Test])
	}
	if len(preds) == 0 {
		return nil, fmt.Errorf("%w: vehicle %s (%d windows skipped)", ErrNoPredictions, p.d.VehicleID, res.SkippedWindows)
	}
	if res.PE, err = PE(preds, actuals); err != nil {
		return nil, err
	}
	if res.MAE, err = MAE(preds, actuals); err != nil {
		return nil, err
	}
	return res, nil
}

// evaluateWindow selects lags, trains a fresh model and predicts the
// test day of window wi, using s for the training matrix and the test
// row. A window without enough rows, or whose fit fails, is skipped.
func (p *Plan) evaluateWindow(s *windowScratch, win timeseries.Window, wi int) windowOutcome {
	lags := p.selectLags(win.TrainFrom, win.TrainTo)
	mt := time.Now() //lint:allow determinism stage timer; feeds pipeline_feature_build_seconds only, never figure bytes
	x, y, err := p.mat.MatrixInto(&s.feat, lags, win.TrainFrom, win.TrainTo)
	featureBuildSeconds.With().ObserveSince(mt)
	if err != nil || len(x) < p.cfg.MinTrainRows {
		return windowOutcome{}
	}
	if w := p.mat.RowWidth(lags); cap(s.row) < w {
		s.row = make([]float64, w)
	} else {
		s.row = s.row[:w]
	}
	if !p.mat.GatherRow(s.row, win.Test, lags) {
		return windowOutcome{}
	}
	model, err := p.cfg.newModel()
	if err != nil {
		return windowOutcome{err: err}
	}
	if err := model.Fit(x, y); err != nil {
		return windowOutcome{}
	}
	pred, err := model.Predict(s.row)
	if err != nil {
		return windowOutcome{err: fmt.Errorf("core: vehicle %s window %d: %w", p.d.VehicleID, wi, err)}
	}
	return windowOutcome{lags: lags, pred: clampHours(pred)}
}

// Fitted is a trained forecasting artifact: the plan it was compiled
// from, the lags its feature selection kept and the model trained on
// the most recent window. It is what the serving layer caches — one
// Fit serves point forecasts, horizons and target-channel what-ifs for
// as long as the underlying data and config stay unchanged. Safe for
// concurrent use: each Forecast/Horizon call builds its own phantom
// extension.
type Fitted struct {
	plan  *Plan
	lags  []int
	model regress.Regressor
}

// FitContext trains a forecasting model on the most recent window of
// the plan's view (the whole series under the expanding strategy).
// When ctx carries an active trace span, the training run is recorded
// as a "plan.fit" child with "featsel.select_lags" and "model.fit"
// under it.
func (p *Plan) FitContext(ctx context.Context) (f *Fitted, err error) {
	ctx, sp := trace.Start(ctx, "plan.fit")
	if sp != nil {
		sp.SetAttr("vehicle", p.d.VehicleID)
		sp.SetAttr("algorithm", string(p.cfg.Algorithm))
		defer func() {
			sp.SetError(err)
			sp.End()
		}()
	}
	n := p.view.Len()
	trainFrom := 0
	if p.cfg.Strategy == timeseries.Sliding && n > p.cfg.W {
		trainFrom = n - p.cfg.W
	}
	_, lagSpan := trace.Start(ctx, "featsel.select_lags")
	lags := p.selectLags(trainFrom, n)
	lagSpan.SetAttrInt("lags", len(lags))
	lagSpan.End()
	var scratch featsel.Scratch
	mt := time.Now() //lint:allow determinism stage timer; feeds pipeline_feature_build_seconds only, never figure bytes
	x, y, err := p.mat.MatrixInto(&scratch, lags, trainFrom, n)
	featureBuildSeconds.With().ObserveSince(mt)
	if err != nil {
		return nil, err
	}
	if len(x) < p.cfg.MinTrainRows {
		return nil, fmt.Errorf("core: vehicle %s: only %d training rows, need %d", p.d.VehicleID, len(x), p.cfg.MinTrainRows)
	}
	model, err := p.cfg.newModel()
	if err != nil {
		return nil, err
	}
	_, fitSpan := trace.Start(ctx, "model.fit")
	fitSpan.SetAttrInt("rows", len(x))
	err = model.Fit(x, y)
	fitSpan.SetError(err)
	fitSpan.End()
	if err != nil {
		return nil, err
	}
	return &Fitted{plan: p, lags: lags, model: model}, nil
}

// Lags returns the lags selected for the forecast fit.
func (f *Fitted) Lags() []int { return f.lags }

// extension builds h phantom days past the view: hours and channel
// values zero until written, context derived from consecutive calendar
// dates after the last view day. Channels appearing as both lag and
// target features share one column, so a target-day override is also
// visible to later steps' lag reads — matching the semantics of
// appending real days to the series.
func (f *Fitted) extension(h int) *featsel.Extension {
	p := f.plan
	ext := &featsel.Extension{
		Hours: make([]float64, h),
		Ctx:   make([]etl.Context, h),
		Chans: make([][]float64, len(p.cfg.Channels)),
		Tgts:  make([][]float64, len(p.cfg.TargetChannels)),
	}
	cols := make(map[string][]float64, len(p.cfg.Channels)+len(p.cfg.TargetChannels))
	colFor := func(name string) []float64 {
		if c, ok := cols[name]; ok {
			return c
		}
		c := make([]float64, h)
		cols[name] = c
		return c
	}
	for i, ch := range p.cfg.Channels {
		ext.Chans[i] = colFor(ch)
	}
	for i, ch := range p.cfg.TargetChannels {
		ext.Tgts[i] = colFor(ch)
	}
	etl.ContextsFrom(p.d.Country, p.view.Date(p.view.Len()-1).AddDate(0, 0, 1), ext.Ctx)
	return ext
}

// override writes known target-day channel values (e.g. tomorrow's
// weather forecast) into phantom day step. Values for channels the
// plan does not use are dropped, as they would never be read.
func (f *Fitted) override(ext *featsel.Extension, step int, target map[string]float64) {
	for i, ch := range f.plan.cfg.Channels {
		if v, ok := target[ch]; ok {
			ext.Chans[i][step] = v
		}
	}
	for i, ch := range f.plan.cfg.TargetChannels {
		if v, ok := target[ch]; ok {
			ext.Tgts[i][step] = v
		}
	}
}

// ForecastContext predicts the next upcoming day — the next calendar
// day for NextDay, the next working day for NextWorkingDay — with
// optional known target-day channel values. When ctx carries an
// active trace span, the prediction is recorded as a "model.predict"
// child.
func (f *Fitted) ForecastContext(ctx context.Context, target map[string]float64) (pred float64, err error) {
	_, sp := trace.Start(ctx, "model.predict")
	if sp != nil {
		sp.SetAttr("vehicle", f.plan.d.VehicleID)
		defer func() {
			sp.SetError(err)
			sp.End()
		}()
	}
	ext := f.extension(1)
	f.override(ext, 0, target)
	row := make([]float64, f.plan.mat.RowWidth(f.lags))
	if !f.plan.mat.ExtendedRow(row, 0, f.lags, ext) {
		return 0, fmt.Errorf("core: vehicle %s: series too short for lags %v", f.plan.d.VehicleID, f.lags)
	}
	pred, err = f.model.Predict(row)
	if err != nil {
		return 0, err
	}
	return clampHours(pred), nil
}

// HorizonContext predicts the next h days by iterated one-step
// forecasting: each prediction is written into its phantom slot so the
// following steps' lag features see it. Per-step target-channel values
// (e.g. a weather forecast per day) can be supplied via targets,
// indexed by step. One extension is built up front and mutated in
// place — no per-step dataset clone. When ctx carries an active trace
// span, the iterated forecast is recorded as a "model.horizon" child
// with the step count.
func (f *Fitted) HorizonContext(ctx context.Context, h int, targets []map[string]float64) (out []float64, err error) {
	_, sp := trace.Start(ctx, "model.horizon")
	if sp != nil {
		sp.SetAttr("vehicle", f.plan.d.VehicleID)
		sp.SetAttrInt("steps", h)
		defer func() {
			sp.SetError(err)
			sp.End()
		}()
	}
	return f.horizon(h, targets)
}

func (f *Fitted) horizon(h int, targets []map[string]float64) ([]float64, error) {
	if h <= 0 {
		return nil, fmt.Errorf("%w: horizon %d", ErrConfig, h)
	}
	ext := f.extension(h)
	row := make([]float64, f.plan.mat.RowWidth(f.lags))
	out := make([]float64, 0, h)
	for step := 0; step < h; step++ {
		if step < len(targets) {
			f.override(ext, step, targets[step])
		}
		if !f.plan.mat.ExtendedRow(row, step, f.lags, ext) {
			return nil, fmt.Errorf("core: vehicle %s: series too short for lags %v", f.plan.d.VehicleID, f.lags)
		}
		pred, err := f.model.Predict(row)
		if err != nil {
			return nil, err
		}
		pred = clampHours(pred)
		out = append(out, pred)
		ext.Hours[step] = pred
	}
	return out, nil
}
