package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
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
// feature gatherer over the view's columns, which assembles the rows
// of any training window's lag selection without copying the series.
// The public drivers (EvaluateVehicleContext, Forecast, ForecastHorizon,
// ForecastInterval) are thin wrappers that compile a Plan and run it;
// callers that run several of those on the same vehicle and config
// (the calibrated-interval path) compile once and share it.
//
// A plan is full or a forecast plan. NewPlanContext compiles a full
// plan over the whole view; evaluation and intervals need one. Under
// the sliding strategy NewForecastPlanContext compiles a forecast plan
// over a copy of only the last W+MaxLag view rows, which is all that a
// fit on the most recent window and its forecasts read, so it holds
// O(W+MaxLag) days however long the series grows. A forecast plan
// answers FitContext exactly as the full plan does and refuses
// EvaluateContext.
//
// A Plan is immutable after compilation and safe for concurrent use;
// the per-window scratch of EvaluateContext comes from a pool shared by
// its workers, and Fitted builds its own per call.
type Plan struct {
	cfg  Config
	d    *etl.VehicleDataset // dataset compiled from; nil on a forecast plan
	view *etl.VehicleDataset // scenario view; on a forecast plan a copy of its last rows
	mat  *featsel.Materialized

	// off is the scenario-view index of view row 0 (0 on a full plan)
	// and days the length of the dataset compiled from.
	off, days int
	// claimed guards the spare capacity past a forecast plan's view
	// rows: one extension appends in place, every other one copies.
	// The gatherer reads only the view's first rows, so a parent never
	// sees the rows a child appends.
	claimed atomic.Bool
}

// NewPlanContext validates the configuration and dataset, applies the
// scenario transformation and compiles the feature gatherer over the
// whole view: a full plan. The gatherer covers lags up to cfg.MaxLag
// (clamped to the view length) and reads the view's columns, resolved
// once, instead of re-walking the dataset maps per row. When ctx
// carries an active trace span, the compilation is recorded as a
// "plan.build" child (with the materialization under it).
func NewPlanContext(ctx context.Context, d *etl.VehicleDataset, cfg Config) (*Plan, error) {
	return compile(ctx, d, cfg, false)
}

// NewForecastPlanContext compiles the plan a forecast needs. Under the
// expanding strategy, which trains on the whole series, that is
// NewPlanContext. Under the sliding strategy it validates and builds
// the view as NewPlanContext does, then copies the last W+MaxLag view
// rows and gathers from that copy only, with the lag budget clamped to
// the whole view's length. FitContext, ForecastContext and HorizonContext
// on it are bit-identical to the full plan's; EvaluateContext and
// ForecastIntervalContext return an error. The compilation is traced
// as NewPlanContext's is.
func NewForecastPlanContext(ctx context.Context, d *etl.VehicleDataset, cfg Config) (*Plan, error) {
	return compile(ctx, d, cfg, cfg.Strategy == timeseries.Sliding)
}

func compile(ctx context.Context, d *etl.VehicleDataset, cfg Config, tail bool) (p *Plan, err error) {
	ctx, sp := trace.Start(ctx, "plan.build")
	sp.SetAttr("vehicle", d.VehicleID)
	sp.SetAttr("algorithm", string(cfg.Algorithm))
	defer func() {
		sp.SetError(err)
		sp.End()
	}()
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
	maxLag := lagBudget(cfg, view.Len())
	if tail {
		return compileTail(ctx, cfg, view, maxLag, d.Len())
	}
	mat, err := featsel.MaterializeContext(ctx, view, maxLag, cfg.Channels, cfg.IncludeContext, cfg.TargetChannels)
	if err != nil {
		return nil, err
	}
	return &Plan{cfg: cfg, d: d, view: view, mat: mat, days: d.Len()}, nil
}

// compileTail compiles a forecast plan over a copy of the last
// W+MaxLag rows of the scenario view v. Copying, not reslicing, is the
// point: a reslice would keep v's whole backing arrays reachable.
func compileTail(ctx context.Context, cfg Config, v *etl.VehicleDataset, maxLag, days int) (*Plan, error) {
	off := max(0, v.Len()-cfg.W-cfg.MaxLag)
	head := &etl.VehicleDataset{
		VehicleID: v.VehicleID,
		Type:      v.Type,
		ModelID:   v.ModelID,
		Country:   v.Country,
		Start:     v.Date(off),
		Channels:  make(map[string][]float64, len(cfg.Channels)+len(cfg.TargetChannels)),
	}
	for _, chans := range [][]string{cfg.Channels, cfg.TargetChannels} {
		for _, ch := range chans {
			if _, ok := v.Channels[ch]; ok {
				head.Channels[ch] = nil
			}
		}
	}
	if v.Dates != nil {
		head.Dates = []time.Time{}
	}
	view, err := appendView(head, v, off, false)
	if err != nil {
		return nil, err
	}
	mat, err := featsel.MaterializeContext(ctx, view, maxLag, cfg.Channels, cfg.IncludeContext, cfg.TargetChannels)
	if err != nil {
		return nil, err
	}
	return &Plan{cfg: cfg, view: view, mat: mat, off: off, days: days}, nil
}

// lagBudget clamps cfg.MaxLag to a view of n days; a degenerate view
// keeps lag 1, and its windows refuse their rows.
func lagBudget(cfg Config, n int) int {
	return max(1, min(cfg.MaxLag, n-1))
}

// appendView returns the rows of base followed by rows [from, v.Len())
// of v, for the channels base carries. With inPlace it writes into the
// spare capacity past base's rows, which the caller must own; without,
// it copies into fresh arrays with append's geometric headroom.
func appendView(base, v *etl.VehicleDataset, from int, inPlace bool) (*etl.VehicleDataset, error) {
	if (base.Dates == nil) != (v.Dates == nil) {
		return nil, fmt.Errorf("core: vehicle %s: view dates changed shape", v.VehicleID)
	}
	out := *base
	out.Hours = appendRows(base.Hours, v.Hours[from:], inPlace)
	out.Context = appendRows(base.Context, v.Context[from:], inPlace)
	out.Observed = appendRows(base.Observed, v.Observed[from:], inPlace)
	if base.Dates != nil {
		out.Dates = appendRows(base.Dates, v.Dates[from:], inPlace)
	}
	out.Channels = make(map[string][]float64, len(base.Channels))
	for name, col := range base.Channels {
		src, ok := v.Channels[name]
		if !ok {
			return nil, fmt.Errorf("core: vehicle %s: view has no channel %q", v.VehicleID, name)
		}
		out.Channels[name] = appendRows(col, src[from:], inPlace)
	}
	return &out, nil
}

// appendRows appends add to s: in place when allowed, else into a new
// array, so the rows past len(s) that another plan may own are never
// written.
func appendRows[T any](s, add []T, inPlace bool) []T {
	if !inPlace {
		s = s[:len(s):len(s)]
	}
	return append(s, add...)
}

// View exposes the scenario view the plan was compiled over: on a
// forecast plan, the copy of its last rows with the configured
// channels only.
func (p *Plan) View() *etl.VehicleDataset { return p.view }

// ExtendContext compiles a plan for d — the same vehicle's series with
// days appended, as produced by the streaming-ingest path — by handing
// the new view to the receiver's gatherer through featsel.AppendDays,
// which checks only the lag window the new rows read. The receiver is
// untouched and stays valid for readers holding cached artifacts. The
// result is of the receiver's kind.
//
// Extension is only sound when the receiver's compiled state is a
// strict prefix of the new one, so ExtendContext refuses (and the
// caller falls back to compiling afresh) when the vehicle identity
// changed, the series shrank or rewrote history, the scenario view
// dropped previously-kept days, or the clamped lag budget differs —
// the one structural parameter a longer series can move. A forecast
// plan holds no history before its rows, so it checks bit for bit
// only that the new view holds its rows where it had them.
func (p *Plan) ExtendContext(ctx context.Context, d *etl.VehicleDataset) (np *Plan, err error) {
	ctx, sp := trace.Start(ctx, "plan.extend")
	sp.SetAttr("vehicle", d.VehicleID)
	defer func() {
		if np != nil {
			sp.SetAttrInt("appended_days", np.viewLen()-p.viewLen())
		}
		sp.SetError(err)
		sp.End()
	}()
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if d.VehicleID != p.view.VehicleID {
		return nil, fmt.Errorf("core: extend plan of %s with dataset of %s", p.view.VehicleID, d.VehicleID)
	}
	if d.Len() < p.days {
		return nil, fmt.Errorf("core: vehicle %s: series shrank from %d to %d days", d.VehicleID, p.days, d.Len())
	}
	// The compiled rows embed the old series; any rewrite of the shared
	// prefix invalidates them. Hours also decide next-working-day view
	// membership, so this one check covers both. (Channel prefixes are
	// spot-checked over the lag window inside AppendDays; the ingest
	// path appends to a clone and never rewrites history.)
	if p.d != nil && !hoursPrefixEqual(d.Hours, p.d.Hours) {
		return nil, fmt.Errorf("core: vehicle %s: series rewrote history", d.VehicleID)
	}
	view, err := scenarioView(d, p.cfg)
	if err != nil {
		return nil, err
	}
	if view.Len() < p.viewLen() {
		return nil, fmt.Errorf("core: vehicle %s: scenario view shrank from %d to %d days", d.VehicleID, p.viewLen(), view.Len())
	}
	maxLag := lagBudget(p.cfg, view.Len())
	if maxLag != p.mat.MaxLag() {
		return nil, fmt.Errorf("core: vehicle %s: lag budget moved from %d to %d, rebuild required", d.VehicleID, p.mat.MaxLag(), maxLag)
	}
	if p.d == nil {
		return p.extendTail(ctx, d, view, maxLag)
	}
	mat, err := p.mat.AppendDays(view)
	if err != nil {
		return nil, err
	}
	return &Plan{cfg: p.cfg, d: d, view: view, mat: mat, days: d.Len()}, nil
}

// extendTail is ExtendContext for a forecast plan over the new view.
// The plan's rows start where they did and grow by the k new view rows,
// in place while its spare capacity lasts, so a one-day extension
// costs amortized O(channels). Only the last W+MaxLag rows
// are read; once the rows before them outnumber the window, the last
// window is copied down into a fresh plan instead, so a forecast plan
// never holds more than 2×(W+MaxLag) rows.
func (p *Plan) extendTail(ctx context.Context, d, view *etl.VehicleDataset, maxLag int) (*Plan, error) {
	end := p.viewLen()
	if !hoursPrefixEqual(view.Hours[p.off:], p.view.Hours) ||
		!view.Date(p.off).Equal(p.view.Date(0)) || !view.Date(end-1).Equal(p.view.Date(p.view.Len()-1)) {
		return nil, fmt.Errorf("core: vehicle %s: series rewrote the forecast window", d.VehicleID)
	}
	window := p.cfg.W + p.cfg.MaxLag
	switch {
	case view.Len() == end:
		// No new view rows (idle days under next-working-day): share the
		// rows, and never the spare capacity past them.
		np := &Plan{cfg: p.cfg, view: p.view, mat: p.mat, off: p.off, days: d.Len()}
		np.claimed.Store(true)
		return np, nil
	case view.Len()-p.off > 2*window:
		return compileTail(ctx, p.cfg, view, maxLag, d.Len())
	}
	tv, err := appendView(p.view, view, end, p.claimed.CompareAndSwap(false, true))
	if err != nil {
		return nil, err
	}
	mat, err := p.mat.AppendDays(tv)
	if err != nil {
		return nil, err
	}
	return &Plan{cfg: p.cfg, view: tv, mat: mat, off: p.off, days: d.Len()}, nil
}

// viewLen is the length of the whole scenario view the plan covers.
func (p *Plan) viewLen() int { return p.off + p.view.Len() }

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
// view's columns, train a fresh model and predict the test day. When ctx
// carries an active trace span, the hold-out run is recorded as a
// "plan.evaluate" child with window, skip and worker counts.
//
// The windows are independent, so they fan out over a GOMAXPROCS-sized
// pool (stage "evaluate_windows"); outcomes are merged in window order,
// so the result and any returned error are those of a serial loop.
// Cancelling ctx does not stop the windows: an evaluation shared by
// coalesced callers must not fail them when its first caller leaves.
// A forecast plan holds only the tail of the series, so evaluating it
// is an error.
func (p *Plan) EvaluateContext(ctx context.Context) (res *Result, err error) {
	ctx, sp := trace.Start(ctx, "plan.evaluate")
	sp.SetAttr("vehicle", p.view.VehicleID)
	defer func() {
		if res != nil {
			sp.SetAttrInt("predictions", len(res.Predictions))
			sp.SetAttrInt("skipped_windows", res.SkippedWindows)
		}
		sp.SetError(err)
		sp.End()
	}()
	return p.evaluate(ctx, &sp)
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
	if p.d == nil {
		return nil, fmt.Errorf("core: vehicle %s: cannot evaluate a forecast plan over the last %d of %d view days", p.view.VehicleID, p.view.Len(), p.viewLen())
	}
	windows, err := timeseries.Enumerate(p.view.Len(), p.cfg.W, p.cfg.Strategy)
	if err != nil {
		return nil, fmt.Errorf("core: vehicle %s: %w", p.view.VehicleID, err)
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

	res := &Result{VehicleID: p.view.VehicleID, Algorithm: p.cfg.Algorithm, Scenario: p.cfg.Scenario}
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
		return nil, fmt.Errorf("%w: vehicle %s (%d windows skipped)", ErrNoPredictions, p.view.VehicleID, res.SkippedWindows)
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
	x, y, err := p.mat.MatrixInto(&s.feat, lags, win.TrainFrom, win.TrainTo)
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
		return windowOutcome{err: fmt.Errorf("core: vehicle %s window %d: %w", p.view.VehicleID, wi, err)}
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
	sp.SetAttr("vehicle", p.view.VehicleID)
	sp.SetAttr("algorithm", string(p.cfg.Algorithm))
	defer func() {
		sp.SetError(err)
		sp.End()
	}()
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
	x, y, err := p.mat.MatrixInto(&scratch, lags, trainFrom, n)
	if err != nil {
		return nil, err
	}
	if len(x) < p.cfg.MinTrainRows {
		return nil, fmt.Errorf("core: vehicle %s: only %d training rows, need %d", p.view.VehicleID, len(x), p.cfg.MinTrainRows)
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
// values zero until written, each day's 2-byte context copied from the
// calendar memo for the consecutive dates after the last view day
// (etl.ContextsFrom). Channels appearing as both lag and
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
	etl.ContextsFrom(p.view.Country, p.view.Date(p.view.Len()-1).AddDate(0, 0, 1), ext.Ctx)
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
	sp.SetAttr("vehicle", f.plan.view.VehicleID)
	defer func() {
		sp.SetError(err)
		sp.End()
	}()
	ext := f.extension(1)
	f.override(ext, 0, target)
	row := make([]float64, f.plan.mat.RowWidth(f.lags))
	if !f.plan.mat.ExtendedRow(row, 0, f.lags, ext) {
		return 0, fmt.Errorf("core: vehicle %s: series too short for lags %v", f.plan.view.VehicleID, f.lags)
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
	sp.SetAttr("vehicle", f.plan.view.VehicleID)
	sp.SetAttrInt("steps", h)
	defer func() {
		sp.SetError(err)
		sp.End()
	}()
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
			return nil, fmt.Errorf("core: vehicle %s: series too short for lags %v", f.plan.view.VehicleID, f.lags)
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
