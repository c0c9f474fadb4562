package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"vup/internal/canbus"
	"vup/internal/etl"
	"vup/internal/obs"
	"vup/internal/regress"
	"vup/internal/timeseries"
)

// fitCounter wraps a regressor and counts Fit calls, pinning how many
// training passes a pipeline entry point performs.
type fitCounter struct {
	regress.Regressor
	fits *int64
}

func (c fitCounter) Fit(x [][]float64, y []float64) error {
	atomic.AddInt64(c.fits, 1)
	return c.Regressor.Fit(x, y)
}

func countingConfig(fits *int64) Config {
	cfg := fastConfig()
	cfg.Algorithm = regress.AlgLinear
	cfg.ModelFactory = func() (regress.Regressor, error) {
		m, err := regress.New(regress.AlgLinear)
		if err != nil {
			return nil, err
		}
		return fitCounter{m, fits}, nil
	}
	return cfg
}

// TestForecastIntervalSinglePass pins the calibrated-interval cost
// model: one shared Plan, one evaluation pass for the residuals plus
// exactly one extra fit for the point forecast — not a second
// evaluation from scratch.
func TestForecastIntervalSinglePass(t *testing.T) {
	d := testDataset(t, 31, 160)

	var evalFits int64
	cfg := countingConfig(&evalFits)
	res, err := EvaluateVehicleContext(context.Background(), d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if evalFits == 0 {
		t.Fatal("evaluation performed no fits")
	}
	if int(evalFits) < len(res.Predictions) {
		t.Fatalf("eval fits %d < predictions %d", evalFits, len(res.Predictions))
	}

	var intervalFits int64
	cfg = countingConfig(&intervalFits)
	if _, err := ForecastInterval(d, cfg, 0.8); err != nil {
		t.Fatal(err)
	}
	if want := evalFits + 1; intervalFits != want {
		t.Fatalf("ForecastInterval performed %d fits, want eval fits + 1 = %d", intervalFits, want)
	}
}

// TestPlanReuseMatchesDrivers verifies that compiling one Plan and
// running evaluate + forecast + horizon + interval over it produces
// exactly what the one-shot drivers produce.
func TestPlanReuseMatchesDrivers(t *testing.T) {
	d := testDataset(t, 32, 160)
	cfg := fastConfig()
	cfg.Algorithm = regress.AlgLinear

	p, err := NewPlanContext(context.Background(), d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantRes, err := EvaluateVehicleContext(context.Background(), d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gotRes, err := p.EvaluateContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if gotRes.PE != wantRes.PE || gotRes.MAE != wantRes.MAE || len(gotRes.Predictions) != len(wantRes.Predictions) {
		t.Fatalf("plan evaluate diverges: PE %v vs %v, MAE %v vs %v",
			gotRes.PE, wantRes.PE, gotRes.MAE, wantRes.MAE)
	}

	wantHours, wantLags, err := Forecast(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := p.FitContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	gotHours, err := f.ForecastContext(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if gotHours != wantHours {
		t.Fatalf("fitted forecast %v != driver forecast %v", gotHours, wantHours)
	}
	if len(f.Lags()) != len(wantLags) {
		t.Fatalf("lags %v vs %v", f.Lags(), wantLags)
	}
	for i := range wantLags {
		if f.Lags()[i] != wantLags[i] {
			t.Fatalf("lags %v vs %v", f.Lags(), wantLags)
		}
	}

	wantHorizon, err := ForecastHorizon(d, cfg, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	gotHorizon, err := f.HorizonContext(context.Background(), 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantHorizon {
		if gotHorizon[i] != wantHorizon[i] {
			t.Fatalf("horizon step %d: %v != %v", i, gotHorizon[i], wantHorizon[i])
		}
	}
	if gotHorizon[0] != wantHours {
		t.Fatalf("horizon(7)[0] = %v, want the one-step forecast %v", gotHorizon[0], wantHours)
	}

	wantIv, err := ForecastInterval(d, cfg, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	gotIv, err := p.ForecastIntervalContext(context.Background(), 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if gotIv.Hours != wantIv.Hours || gotIv.Lo != wantIv.Lo || gotIv.Hi != wantIv.Hi || gotIv.Residuals != wantIv.Residuals {
		t.Fatalf("plan interval %+v != driver interval %+v", gotIv, wantIv)
	}
}

// TestFittedConcurrentUse exercises a shared Fitted from many
// goroutines — the serving cache hands one artifact to every request
// for the same vehicle+config, so Forecast and Horizon must not share
// mutable state. Run under -race this is the safety proof; the value
// checks prove independence.
func TestFittedConcurrentUse(t *testing.T) {
	d := testDataset(t, 33, 160)
	cfg := fastConfig()
	cfg.Algorithm = regress.AlgLinear
	p, err := NewPlanContext(context.Background(), d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := p.FitContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wantPoint, err := f.ForecastContext(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	wantHorizon, err := f.HorizonContext(context.Background(), 5, nil)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 40)
	for g := 0; g < 20; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			got, err := f.ForecastContext(context.Background(), nil)
			if err != nil {
				errs <- err
				return
			}
			if got != wantPoint {
				t.Errorf("concurrent forecast %v != %v", got, wantPoint)
			}
		}()
		go func() {
			defer wg.Done()
			got, err := f.HorizonContext(context.Background(), 5, nil)
			if err != nil {
				errs <- err
				return
			}
			for i := range wantHorizon {
				if got[i] != wantHorizon[i] {
					t.Errorf("concurrent horizon step %d: %v != %v", i, got[i], wantHorizon[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestPlanExtendMatchesFreshPlan is the ingest-path reuse contract: a
// plan extended over appended days must be observationally identical
// to one compiled from scratch on the grown series — same evaluation,
// same fit, same forecast — under both scenarios.
func TestPlanExtendMatchesFreshPlan(t *testing.T) {
	// Same seed ⇒ the 320-day series is a bitwise prefix of the 326-day
	// one (the usage simulation consumes randomness per day in order).
	// 320 days leave enough working days for the compacted scenario to
	// host fastConfig's 80-day training window.
	prefix := testDataset(t, 35, 320)
	grown := testDataset(t, 35, 326)
	for _, scenario := range []Scenario{NextDay, NextWorkingDay} {
		cfg := fastConfig()
		cfg.Scenario = scenario

		p, err := NewPlanContext(context.Background(), prefix, cfg)
		if err != nil {
			t.Fatal(err)
		}
		extended, err := p.ExtendContext(t.Context(), grown)
		if err != nil {
			t.Fatalf("scenario %v: extend failed: %v", scenario, err)
		}
		fresh, err := NewPlanContext(context.Background(), grown, cfg)
		if err != nil {
			t.Fatal(err)
		}

		eRes, err := extended.EvaluateContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		fRes, err := fresh.EvaluateContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if eRes.PE != fRes.PE || eRes.MAE != fRes.MAE || len(eRes.Predictions) != len(fRes.Predictions) {
			t.Fatalf("scenario %v: extended evaluate diverges: PE %v vs %v, MAE %v vs %v, preds %d vs %d",
				scenario, eRes.PE, fRes.PE, eRes.MAE, fRes.MAE, len(eRes.Predictions), len(fRes.Predictions))
		}

		ef, err := extended.FitContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		ff, err := fresh.FitContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		eHours, err := ef.ForecastContext(context.Background(), nil)
		if err != nil {
			t.Fatal(err)
		}
		fHours, err := ff.ForecastContext(context.Background(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if eHours != fHours {
			t.Fatalf("scenario %v: extended forecast %v != fresh %v", scenario, eHours, fHours)
		}
		// The old plan still answers for the old series.
		if p.View().Len() >= extended.View().Len() {
			t.Fatalf("scenario %v: extension did not grow the view", scenario)
		}
		if _, err := p.FitContext(context.Background()); err != nil {
			t.Fatalf("scenario %v: parent plan broken after extension: %v", scenario, err)
		}
	}
}

// TestPlanExtendRefusals: every unsound extension must fall back to a
// rebuild via an error, never silently serve stale rows.
func TestPlanExtendRefusals(t *testing.T) {
	d := testDataset(t, 36, 160)
	grown := testDataset(t, 36, 165)
	cfg := fastConfig()
	p, err := NewPlanContext(context.Background(), d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Different vehicle.
	other := grown.Clone()
	other.VehicleID = "veh-other"
	if _, err := p.ExtendContext(t.Context(), other); err == nil {
		t.Error("extension across vehicles accepted")
	}
	// Shrunk series.
	smaller := testDataset(t, 36, 100)
	if _, err := p.ExtendContext(t.Context(), smaller); err == nil {
		t.Error("shrunk series accepted")
	}
	// Rewritten history.
	rewritten := grown.Clone()
	rewritten.Hours[10] += 0.25
	if _, err := p.ExtendContext(t.Context(), rewritten); err == nil {
		t.Error("rewritten history accepted")
	}
	// Moved lag clamp: MaxLag beyond the view forces the clamp to track
	// the series length, which a longer series moves.
	clamped := fastConfig()
	clamped.MaxLag = 500
	pc, err := NewPlanContext(context.Background(), d, clamped)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pc.ExtendContext(t.Context(), grown); err == nil {
		t.Error("moved lag clamp accepted")
	}
}

// headOf returns the first n days of d, sharing its arrays but capped
// so that nothing appends into them. testDataset series of one seed
// are bitwise prefixes of each other, so headOf(d, n) is the series as
// it stood n days in.
func headOf(d *etl.VehicleDataset, n int) *etl.VehicleDataset {
	out := *d
	out.Hours = d.Hours[:n:n]
	out.Context = d.Context[:n:n]
	out.Observed = d.Observed[:n:n]
	out.Channels = make(map[string][]float64, len(d.Channels))
	for name, col := range d.Channels {
		out.Channels[name] = col[:n:n]
	}
	return &out
}

// whatIfConfig is fastConfig with target-day channels, one of them
// also a lag channel, so what-if overrides reach both feature kinds.
func whatIfConfig(scenario Scenario) Config {
	cfg := fastConfig()
	cfg.Scenario = scenario
	cfg.TargetChannels = []string{canbus.ChanPercentLoad, canbus.ChanFuelRate}
	return cfg
}

// sameForecasts fails unless got and want fit the same lags and answer
// the point forecast (without and with target-day values) and the
// horizons of 1, 7 and 30 days bit for bit alike.
func sameForecasts(t *testing.T, name string, got, want *Plan) {
	t.Helper()
	ctx := context.Background()
	gf, gerr := got.FitContext(ctx)
	wf, werr := want.FitContext(ctx)
	if gerr != nil || werr != nil {
		t.Fatalf("%s: fit: %v vs %v", name, gerr, werr)
	}
	if !slices.Equal(gf.Lags(), wf.Lags()) {
		t.Fatalf("%s: lags %v, want %v", name, gf.Lags(), wf.Lags())
	}
	target := map[string]float64{canbus.ChanPercentLoad: 71.5, canbus.ChanFuelRate: 12.25}
	for _, tgt := range []map[string]float64{nil, target} {
		g, gerr := gf.ForecastContext(ctx, tgt)
		w, werr := wf.ForecastContext(ctx, tgt)
		if gerr != nil || werr != nil {
			t.Fatalf("%s: forecast(%v): %v vs %v", name, tgt, gerr, werr)
		}
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: forecast(%v) = %v, want %v", name, tgt, g, w)
		}
	}
	for _, h := range []int{1, 7, 30} {
		targets := []map[string]float64{target, nil, target}
		g, gerr := gf.HorizonContext(ctx, h, targets)
		w, werr := wf.HorizonContext(ctx, h, targets)
		if gerr != nil || werr != nil {
			t.Fatalf("%s: horizon %d: %v vs %v", name, h, gerr, werr)
		}
		for i := range w {
			if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
				t.Fatalf("%s: horizon %d step %d = %v, want %v", name, h, i, g[i], w[i])
			}
		}
	}
}

// TestForecastPlanMatchesFullPlan: a forecast plan over the last
// W+MaxLag view rows answers every forecast bit for bit as the full
// plan does, under both scenarios, on series longer and shorter than
// its window, and on series so short that the lag budget is clamped.
func TestForecastPlanMatchesFullPlan(t *testing.T) {
	long := testDataset(t, 37, 420)
	cfg := fastConfig()
	window := cfg.W + cfg.MaxLag
	for _, scenario := range []Scenario{NextDay, NextWorkingDay} {
		cfg := whatIfConfig(scenario)
		for _, n := range []int{420, window + 40, window - 10, cfg.MaxLag + 1, cfg.MaxLag - 5} {
			d := headOf(long, n)
			name := fmt.Sprintf("%v/%d days", scenario, n)
			cfg := cfg
			if n < window {
				// Few training rows: a regularized fit on few lags.
				cfg.Algorithm, cfg.K, cfg.MinTrainRows = regress.AlgRidge, 3, 2
			}
			if n <= cfg.MaxLag+1 {
				cfg.K = 1
			}
			full, err := NewPlanContext(context.Background(), d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			fp, err := NewForecastPlanContext(context.Background(), d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := fp.View().Len(), min(full.View().Len(), window); got != want {
				t.Fatalf("%s: forecast plan holds %d view rows, want %d", name, got, want)
			}
			if fp.mat.MaxLag() != full.mat.MaxLag() {
				t.Fatalf("%s: lag budget %d, want the full view's %d", name, fp.mat.MaxLag(), full.mat.MaxLag())
			}
			sameForecasts(t, name, fp, full)
		}
	}
	// The expanding strategy trains on the whole series: its forecast
	// plan is a full plan.
	exp := fastConfig()
	exp.Strategy = timeseries.Expanding
	p, err := NewForecastPlanContext(context.Background(), long, exp)
	if err != nil {
		t.Fatal(err)
	}
	if p.View().Len() != long.Len() {
		t.Fatalf("expanding forecast plan holds %d of %d days", p.View().Len(), long.Len())
	}
	if _, err := p.EvaluateContext(context.Background()); err != nil {
		t.Fatalf("expanding forecast plan refused evaluation: %v", err)
	}
}

// TestForecastPlanExtendMatchesFreshPlan is the ingest-path contract
// for forecast plans: a chain of one-day extensions long enough to
// copy the window down at least once, then one multi-day append, must
// answer at every step exactly as a full plan compiled on the grown
// series — and never hold more than twice its window.
func TestForecastPlanExtendMatchesFreshPlan(t *testing.T) {
	cfg := fastConfig()
	window := cfg.W + cfg.MaxLag
	start := 200
	steps := 3 * window // enough view rows for a copy-down even under next-working-day
	long := testDataset(t, 38, start+steps+9)
	for _, scenario := range []Scenario{NextDay, NextWorkingDay} {
		cfg := whatIfConfig(scenario)
		p, err := NewForecastPlanContext(context.Background(), headOf(long, start), cfg)
		if err != nil {
			t.Fatal(err)
		}
		firstOff := p.off
		for n := start + 1; n <= long.Len(); n++ {
			if n == start+steps+1 {
				n = long.Len() // the multi-day append
			}
			d := headOf(long, n)
			np, err := p.ExtendContext(t.Context(), d)
			if err != nil {
				t.Fatalf("%v: extend to %d days: %v", scenario, n, err)
			}
			if np.View().Len() > 2*window {
				t.Fatalf("%v: %d days: forecast plan holds %d rows, over twice its window %d", scenario, n, np.View().Len(), window)
			}
			full, err := NewPlanContext(context.Background(), d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sameForecasts(t, fmt.Sprintf("%v/%d days", scenario, n), np, full)
			p = np
		}
		if p.off == firstOff {
			t.Fatalf("%v: the chain never copied its window down", scenario)
		}
	}
}

// TestForecastPlanConcurrentExtend: extensions racing for the spare
// capacity past one plan's rows — two of the plan itself under
// next-day; under next-working-day one of the plan and one of its
// child over an idle day, which shares the plan's rows — must each
// answer as a fresh plan on its own series. Under -race, any write two
// of them share is reported.
func TestForecastPlanConcurrentExtend(t *testing.T) {
	long := testDataset(t, 39, 300)
	ctx := context.Background()
	for _, scenario := range []Scenario{NextDay, NextWorkingDay} {
		cfg := whatIfConfig(scenario)
		// Day i is a working day and day i+1 an idle one.
		i := 230
		for long.Hours[i] < cfg.ActiveThreshold || long.Hours[i+1] >= cfg.ActiveThreshold {
			i++
		}
		p0, err := NewForecastPlanContext(ctx, headOf(long, i), cfg)
		if err != nil {
			t.Fatal(err)
		}
		// One extension first, so the plan has spare capacity to fight over.
		p, err := p0.ExtendContext(ctx, headOf(long, i+1))
		if err != nil {
			t.Fatal(err)
		}
		racers := []*Plan{p, p}
		if scenario == NextWorkingDay {
			c, err := p.ExtendContext(ctx, headOf(long, i+2))
			if err != nil {
				t.Fatal(err)
			}
			if c.View() != p.View() {
				t.Fatal("an idle day grew the next-working-day view")
			}
			racers[1] = c
		}
		grown := []*etl.VehicleDataset{headOf(long, i+5), headOf(long, i+7)}
		got := make([]*Plan, len(grown))
		errs := make([]error, len(grown))
		var wg sync.WaitGroup
		for k, d := range grown {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[k], errs[k] = racers[k].ExtendContext(ctx, d)
			}()
		}
		wg.Wait()
		for k, d := range grown {
			if errs[k] != nil {
				t.Fatalf("%v: extension to %d days: %v", scenario, d.Len(), errs[k])
			}
			if got[k].View().Len() <= p.View().Len() {
				t.Fatalf("%v: extension to %d days appended no view rows", scenario, d.Len())
			}
			full, err := NewPlanContext(ctx, d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sameForecasts(t, fmt.Sprintf("%v/%d days", scenario, d.Len()), got[k], full)
		}
		// The parent still answers for its own series.
		full, err := NewPlanContext(ctx, headOf(long, i+1), cfg)
		if err != nil {
			t.Fatal(err)
		}
		sameForecasts(t, fmt.Sprintf("%v/parent", scenario), p, full)
	}
}

// TestForecastPlanRefusals: a forecast plan refuses what a full plan
// refuses and never evaluates its truncated series.
func TestForecastPlanRefusals(t *testing.T) {
	long := testDataset(t, 36, 320)
	cfg := fastConfig()
	d, grown := headOf(long, 300), headOf(long, 305)
	p, err := NewForecastPlanContext(context.Background(), d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	other := grown.Clone()
	other.VehicleID = "veh-other"
	if _, err := p.ExtendContext(t.Context(), other); err == nil {
		t.Error("extension across vehicles accepted")
	}
	if _, err := p.ExtendContext(t.Context(), headOf(long, 290)); err == nil {
		t.Error("shrunk series accepted")
	}
	// Rewritten hours inside the plan's rows.
	rewritten := grown.Clone()
	rewritten.Hours[d.Len()-5] += 0.25
	if _, err := p.ExtendContext(t.Context(), rewritten); err == nil {
		t.Error("rewritten window accepted")
	}
	if _, err := p.EvaluateContext(context.Background()); err == nil {
		t.Error("forecast plan evaluated a truncated series")
	}
	if _, err := p.ForecastIntervalContext(context.Background(), 0.8); err == nil {
		t.Error("forecast plan calibrated an interval on a truncated series")
	}
	// A clamped lag budget moves with the series as on a full plan.
	clamped := fastConfig()
	clamped.MaxLag = 500
	pc, err := NewForecastPlanContext(context.Background(), d, clamped)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pc.ExtendContext(t.Context(), grown); err == nil {
		t.Error("moved lag clamp accepted")
	}
}

// TestSelectLagsDegenerateWindow pins the guard for windows too short
// to rank any lag: selection is skipped entirely and the spec falls
// back to lag 1, instead of handing stats a non-positive budget.
func TestSelectLagsDegenerateWindow(t *testing.T) {
	d := testDataset(t, 34, 160)
	cfg := fastConfig()
	p, err := NewPlanContext(context.Background(), d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, span := range [][2]int{{0, 1}, {5, 6}, {0, 0}} {
		lags := p.selectLags(span[0], span[1])
		if len(lags) != 1 || lags[0] != 1 {
			t.Fatalf("selectLags(%d, %d) = %v, want [1]", span[0], span[1], lags)
		}
	}
	// A two-day slice has exactly one rankable lag.
	if lags := p.selectLags(0, 2); len(lags) != 1 || lags[0] != 1 {
		t.Fatalf("selectLags(0, 2) = %v, want [1]", lags)
	}
}

// spanCounts reads span_seconds{name} counts for the given span names.
func spanCounts(names ...string) map[string]uint64 {
	families := obs.Default.Gather()
	out := make(map[string]uint64, len(names))
	for _, name := range names {
		s, _ := obs.FindSample(families, "span_seconds", obs.Label{Name: "name", Value: name})
		out[name] = s.Count
	}
	return out
}

// TestPipelineSpansTimeThemselves checks that the pipeline's spans
// time themselves into span_seconds without any trace collector: one
// observation each for the evaluation's plan.build, featsel.materialize
// and plan.evaluate (hold-out windows get no per-window spans), and one
// each for a forecast's plan.fit, model.fit and model.predict.
func TestPipelineSpansTimeThemselves(t *testing.T) {
	d := testDataset(t, 7, 240)
	cfg := fastConfig()
	names := []string{"plan.build", "featsel.materialize", "plan.evaluate", "plan.fit", "model.fit", "model.predict"}

	before := spanCounts(names...)
	p, err := NewPlanContext(context.Background(), d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.EvaluateContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	after := spanCounts(names...)
	for name, want := range map[string]uint64{"plan.build": 1, "featsel.materialize": 1, "plan.evaluate": 1, "model.fit": 0} {
		if got := after[name] - before[name]; got != want {
			t.Errorf("evaluation: span_seconds{name=%q} +%d, want +%d", name, got, want)
		}
	}

	before = after
	f, err := p.FitContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.ForecastContext(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	after = spanCounts(names...)
	for _, name := range []string{"plan.fit", "model.fit", "model.predict"} {
		if got := after[name] - before[name]; got != 1 {
			t.Errorf("forecast: span_seconds{name=%q} +%d, want +1", name, got)
		}
	}
}
