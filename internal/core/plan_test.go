package core

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"vup/internal/regress"
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
