package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"vup/internal/canbus"
	"vup/internal/etl"
	"vup/internal/fleet"
	"vup/internal/randx"
	"vup/internal/regress"
	"vup/internal/timeseries"
)

// fastConfig keeps test runtime low: linear model, modest window,
// strided evaluation.
func fastConfig() Config {
	cfg := DefaultConfig()
	cfg.Algorithm = regress.AlgLinear
	cfg.W = 80
	cfg.K = 10
	cfg.MaxLag = 21
	// Stride 5 avoids aliasing the weekly pattern (a stride of 7 would
	// evaluate only one weekday).
	cfg.Stride = 5
	cfg.Channels = []string{canbus.ChanFuelRate, canbus.ChanEngineSpeed}
	return cfg
}

func testDataset(t testing.TB, seed int64, days int) *etl.VehicleDataset {
	t.Helper()
	rng := randx.New(seed)
	v := fleet.Vehicle{ID: "veh-0", Model: fleet.Model{Type: fleet.RefuseCompactor, Index: 0}, Country: "IT"}
	u := fleet.Unit{Vehicle: v, Model: fleet.NewUsageModel(v, seed, rng.Split())}
	usage := u.Model.Simulate(fleet.StudyStart, days)
	d, err := etl.FromUsage(u, usage, rng.Split())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bads := []func(*Config){
		func(c *Config) { c.W = 1 },
		func(c *Config) { c.K = 0 },
		func(c *Config) { c.MaxLag = 0 },
		func(c *Config) { c.Stride = 0 },
		func(c *Config) { c.ActiveThreshold = -1 },
		func(c *Config) { c.MinTrainRows = 0 },
		func(c *Config) { c.Algorithm = "bogus" },
	}
	for i, mutate := range bads {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); !errors.Is(err, ErrConfig) {
			t.Errorf("case %d: want ErrConfig, got %v", i, err)
		}
	}
}

func TestScenarioString(t *testing.T) {
	if NextDay.String() != "next-day" || NextWorkingDay.String() != "next-working-day" {
		t.Error("scenario names wrong")
	}
}

func TestMetrics(t *testing.T) {
	pred := []float64{2, 4}
	actual := []float64{1, 5}
	pe, err := PE(pred, actual)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pe-100.0*2/6) > 1e-12 {
		t.Errorf("PE = %v", pe)
	}
	mae, _ := MAE(pred, actual)
	if mae != 1 {
		t.Errorf("MAE = %v", mae)
	}
	rmse, _ := RMSE(pred, actual)
	if rmse != 1 {
		t.Errorf("RMSE = %v", rmse)
	}
	if _, err := PE(nil, nil); !errors.Is(err, ErrNoPredictions) {
		t.Errorf("want ErrNoPredictions, got %v", err)
	}
	if _, err := MAE([]float64{1}, []float64{1, 2}); !errors.Is(err, ErrNoPredictions) {
		t.Errorf("length mismatch: %v", err)
	}
	if _, err := RMSE([]float64{1}, nil); !errors.Is(err, ErrNoPredictions) {
		t.Errorf("length mismatch: %v", err)
	}
	nan, err := PE([]float64{1}, []float64{0})
	if err != nil || !math.IsNaN(nan) {
		t.Errorf("zero-actual PE = %v %v", nan, err)
	}
}

func TestEvaluateVehicleBasics(t *testing.T) {
	d := testDataset(t, 1, 400)
	res, err := EvaluateVehicleContext(context.Background(), d, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.VehicleID != "veh-0" || res.Algorithm != regress.AlgLinear {
		t.Errorf("identity: %+v", res)
	}
	if len(res.Predictions) == 0 {
		t.Fatal("no predictions")
	}
	if math.IsNaN(res.PE) || res.PE < 0 {
		t.Errorf("PE = %v", res.PE)
	}
	for _, p := range res.Predictions {
		if p.Predicted < 0 || p.Predicted > 24 {
			t.Fatalf("prediction out of range: %v", p.Predicted)
		}
		if len(p.Lags) == 0 || len(p.Lags) > 10 {
			t.Fatalf("lags = %v", p.Lags)
		}
	}
}

func TestEvaluateVehicleErrors(t *testing.T) {
	d := testDataset(t, 2, 400)
	bad := fastConfig()
	bad.W = 0
	if _, err := EvaluateVehicleContext(context.Background(), d, bad); !errors.Is(err, ErrConfig) {
		t.Errorf("want ErrConfig, got %v", err)
	}
	// Series shorter than the window.
	short := testDataset(t, 3, 50)
	if _, err := EvaluateVehicleContext(context.Background(), short, fastConfig()); err == nil {
		t.Error("short series accepted")
	}
	// Invalid dataset.
	if _, err := EvaluateVehicleContext(context.Background(), &etl.VehicleDataset{}, fastConfig()); err == nil {
		t.Error("empty dataset accepted")
	}
}

func TestMLBeatsBaselinesNextDay(t *testing.T) {
	// The paper's central comparison: learning approaches outperform
	// the naive baselines.
	d := testDataset(t, 4, 500)
	pe := func(alg regress.Algorithm) float64 {
		cfg := fastConfig()
		cfg.Algorithm = alg
		res, err := EvaluateVehicleContext(context.Background(), d, cfg)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		return res.PE
	}
	lasso := pe(regress.AlgLasso)
	lv := pe(regress.AlgLastValue)
	ma := pe(regress.AlgMovingAverage)
	if lasso >= lv {
		t.Errorf("Lasso (%.1f%%) not better than LV (%.1f%%)", lasso, lv)
	}
	if lasso >= ma {
		t.Errorf("Lasso (%.1f%%) not better than MA (%.1f%%)", lasso, ma)
	}
}

func TestNextWorkingDayEasier(t *testing.T) {
	// Section 4.4: the next-working-day scenario roughly halves the
	// error because unpredictable idle days vanish.
	d := testDataset(t, 5, 600)
	cfg := fastConfig()
	nd, err := EvaluateVehicleContext(context.Background(), d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Scenario = NextWorkingDay
	nwd, err := EvaluateVehicleContext(context.Background(), d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if nwd.PE >= nd.PE {
		t.Errorf("NWD PE (%.1f%%) not below ND PE (%.1f%%)", nwd.PE, nd.PE)
	}
}

func TestNextWorkingDayDatesAreRealDates(t *testing.T) {
	// The compacted view must report each prediction's true calendar
	// date — the dates of working days, generally non-contiguous and
	// all carrying >= threshold hours in the original series.
	d := testDataset(t, 51, 600)
	cfg := fastConfig()
	cfg.Scenario = NextWorkingDay
	res, err := EvaluateVehicleContext(context.Background(), d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hoursByDate := map[string]float64{}
	for i := 0; i < d.Len(); i++ {
		hoursByDate[d.Date(i).Format("2006-01-02")] = d.Hours[i]
	}
	for _, p := range res.Predictions {
		h, ok := hoursByDate[p.Date.Format("2006-01-02")]
		if !ok {
			t.Fatalf("prediction date %v not in the original series", p.Date)
		}
		if h < cfg.ActiveThreshold {
			t.Fatalf("prediction date %v has %v hours, below the working threshold", p.Date, h)
		}
		if h != p.Actual {
			t.Fatalf("prediction actual %v != original hours %v on %v", p.Actual, h, p.Date)
		}
	}
}

func TestExpandingVsSliding(t *testing.T) {
	d := testDataset(t, 6, 500)
	cfg := fastConfig()
	sliding, err := EvaluateVehicleContext(context.Background(), d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Strategy = timeseries.Expanding
	expanding, err := EvaluateVehicleContext(context.Background(), d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The paper reports expanding performs (slightly) better; allow
	// parity within a tolerance to keep the test robust.
	if expanding.PE > sliding.PE*1.15 {
		t.Errorf("expanding PE (%.1f%%) much worse than sliding (%.1f%%)", expanding.PE, sliding.PE)
	}
}

func TestStrideReducesWork(t *testing.T) {
	d := testDataset(t, 7, 400)
	cfg := fastConfig()
	cfg.Stride = 1
	full, err := EvaluateVehicleContext(context.Background(), d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Stride = 10
	strided, err := EvaluateVehicleContext(context.Background(), d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(strided.Predictions) >= len(full.Predictions) {
		t.Errorf("stride did not reduce predictions: %d vs %d", len(strided.Predictions), len(full.Predictions))
	}
}

func TestForecast(t *testing.T) {
	d := testDataset(t, 8, 300)
	cfg := fastConfig()
	pred, lags, err := Forecast(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if pred < 0 || pred > 24 {
		t.Errorf("forecast = %v", pred)
	}
	if len(lags) == 0 {
		t.Error("no lags reported")
	}
	// Next-working-day forecast too.
	cfg.Scenario = NextWorkingDay
	pred2, _, err := Forecast(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if pred2 < 0 || pred2 > 24 {
		t.Errorf("NWD forecast = %v", pred2)
	}
}

func TestForecastErrors(t *testing.T) {
	d := testDataset(t, 9, 300)
	bad := fastConfig()
	bad.K = 0
	if _, _, err := Forecast(d, bad); !errors.Is(err, ErrConfig) {
		t.Errorf("want ErrConfig, got %v", err)
	}
	if _, _, err := Forecast(&etl.VehicleDataset{}, fastConfig()); err == nil {
		t.Error("empty dataset accepted")
	}
	// A dataset with too few rows for the minimum training size.
	tiny := testDataset(t, 10, 300)
	cfg := fastConfig()
	cfg.MinTrainRows = 100000
	if _, _, err := Forecast(tiny, cfg); err == nil {
		t.Error("impossible MinTrainRows accepted")
	}
}

func TestForecastHorizon(t *testing.T) {
	d := testDataset(t, 60, 400)
	cfg := fastConfig()
	preds, err := ForecastHorizon(d, cfg, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 7 {
		t.Fatalf("horizon = %d", len(preds))
	}
	for i, p := range preds {
		if p < 0 || p > 24 {
			t.Fatalf("step %d prediction out of range: %v", i, p)
		}
	}
	// The first step matches the single-day forecast.
	single, _, err := Forecast(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(preds[0]-single) > 1e-9 {
		t.Errorf("step 0 (%v) != single forecast (%v)", preds[0], single)
	}
	// Weekly structure should echo through the horizon: not all seven
	// predictions identical for a weekly-patterned unit.
	allSame := true
	for _, p := range preds[1:] {
		if math.Abs(p-preds[0]) > 0.05 {
			allSame = false
		}
	}
	if allSame {
		t.Log("flat 7-day horizon (acceptable but unusual for weekly units)")
	}
}

func TestForecastHorizonErrors(t *testing.T) {
	d := testDataset(t, 61, 400)
	if _, err := ForecastHorizon(d, fastConfig(), 0, nil); !errors.Is(err, ErrConfig) {
		t.Errorf("horizon 0: %v", err)
	}
	bad := fastConfig()
	bad.K = 0
	if _, err := ForecastHorizon(d, bad, 3, nil); !errors.Is(err, ErrConfig) {
		t.Errorf("bad config: %v", err)
	}
	if _, err := ForecastHorizon(&etl.VehicleDataset{}, fastConfig(), 3, nil); err == nil {
		t.Error("empty dataset accepted")
	}
}

func TestScenarioViewAllIdle(t *testing.T) {
	d := testDataset(t, 11, 300)
	for i := range d.Hours {
		d.Hours[i] = 0
	}
	cfg := fastConfig()
	cfg.Scenario = NextWorkingDay
	if _, err := EvaluateVehicleContext(context.Background(), d, cfg); err == nil {
		t.Error("all-idle vehicle accepted in NWD scenario")
	}
}

func TestEvaluateFleet(t *testing.T) {
	var datasets []*etl.VehicleDataset
	for seed := int64(20); seed < 24; seed++ {
		datasets = append(datasets, testDataset(t, seed, 400))
	}
	// One vehicle too short to evaluate: must land in Failed.
	datasets = append(datasets, testDataset(t, 99, 60))
	fr, err := EvaluateFleetContext(context.Background(), datasets, fastConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(fr.Results) != 4 {
		t.Errorf("results = %d", len(fr.Results))
	}
	if len(fr.Failed) != 1 {
		t.Errorf("failed = %v", fr.Failed)
	}
	if math.IsNaN(fr.MeanPE) || fr.MeanPE <= 0 {
		t.Errorf("MeanPE = %v", fr.MeanPE)
	}
	if fr.MedianPE <= 0 {
		t.Errorf("MedianPE = %v", fr.MedianPE)
	}
	if len(fr.PEs) != 4 {
		t.Errorf("PEs = %v", fr.PEs)
	}
}

func TestEvaluateFleetErrors(t *testing.T) {
	if _, err := EvaluateFleetContext(context.Background(), nil, fastConfig(), 1); !errors.Is(err, ErrNoPredictions) {
		t.Errorf("want ErrNoPredictions, got %v", err)
	}
	bad := fastConfig()
	bad.W = 0
	if _, err := EvaluateFleetContext(context.Background(), []*etl.VehicleDataset{testDataset(t, 30, 200)}, bad, 1); !errors.Is(err, ErrConfig) {
		t.Errorf("want ErrConfig, got %v", err)
	}
	// Every vehicle failing must be an error, not a zero result.
	short := []*etl.VehicleDataset{testDataset(t, 31, 50)}
	if _, err := EvaluateFleetContext(context.Background(), short, fastConfig(), 1); !errors.Is(err, ErrNoPredictions) {
		t.Errorf("want ErrNoPredictions, got %v", err)
	}
}

func TestSignificantSelectionRuns(t *testing.T) {
	// The significance-gated variant must produce a comparable PE to
	// the paper's top-K rule on a weekly-structured unit.
	d := testDataset(t, 50, 450)
	topK, err := EvaluateVehicleContext(context.Background(), d, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastConfig()
	cfg.Selection = SelectSignificant
	sig, err := EvaluateVehicleContext(context.Background(), d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sig.PE > topK.PE*1.5 {
		t.Errorf("significant selection PE %.1f%% much worse than top-K %.1f%%", sig.PE, topK.PE)
	}
	if SelectTopK.String() != "top-k" || SelectSignificant.String() != "significant" {
		t.Error("selection names wrong")
	}
}

func TestFeatureSelectionHelps(t *testing.T) {
	// Figure 4's headline: the autocorrelation-based selection of K
	// lags from a wide budget (which captures the weekly lags 7, 14,
	// 21) beats naively taking the first K lags. Lasso keeps the
	// comparison insensitive to the raw feature count.
	d := testDataset(t, 12, 500)
	pe := func(k, maxLag int) float64 {
		cfg := fastConfig()
		cfg.Algorithm = regress.AlgLasso
		cfg.K = k
		cfg.MaxLag = maxLag
		res, err := EvaluateVehicleContext(context.Background(), d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.PE
	}
	naive := pe(8, 8)     // lags 1..8: misses lag 14 and 21
	selected := pe(8, 21) // ACF picks the weekly harmonics
	if selected > naive*1.05 {
		t.Errorf("ACF-selected PE (%.1f%%) worse than naive first-K (%.1f%%)", selected, naive)
	}
}
