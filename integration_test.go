package vup

// Integration tests covering the full acquisition-to-prediction path:
// CAN frames emitted by the simulated on-board unit, aggregated into
// 10-minute reports, degraded by a lossy uplink, collected by the
// server, repaired and aggregated by the ETL pipeline, and finally
// evaluated by the prediction core — the complete system of the paper
// in one pass.

import (
	"context"
	"math"
	"testing"
	"time"

	"vup/internal/canbus"
	"vup/internal/core"
	"vup/internal/etl"
	"vup/internal/fleet"
	"vup/internal/randx"
	"vup/internal/regress"
	"vup/internal/telematics"
	"vup/internal/weather"
)

// TestFrameLevelPathMatchesFastPath drives ~6 months of one vehicle
// through the full CAN-frame path and checks the resulting dataset
// against the usage series that generated it.
func TestFrameLevelPathMatchesFastPath(t *testing.T) {
	if testing.Short() {
		t.Skip("frame-level simulation is slow")
	}
	rng := randx.New(77)
	v := fleet.Vehicle{ID: "veh-int", Model: fleet.Model{Type: fleet.Grader, Index: 0}, Country: "DE"}
	unit := fleet.Unit{Vehicle: v, Model: fleet.NewUsageModel(v, 77, rng.Split())}
	days := 180
	usage := unit.Model.Simulate(fleet.StudyStart, days)

	device := telematics.NewDevice(v, rng.Split())
	uplink := telematics.NewUplink(0.03, 0.4, rng.Split())
	server := telematics.NewServer()
	faults := telematics.NewFaultModel(rng.Split())
	faultCounts := make([]int, days)

	for i, day := range usage {
		reports, err := device.SimulateDay(day.Date, day.Hours, 2*time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		server.Ingest(uplink.Transmit(reports))
		dtcs := faults.Step(day.Hours)
		faultCounts[i] = len(dtcs)
		// The diagnostic path round-trips through DM1 frames.
		frames, err := telematics.DM1Frames(dtcs, 1)
		if err != nil {
			t.Fatal(err)
		}
		_, decoded, err := canbus.DecodeDM1(frames)
		if err != nil || len(decoded) != len(dtcs) {
			t.Fatalf("DM1 round trip: %v (%d vs %d)", err, len(decoded), len(dtcs))
		}
	}

	d, err := etl.FromReports(v, server.Reports(v.ID), fleet.StudyStart, days)
	if err != nil {
		t.Fatal(err)
	}
	repaired, err := etl.Clean(d, etl.MissingZero)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AttachFaults(faultCounts); err != nil {
		t.Fatal(err)
	}
	t.Logf("uplink losses repaired on %d day(s)", repaired)

	// The reconstructed daily hours must track the generated usage on
	// the days that reached the server. Residual deviation is genuine
	// data degradation — reports lost mid-day to the bursty uplink and
	// sessions clipped at midnight — which the paper's cleaning step
	// cannot recover either.
	var absErr, total float64
	for i, day := range usage {
		if !d.Observed[i] {
			continue // lost entirely to an outage; Clean zeroed it
		}
		absErr += math.Abs(d.Hours[i] - day.Hours)
		total += day.Hours
	}
	if total == 0 {
		t.Fatal("no usage simulated")
	}
	if frac := absErr / total; frac > 0.2 {
		t.Errorf("reconstructed hours deviate by %.1f%% of total", 100*frac)
	}

	// And the prediction core must run end to end on it.
	cfg := core.DefaultConfig()
	cfg.Algorithm = regress.AlgLasso
	cfg.W = 90
	cfg.K = 8
	cfg.MaxLag = 21
	cfg.Stride = 7
	cfg.Channels = []string{canbus.ChanFuelRate, etl.ChanFaultCount}
	res, err := core.EvaluateVehicleContext(context.Background(), d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Predictions) == 0 || math.IsNaN(res.PE) {
		t.Fatalf("evaluation failed: %+v", res)
	}
}

// TestWeatherPathEndToEnd exercises the future-work weather loop:
// weather-modulated usage, attached forecast features, evaluation and
// a weather-aware forecast.
func TestWeatherPathEndToEnd(t *testing.T) {
	rng := randx.New(88)
	v := fleet.Vehicle{ID: "veh-wx", Model: fleet.Model{Type: fleet.Paver, Index: 0}, Country: "GB"}
	unit := fleet.Unit{Vehicle: v, Model: fleet.NewUsageModel(v, 88, rng.Split())}
	days := 500
	gen := weather.NewGenerator(v.Country, 88)
	wx, err := gen.Simulate(fleet.StudyStart, days)
	if err != nil {
		t.Fatal(err)
	}
	usage := unit.Model.SimulateWeather(fleet.StudyStart, days, wx)
	d, err := etl.FromUsage(unit, usage, rng.Split())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AttachWeather(wx); err != nil {
		t.Fatal(err)
	}

	cfg := core.DefaultConfig()
	cfg.Algorithm = regress.AlgLasso
	cfg.W = 120
	cfg.K = 10
	cfg.MaxLag = 21
	cfg.Stride = 5
	cfg.Channels = []string{canbus.ChanFuelRate}
	cfg.TargetChannels = []string{weather.ChanTemp, weather.ChanPrecip}
	res, err := core.EvaluateVehicleContext(context.Background(), d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.PE) {
		t.Fatal("no PE")
	}

	// Forecast under a known rainy vs dry forecast: the rainy forecast
	// must not predict more work for this rain-sensitive paver.
	rainy, _, err := core.ForecastWith(d, cfg, map[string]float64{weather.ChanTemp: 12, weather.ChanPrecip: 25})
	if err != nil {
		t.Fatal(err)
	}
	dry, _, err := core.ForecastWith(d, cfg, map[string]float64{weather.ChanTemp: 18, weather.ChanPrecip: 0})
	if err != nil {
		t.Fatal(err)
	}
	if rainy > dry+0.75 {
		t.Errorf("rainy forecast (%v h) predicts more work than dry (%v h)", rainy, dry)
	}
}

// TestFleetGenerationToForecastPath is the user-facing happy path via
// the public facade.
func TestFleetGenerationToForecastPath(t *testing.T) {
	fc := SmallFleet()
	fc.Units = 6
	fc.Days = 420
	datasets, err := GenerateDatasets(fc, 9)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Algorithm = AlgGB
	cfg.W = 100
	cfg.K = 8
	cfg.MaxLag = 21
	cfg.Stride = 20
	cfg.Channels = []string{canbus.ChanFuelRate}
	fr, err := EvaluateFleet(datasets, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(fr.Results) == 0 {
		t.Fatal("no fleet results")
	}
	for _, d := range datasets[:2] {
		hours, _, err := Forecast(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if hours < 0 || hours > 24 {
			t.Fatalf("forecast = %v", hours)
		}
	}
}
