// Health watch: combines the paper's prediction pipeline with the
// diagnostics substrate. For each vehicle it calibrates an empirical
// confidence band from hold-out residuals (Section 4, goal iii),
// flags days whose actual utilization fell outside the band (usage
// anomalies: possible breakdowns or unplanned idling) and correlates
// them with active diagnostic trouble codes.
package main

import (
	"context"
	"fmt"
	"log"

	"vup"
	"vup/internal/canbus"
	"vup/internal/core"
	"vup/internal/etl"
	"vup/internal/fleet"
	"vup/internal/randx"
	"vup/internal/telematics"
)

func main() {
	log.SetFlags(0)

	// Build a small fleet with simulated fault histories.
	rng := randx.New(21)
	f, err := fleet.Generate(fleet.Config{Units: 6, Days: 500, Seed: 21, Start: fleet.StudyStart})
	if err != nil {
		log.Fatal(err)
	}
	usage := f.SimulateAll()

	cfg := vup.DefaultConfig()
	cfg.Algorithm = vup.AlgLasso
	cfg.W = 120
	cfg.K = 10
	cfg.MaxLag = 21
	cfg.Stride = 2
	cfg.Channels = []string{canbus.ChanFuelRate, etl.ChanFaultCount}

	fmt.Println("fleet health watch (80% empirical bands)")
	for _, u := range f.Units {
		series := usage[u.Vehicle.ID]
		d, err := etl.FromUsage(u, series, rng.Split())
		if err != nil {
			log.Fatal(err)
		}
		// Fault history, correlated with workload.
		faults := telematics.NewFaultModel(rng.Split())
		counts := make([]int, len(series))
		for i, day := range series {
			counts[i] = len(faults.Step(day.Hours))
		}
		if err := d.AttachFaults(counts); err != nil {
			log.Fatal(err)
		}

		res, err := core.EvaluateVehicleContext(context.Background(), d, cfg)
		if err != nil {
			fmt.Printf("  %-9s (%s): not enough data (%v)\n", u.Vehicle.ID, u.Vehicle.Model.Type, err)
			continue
		}
		lo, hi, err := core.ResidualQuantiles(res, 0.8)
		if err != nil {
			log.Fatal(err)
		}
		anomalies := 0
		var lastAnomaly core.Prediction
		for _, p := range res.Predictions {
			if p.Actual < p.Predicted+lo || p.Actual > p.Predicted+hi {
				anomalies++
				lastAnomaly = p
			}
		}
		faultDays := 0
		for _, c := range counts {
			if c > 0 {
				faultDays++
			}
		}
		fmt.Printf("  %-9s %-18s PE=%5.1f%%  band=[%+.2f,%+.2f]h  anomalies=%d/%d  fault-days=%d\n",
			u.Vehicle.ID, u.Vehicle.Model.Type, res.PE, lo, hi, anomalies, len(res.Predictions), faultDays)
		if anomalies > 0 {
			fmt.Printf("            last anomaly %s: predicted %.1fh, actual %.1fh\n",
				lastAnomaly.Date.Format("2006-01-02"), lastAnomaly.Predicted, lastAnomaly.Actual)
		}

		// Tomorrow's outlook with the calibrated band.
		iv, err := core.ForecastInterval(d, cfg, 0.8)
		if err == nil {
			fmt.Printf("            tomorrow: %.1fh, 80%% interval [%.1f, %.1f]h\n", iv.Hours, iv.Lo, iv.Hi)
		}
	}
}
