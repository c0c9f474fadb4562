package fleet

import (
	"context"
	"fmt"
	"time"

	"vup/internal/geo"
	"vup/internal/parallel"
	"vup/internal/randx"
)

// Config parameterizes fleet generation. The defaults reproduce the
// study's population: 2 239 units over 10 types observed from
// 2015-01-01 to 2018-09-30.
type Config struct {
	Units int
	Start time.Time
	Days  int
	Seed  int64
}

// StudyStart is the first day of the paper's observation period.
var StudyStart = time.Date(2015, time.January, 1, 0, 0, 0, 0, time.UTC)

// StudyDays is the length of the observation period (2015-01-01 to
// 2018-09-30 inclusive).
const StudyDays = 1369

// DefaultConfig returns the full study-scale configuration.
func DefaultConfig() Config {
	return Config{Units: 2239, Start: StudyStart, Days: StudyDays, Seed: 1}
}

// SmallConfig returns a laptop-scale configuration for examples and
// tests: a few dozen units over roughly two years.
func SmallConfig() Config {
	return Config{Units: 60, Start: StudyStart, Days: 730, Seed: 1}
}

// Unit couples a vehicle with its generative usage model.
type Unit struct {
	Vehicle Vehicle
	Model   *UsageModel
}

// Fleet is a generated vehicle population.
type Fleet struct {
	Config Config
	Units  []Unit
}

// Generate draws a fleet from cfg. Units are distributed over types
// according to the calibrated shares, assigned to a model of their
// type and to a deployment country. All draws are deterministic in
// cfg.Seed.
func Generate(cfg Config) (*Fleet, error) {
	if cfg.Units <= 0 {
		return nil, fmt.Errorf("fleet: non-positive unit count %d", cfg.Units)
	}
	if cfg.Days <= 0 {
		return nil, fmt.Errorf("fleet: non-positive day count %d", cfg.Days)
	}
	if cfg.Start.IsZero() {
		cfg.Start = StudyStart
	}
	rng := randx.New(cfg.Seed)
	countries := geo.Codes()

	weights := make([]float64, numTypes)
	for t, p := range profiles {
		weights[t] = p.unitsShare
	}

	f := &Fleet{Config: cfg, Units: make([]Unit, 0, cfg.Units)}
	for i := 0; i < cfg.Units; i++ {
		t := Type(rng.Choice(weights))
		model := Model{Type: t, Index: rng.Intn(profiles[t].models)}
		v := Vehicle{
			ID:      fmt.Sprintf("veh-%04d", i),
			Model:   model,
			Country: countries[rng.Intn(len(countries))],
		}
		// The model-level factor must be shared by all units of the
		// same model: derive its seed from the fleet seed and model id.
		modelSeed := cfg.Seed*1_000_003 + int64(t)*1_009 + int64(model.Index)
		f.Units = append(f.Units, Unit{
			Vehicle: v,
			Model:   NewUsageModel(v, modelSeed, rng.Split()),
		})
	}
	return f, nil
}

// ByType returns the units of the given type.
func (f *Fleet) ByType(t Type) []Unit {
	var out []Unit
	for _, u := range f.Units {
		if u.Vehicle.Model.Type == t {
			out = append(out, u)
		}
	}
	return out
}

// ByModel returns the units of the given model.
func (f *Fleet) ByModel(m Model) []Unit {
	var out []Unit
	for _, u := range f.Units {
		if u.Vehicle.Model == m {
			out = append(out, u)
		}
	}
	return out
}

// Models returns the distinct models present in the fleet, in
// first-seen order.
func (f *Fleet) Models() []Model {
	seen := map[Model]bool{}
	var out []Model
	for _, u := range f.Units {
		if !seen[u.Vehicle.Model] {
			seen[u.Vehicle.Model] = true
			out = append(out, u.Vehicle.Model)
		}
	}
	return out
}

// SimulateAll generates the usage series of every unit, keyed by
// vehicle ID, with one worker per GOMAXPROCS.
func (f *Fleet) SimulateAll() map[string][]DayUsage {
	return f.SimulateAllWorkers(0)
}

// SimulateAllWorkers is SimulateAll with a bounded worker count (<=0
// selects GOMAXPROCS). The output is identical for any worker count:
// each unit's UsageModel owns an independent RNG stream split off in
// fleet order at Generate time, so per-unit simulation consumes no
// shared state and the series per unit does not depend on which
// goroutine (or in which order) it runs.
func (f *Fleet) SimulateAllWorkers(workers int) map[string][]DayUsage {
	series := make([][]DayUsage, len(f.Units))
	// No job can fail; the error return is structurally nil.
	_ = parallel.ForEach(context.Background(), len(f.Units),
		parallel.Options{Workers: workers, Stage: "fleet_simulate"},
		func(_ context.Context, i int) error {
			series[i] = f.Units[i].Model.Simulate(f.Config.Start, f.Config.Days)
			return nil
		})
	out := make(map[string][]DayUsage, len(f.Units))
	for i, u := range f.Units {
		out[u.Vehicle.ID] = series[i]
	}
	return out
}
