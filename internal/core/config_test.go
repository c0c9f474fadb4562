package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"vup/internal/canbus"
	"vup/internal/regress"
	"vup/internal/timeseries"
)

// TestConfigFingerprintExact pins the fingerprint string byte for
// byte: it is the config half of every forecast-cache key, so a change
// in its spelling silently invalidates warm caches. The three configs
// are DefaultConfig, vup-server's base config and one with every field
// set.
func TestConfigFingerprintExact(t *testing.T) {
	server := DefaultConfig()
	server.Algorithm = regress.AlgLasso
	server.W, server.K, server.MaxLag, server.Stride = 120, 12, 28, 5
	server.Channels = []string{canbus.ChanFuelRate, canbus.ChanEngineSpeed}
	every := Config{
		Algorithm:       regress.AlgGB,
		ModelFactory:    func() (regress.Regressor, error) { return regress.New(regress.AlgGB) },
		Scenario:        NextWorkingDay,
		Strategy:        timeseries.Expanding,
		W:               150,
		K:               40,
		Selection:       SelectSignificant,
		MaxLag:          60,
		Channels:        []string{"a", "b", "c"},
		IncludeContext:  true,
		TargetChannels:  []string{"temp_c", "rain_mm"},
		ActiveThreshold: 0.25,
		Stride:          7,
		MinTrainRows:    30,
		Stage:           "x",
	}
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"default", DefaultConfig(), "alg=SVR|factory=false|scenario=next-day|strategy=0|w=140|k=20|sel=top-k|maxlag=42|ch=engine_rpm,fuel_level_pct,oil_pressure_kpa,coolant_temp_c,fuel_rate_lph,speed_kmh,percent_load,digging_press_kpa,pump_drive_temp_c,oil_tank_temp_c|ctx=true|tch=|active=1|stride=1|minrows=10"},
		{"server", server, "alg=Lasso|factory=false|scenario=next-day|strategy=0|w=120|k=12|sel=top-k|maxlag=28|ch=fuel_rate_lph,engine_rpm|ctx=true|tch=|active=1|stride=5|minrows=10"},
		{"every-field", every, "alg=GB|factory=true|scenario=next-working-day|strategy=1|w=150|k=40|sel=significant|maxlag=60|ch=a,b,c|ctx=true|tch=temp_c,rain_mm|active=0.25|stride=7|minrows=30"},
	} {
		if got := tc.cfg.Fingerprint(); got != tc.want {
			t.Errorf("%s:\n got %q\nwant %q", tc.name, got, tc.want)
		}
	}
}

// TestConfigFingerprintFloatSpelling holds the activity threshold's
// spelling to fmt's %g, which the fingerprint was first written with,
// across the values where the two could part: exponents, negative
// zero and the non-finite values.
func TestConfigFingerprintFloatSpelling(t *testing.T) {
	for _, v := range []float64{0, math.Copysign(0, -1), 1, 0.1, 1.5e-5, 1e-4, 123456, 1234567, 1e21, 1e300, -2.5, math.Inf(1), math.Inf(-1), math.NaN()} {
		c := DefaultConfig()
		c.ActiveThreshold = v
		want := fmt.Sprintf("|active=%g|", v)
		if got := c.Fingerprint(); !strings.Contains(got, want) {
			t.Errorf("threshold %v: fingerprint %q lacks %q", v, got, want)
		}
	}
}

func TestConfigFingerprintCanonical(t *testing.T) {
	a, b := DefaultConfig(), DefaultConfig()
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical configs fingerprint differently")
	}
	// Stage is a telemetry label, not a result input.
	b.Stage = "experiment-7"
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("Stage leaked into the fingerprint")
	}
}

func TestConfigFingerprintSensitivity(t *testing.T) {
	base := DefaultConfig()
	mutations := map[string]func(*Config){
		"Algorithm":       func(c *Config) { c.Algorithm = regress.AlgMovingAverage },
		"Scenario":        func(c *Config) { c.Scenario = NextWorkingDay },
		"Strategy":        func(c *Config) { c.Strategy = timeseries.Expanding },
		"W":               func(c *Config) { c.W = 99 },
		"K":               func(c *Config) { c.K = 7 },
		"Selection":       func(c *Config) { c.Selection = SelectSignificant },
		"MaxLag":          func(c *Config) { c.MaxLag = 14 },
		"Channels":        func(c *Config) { c.Channels = []string{"fuel_rate"} },
		"IncludeContext":  func(c *Config) { c.IncludeContext = false },
		"TargetChannels":  func(c *Config) { c.TargetChannels = []string{"temp_c"} },
		"ActiveThreshold": func(c *Config) { c.ActiveThreshold = 2 },
		"Stride":          func(c *Config) { c.Stride = 3 },
		"MinTrainRows":    func(c *Config) { c.MinTrainRows = 20 },
		"ModelFactory": func(c *Config) {
			c.ModelFactory = func() (regress.Regressor, error) { return regress.New(regress.AlgLinear) }
		},
	}
	for field, mutate := range mutations {
		c := DefaultConfig()
		mutate(&c)
		if c.Fingerprint() == base.Fingerprint() {
			t.Errorf("%s change invisible to fingerprint", field)
		}
	}
	// The fingerprint is a flat canonical string; the cache-key unit
	// separator must never appear in it.
	if strings.Contains(base.Fingerprint(), "\x1f") {
		t.Error("fingerprint contains the cache-key separator")
	}
}
