package core

import (
	"errors"
	"fmt"
	"strings"

	"vup/internal/canbus"
	"vup/internal/regress"
	"vup/internal/timeseries"
)

// Scenario selects the prediction target of Section 3.
type Scenario int

const (
	// NextDay predicts the utilization hours of the next calendar day,
	// idle days included.
	NextDay Scenario = iota
	// NextWorkingDay predicts the utilization hours of the next day
	// the vehicle is used at least ActiveThreshold hours; idle days
	// are removed from the series first.
	NextWorkingDay
)

// String implements fmt.Stringer.
func (s Scenario) String() string {
	if s == NextWorkingDay {
		return "next-working-day"
	}
	return "next-day"
}

// Config parameterizes the pipeline. The zero value is not valid; use
// DefaultConfig and override.
type Config struct {
	// Algorithm is the regression model (default SVR, the paper's
	// best single model).
	Algorithm regress.Algorithm
	// ModelFactory, when set, overrides Algorithm with custom-built
	// models (e.g. non-default hyper-parameters). Algorithm is then
	// only used as the result label. One evaluation calls it from
	// several goroutines at once (one per window worker), so it must be
	// safe for concurrent use; each model it returns is used by one
	// goroutine only.
	ModelFactory func() (regress.Regressor, error)
	// Scenario selects next-day or next-working-day prediction.
	Scenario Scenario
	// Strategy selects the sliding or expanding training window
	// (Figure 3).
	Strategy timeseries.Strategy
	// W is the training window size in days. The paper explores up to
	// 150 and settles on 140 (Section 4.3).
	W int
	// K is the number of lags kept by the autocorrelation-based
	// feature selection; the paper settles on 20.
	K int
	// Selection picks the lag-selection rule (default: the paper's
	// top-K ranking).
	Selection Selection
	// MaxLag is the lag search budget: lags are ranked within
	// [1, MaxLag]. Figure 4 sweeps K up to 40, so the default budget
	// is 42 days (six weeks, preserving weekly harmonics).
	MaxLag int
	// Channels are the CAN channels lagged alongside the utilization
	// hours. Defaults to every analog channel.
	Channels []string
	// IncludeContext appends the target day's contextual features.
	IncludeContext bool
	// TargetChannels are channels whose target-day value is a feature
	// (context known in advance, e.g. the weather forecast attached
	// via etl.AttachWeather). Empty by default.
	TargetChannels []string
	// ActiveThreshold is the working-day threshold in hours
	// (Section 3: "used at least 1 hour").
	ActiveThreshold float64
	// Stride evaluates every Stride-th test day (1 = the paper's
	// every-day evaluation; larger values trade fidelity for speed).
	Stride int
	// MinTrainRows skips windows whose training matrix ends up
	// smaller than this (default 10).
	MinTrainRows int
	// Stage labels the fleet-evaluation worker pool's telemetry
	// (sweep_job_seconds, sweep_jobs_in_flight); experiment runners set
	// it to their experiment id. Empty defaults to "fleet". It has no
	// effect on results.
	Stage string
}

// stage returns the telemetry label for fleet evaluations.
func (c Config) stage() string {
	if c.Stage == "" {
		return "fleet"
	}
	return c.Stage
}

// DefaultConfig returns the paper's recommended settings: SVR, K=20,
// w=140, sliding window, next-day scenario.
func DefaultConfig() Config {
	return Config{
		Algorithm:       regress.AlgSVR,
		Scenario:        NextDay,
		Strategy:        timeseries.Sliding,
		W:               140,
		K:               20,
		MaxLag:          42,
		Channels:        canbus.AnalogChannels(),
		IncludeContext:  true,
		ActiveThreshold: 1,
		Stride:          1,
		MinTrainRows:    10,
	}
}

// Fingerprint returns a canonical string covering every field that
// influences pipeline results, so two configs with equal fingerprints
// produce identical forecasts on identical data. It is the config
// component of trained-artifact cache keys (internal/server). Stage is
// excluded: it only labels telemetry. ModelFactory is a function and
// contributes presence alone — a caller that swaps factories between
// otherwise-identical configs must key on more than the fingerprint.
func (c Config) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "alg=%s|factory=%t|scenario=%s|strategy=%d|w=%d|k=%d|sel=%s|maxlag=%d",
		c.Algorithm, c.ModelFactory != nil, c.Scenario, int(c.Strategy), c.W, c.K, c.Selection, c.MaxLag)
	fmt.Fprintf(&b, "|ch=%s|ctx=%t|tch=%s|active=%g|stride=%d|minrows=%d",
		strings.Join(c.Channels, ","), c.IncludeContext, strings.Join(c.TargetChannels, ","),
		c.ActiveThreshold, c.Stride, c.MinTrainRows)
	return b.String()
}

// Selection chooses the lag-selection rule of the feature-selection
// step.
type Selection int

const (
	// SelectTopK keeps the K lags with the largest autocorrelation —
	// the paper's rule.
	SelectTopK Selection = iota
	// SelectSignificant keeps only lags outside the 95% white-noise
	// band (at most K), falling back to top-K when none are
	// significant — the statistically gated variant.
	SelectSignificant
)

// String implements fmt.Stringer.
func (s Selection) String() string {
	if s == SelectSignificant {
		return "significant"
	}
	return "top-k"
}

// ErrConfig wraps configuration validation failures.
var ErrConfig = errors.New("core: invalid config")

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.W <= 1 {
		return fmt.Errorf("%w: window w=%d", ErrConfig, c.W)
	}
	if c.K <= 0 {
		return fmt.Errorf("%w: K=%d", ErrConfig, c.K)
	}
	if c.MaxLag <= 0 {
		return fmt.Errorf("%w: MaxLag=%d", ErrConfig, c.MaxLag)
	}
	if c.Stride <= 0 {
		return fmt.Errorf("%w: stride=%d", ErrConfig, c.Stride)
	}
	if c.ActiveThreshold < 0 {
		return fmt.Errorf("%w: active threshold %v", ErrConfig, c.ActiveThreshold)
	}
	if c.MinTrainRows < 1 {
		return fmt.Errorf("%w: min train rows %d", ErrConfig, c.MinTrainRows)
	}
	if c.ModelFactory == nil {
		if _, err := regress.New(c.Algorithm); err != nil {
			return fmt.Errorf("%w: %v", ErrConfig, err)
		}
	}
	return nil
}

// newModel builds a fresh regressor for the configuration, wrapped so
// its fit and predict durations land in the pipeline stage histograms.
func (c Config) newModel() (regress.Regressor, error) {
	var m regress.Regressor
	var err error
	if c.ModelFactory != nil {
		m, err = c.ModelFactory()
	} else {
		m, err = regress.New(c.Algorithm)
	}
	if err != nil {
		return nil, err
	}
	return regress.Instrument(m, observeStage), nil
}
