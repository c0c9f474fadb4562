// Package obs is the zero-dependency observability layer: a
// concurrency-safe metrics registry (counters, gauges, fixed-bucket
// histograms) with Prometheus text-format exposition, and a leveled
// structured logger. It exists so the reproduction can measure itself:
// the paper's Section 4.5 treats per-algorithm training time as a
// first-class result, and the fleet-serving north star needs request
// telemetry before any performance claim can be checked.
//
// All hot-path operations (Inc, Add, Set, Observe) are lock-free
// atomics after the first lookup of a label child; registration and
// child creation take locks and are meant for init-time or first-use.
package obs

import (
	"net/http"
	"os"
)

// Default is the process-wide registry. Library packages register
// their metrics here at init so binaries expose one coherent metric
// set without threading a registry through every API.
var Default = NewRegistry()

// defaultLogger writes structured key=value lines to stderr at Info.
var defaultLogger = NewLogger(os.Stderr, LevelInfo)

// DefaultLogger returns the process-wide leveled logger.
func DefaultLogger() *Logger { return defaultLogger }

// Handler returns the Prometheus text-format exposition handler for
// the Default registry, suitable for mounting at GET /metrics.
func Handler() http.Handler { return Default.Handler() }

// DurationBuckets are the default histogram bucket upper bounds for
// durations in seconds, spanning a microsecond (a baseline model fit)
// to several seconds (SVR at large w), roughly logarithmic.
var DurationBuckets = []float64{
	1e-6, 2.5e-6, 5e-6,
	1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3,
	0.01, 0.025, 0.05,
	0.1, 0.25, 0.5,
	1, 2.5, 5,
}
