package server

import (
	"fmt"
	"net/http"
	"strconv"

	"vup/internal/obs"
)

// HTTP telemetry, registered on the process-wide registry so the
// binary's GET /metrics exposes it alongside the span histograms.
// Routes are labeled with the mux pattern (not the raw URL) to keep
// cardinality bounded. Request latency is the root span's
// span_seconds{name="METHOD route"}, whose exemplars link a latency
// spike on a dashboard straight to a stored waterfall at
// /debug/traces/{id}.
var (
	httpRequests = obs.Default.Counter(
		"http_requests_total",
		"HTTP requests served, by route pattern and status class.",
		"route", "status")
	httpInFlight = obs.Default.Gauge(
		"http_requests_in_flight",
		"Requests currently being served.")
	writeErrors = obs.Default.Counter(
		"server_write_errors_total",
		"Response bodies that failed to encode or write after the header was sent.")
)

// serverLog carries encode/write failures that can no longer reach the
// client; the HTTP status is already on the wire by then.
var serverLog = obs.DefaultLogger().With("component", "server")

// statusWriter records the status code a handler sent.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// statusClass folds a status code into its Prometheus-conventional
// class label ("2xx", "4xx", ...).
func statusClass(code int) string {
	if code < 100 || code > 599 {
		return "other"
	}
	return strconv.Itoa(code/100) + "xx"
}

// instrument wraps a handler with the per-route telemetry — request
// counter by status class, in-flight gauge — and a root span per
// request, which times it. When the API has a trace collector, the
// trace ID is echoed in the X-Trace-Id response header and bound (with
// the vehicle, when the route has one) onto a request-scoped logger in
// the context, so the handler and the pipeline below it log and trace
// under one identity.
func (a *API) instrument(route string, h http.HandlerFunc) http.Handler {
	requests2xx := httpRequests.With(route, "2xx") // warm the hot child
	inFlight := httpInFlight.With()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		inFlight.Inc()
		defer inFlight.Dec()

		ctx, sp := a.Traces.StartTrace(r.Context(), r.Method+" "+route)
		defer sp.End()
		if traceID := sp.TraceID(); traceID != "" {
			w.Header().Set("X-Trace-Id", traceID)
			logger := obs.DefaultLogger().With("trace_id", traceID)
			if id := r.PathValue("id"); id != "" {
				sp.SetAttr("vehicle", id)
				logger = logger.With("vehicle", id)
			}
			ctx = obs.IntoContext(ctx, logger)
			r = r.WithContext(ctx)
		}

		sw := &statusWriter{ResponseWriter: w}
		h(sw, r)
		status := sw.status
		if status == 0 {
			// Handler wrote nothing; net/http sends 200 on return.
			status = http.StatusOK
		}
		if class := statusClass(status); class == "2xx" {
			requests2xx.Inc()
		} else {
			httpRequests.With(route, class).Inc()
		}
		sp.SetAttrInt("status", status)
		if status >= 500 {
			sp.SetError(fmt.Errorf("status %d", status))
		}
	})
}
