package server

// The streaming-ingest endpoint: POST /v1/vehicles/{id}/ingest closes
// the paper's CAN→forecast loop online. The on-board controller's
// 10-minute aggregated reports (canbus.Report) arrive in batches, are
// summarized into whole days exactly as the offline ETL does
// (etl.FromReports: hours from engine-on seconds, sample-weighted
// channel means), appended through the incremental write path
// (Store.AppendContext: suffix-only Clean, append-log durability
// before visibility, per-vehicle generation bump) and become the tail the
// very next forecast trains on — via Plan.ExtendContext when the
// compiled features can be reused.

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"sort"
	"time"

	"vup/internal/canbus"
	"vup/internal/core"
	"vup/internal/etl"
	"vup/internal/fstore"
	"vup/internal/obs"
	"vup/internal/obs/trace"
)

// Ingest telemetry, on the process-wide registry next to the serving
// metrics: how much raw data flows in, how much of it is dropped and
// why, and how long a report takes to become visible to forecasts.
var (
	ingestAccepted = obs.Default.Counter(
		"ingest_reports_accepted_total",
		"Raw 10-minute reports folded into an appended day.")
	ingestRejected = obs.Default.Counter(
		"ingest_reports_rejected_total",
		"Raw reports dropped at ingest, by reason.",
		"reason")
	ingestDays = obs.Default.Counter(
		"ingest_days_appended_total",
		"Summarized days appended to vehicle series (gap days included).")
	ingestBackpressure = obs.Default.Counter(
		"ingest_backpressure_rejections_total",
		"Ingest batches refused with 503 because the concurrency gate was full.")
	ingestLag = obs.Default.Histogram(
		"ingest_to_visible_seconds",
		"Latency from batch receipt to the appended days being visible to forecasts.",
		obs.DurationBuckets)
	planExtended = obs.Default.Counter(
		"forecast_plan_extended_total",
		"Forecast builds that reused a compiled plan by extending it over appended days.")
	planRebuilt = obs.Default.Counter(
		"forecast_plan_rebuilt_total",
		"Forecast builds that compiled a plan from scratch.")
)

// defaultIngestConcurrency bounds concurrent ingest batches when the
// operator sets no explicit limit: each batch fsyncs, so a small gate
// keeps the disk queue short and sheds load early instead of queueing.
const defaultIngestConcurrency = 4

// maxIngestDays bounds the days one batch may append, counting the
// unobserved gap days materialized between the stored series and the
// newest report. A device that was offline for longer should re-enter
// through a full snapshot load, not the incremental log.
const maxIngestDays = 120

// ingestChannel mirrors canbus.ChannelStats on the wire.
type ingestChannel struct {
	Samples int     `json:"samples"`
	Mean    float64 `json:"mean"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
}

// ingestReport is one raw 10-minute report as uploaded by a device.
type ingestReport struct {
	Start           time.Time                `json:"start"`
	EngineOnSeconds float64                  `json:"engine_on_seconds"`
	Channels        map[string]ingestChannel `json:"channels"`
}

// ingestRequest is the POST body: a batch of reports for one vehicle.
type ingestRequest struct {
	Reports []ingestReport `json:"reports"`
}

// ingestResponse reports what happened to the batch. Rejected reports
// are counted by reason; the batch as a whole still succeeds as long
// as it is well-formed — a replayed device buffer legitimately
// overlaps days the server already holds.
type ingestResponse struct {
	Vehicle      string         `json:"vehicle"`
	Accepted     int            `json:"accepted"`
	Rejected     int            `json:"rejected"`
	Reasons      map[string]int `json:"rejected_reasons,omitempty"`
	DaysAppended int            `json:"days_appended"`
	Generation   uint64         `json:"generation"`
	TookMS       float64        `json:"took_ms"`
}

// ingestGate returns the concurrency semaphore, sized on first use
// (Handler runs before serving starts, so this is not racy).
func (a *API) ingestGate() chan struct{} {
	if a.ingestSem == nil {
		n := a.IngestConcurrency
		if n <= 0 {
			n = defaultIngestConcurrency
		}
		a.ingestSem = make(chan struct{}, n)
	}
	return a.ingestSem
}

func (a *API) handleIngest(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	id := r.PathValue("id")
	d, _, _, release, err := a.store.Acquire(r.Context(), id)
	if err != nil {
		writeAcquireError(w, id, err)
		return
	}
	// Pin the dataset for the whole ingest: the summarize step below
	// reads its tail, and an eviction between summarize and
	// AppendContext would force a redundant reload.
	defer release()

	// Backpressure: every admitted batch ends in an fsync, so refuse
	// early — with a hint — rather than queue unboundedly on the disk.
	sem := a.ingestGate()
	select {
	case sem <- struct{}{}:
		//lint:allow ctxwait releasing a slot we hold can never block: the send above guarantees the buffer is non-empty
		defer func() { <-sem }()
	default:
		ingestBackpressure.With().Inc()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "ingest at capacity, retry later")
		return
	}

	ctx, sp := trace.Start(r.Context(), "ingest.decode")
	var req ingestRequest
	err = json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20)).Decode(&req)
	sp.SetError(err)
	sp.End()
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad ingest body: %v", err)
		return
	}
	if len(req.Reports) == 0 {
		writeError(w, http.StatusBadRequest, "ingest body has no reports")
		return
	}

	ctx, sp = trace.Start(ctx, "ingest.summarize")
	sp.SetAttrInt("reports", len(req.Reports))
	days, accepted, reasons := summarizeReports(d, req.Reports)
	sp.SetAttrInt("days", len(days))
	sp.End()

	rejected := 0
	for reason, n := range reasons {
		rejected += n
		ingestRejected.With(reason).Add(uint64(n))
	}
	ingestAccepted.With().Add(uint64(accepted))

	resp := ingestResponse{Vehicle: id, Accepted: accepted, Rejected: rejected, Reasons: reasons}
	if len(days) > maxIngestDays {
		writeError(w, http.StatusUnprocessableEntity,
			"batch spans %d days, limit %d: reload the vehicle from a snapshot instead", len(days), maxIngestDays)
		return
	}
	if len(days) > 0 {
		var appendCtx context.Context
		appendCtx, sp = trace.Start(ctx, "ingest.append")
		sp.SetAttrInt("days", len(days))
		_, gen, err := a.store.AppendContext(appendCtx, id, days, a.IngestPolicy)
		sp.SetError(err)
		sp.End()
		if err != nil {
			status := http.StatusUnprocessableEntity
			if errors.Is(err, ErrUnknownVehicle) {
				status = http.StatusNotFound
			}
			writeError(w, status, "append failed: %v", err)
			return
		}
		resp.DaysAppended = len(days)
		resp.Generation = gen
		ingestDays.With().Add(uint64(len(days)))
		// The appended days are now visible: a forecast issued from here
		// on trains on them (the generation bump invalidated stale
		// artifacts). This is the ingest-to-visible lag.
		ingestLag.With().ObserveSince(start)
	} else {
		resp.Generation = a.store.Generation(id)
	}
	resp.TookMS = float64(time.Since(start).Microseconds()) / 1000
	writeJSON(w, http.StatusOK, resp)
}

// summarizeReports folds raw reports into whole summarized days ready
// for Store.AppendContext, mirroring the offline etl.FromReports
// aggregation: daily hours are summed engine-on time, channel values are
// sample-weighted means, channels outside the dataset's feature set
// are ignored. Only days strictly after the stored series qualify —
// reports for days the server already holds are rejected as "stale"
// (history is immutable; see Plan.ExtendContext). The returned slice
// is contiguous from the day after the stored series to the newest
// reported day: days without any report are emitted unobserved, so the
// date grid stays implicit (dense) and Clean repairs them with the
// configured policy.
func summarizeReports(d *etl.VehicleDataset, reports []ingestReport) (days []fstore.Day, accepted int, reasons map[string]int) {
	reasons = make(map[string]int)
	reject := func(reason string) { reasons[reason]++ }
	last := d.Date(d.Len() - 1)

	type acc struct {
		hours    float64
		observed bool
		sums     map[string]float64
		weights  map[string]float64
	}
	byDate := make(map[time.Time]*acc)
	var maxDate time.Time
	for _, r := range reports {
		if r.Start.IsZero() {
			reject("missing_start")
			continue
		}
		if r.EngineOnSeconds < 0 || r.EngineOnSeconds > canbus.ReportInterval.Seconds() ||
			math.IsNaN(r.EngineOnSeconds) || math.IsInf(r.EngineOnSeconds, 0) {
			reject("invalid_engine_on")
			continue
		}
		date := r.Start.UTC().Truncate(24 * time.Hour)
		if !date.After(last) {
			reject("stale")
			continue
		}
		a, ok := byDate[date]
		if !ok {
			a = &acc{sums: make(map[string]float64), weights: make(map[string]float64)}
			byDate[date] = a
		}
		a.observed = true
		a.hours += r.EngineOnSeconds / 3600
		for name, cs := range r.Channels {
			if _, ok := d.Channels[name]; !ok {
				continue // channel outside the study's feature set
			}
			if cs.Samples <= 0 || math.IsNaN(cs.Mean) || math.IsInf(cs.Mean, 0) {
				continue
			}
			a.sums[name] += cs.Mean * float64(cs.Samples)
			a.weights[name] += float64(cs.Samples)
		}
		accepted++
		if date.After(maxDate) {
			maxDate = date
		}
	}
	if len(byDate) == 0 {
		return nil, accepted, reasons
	}

	// Channel names once, sorted, for deterministic map construction.
	names := make([]string, 0, len(d.Channels))
	for name := range d.Channels {
		names = append(names, name)
	}
	sort.Strings(names)

	for date := last.AddDate(0, 0, 1); !date.After(maxDate); date = date.AddDate(0, 0, 1) {
		day := fstore.Day{Date: date, Channels: make(map[string]float64, len(names))}
		for _, name := range names {
			day.Channels[name] = 0
		}
		if a, ok := byDate[date]; ok {
			day.Observed = true
			day.Hours = a.hours
			for _, name := range names {
				if w := a.weights[name]; w > 0 {
					day.Channels[name] = a.sums[name] / w
				}
			}
		}
		days = append(days, day)
	}
	return days, accepted, reasons
}

// planSeed is the last compiled plan for one vehicle+config, kept so
// the next build after an append can extend it over the new tail
// (amortized O(features) per day) instead of rematerializing the whole
// lag superset.
type planSeed struct {
	fp   uint64
	plan *core.Plan
}

// maxPlanSeeds bounds the plan-seed map. A point-forecast seed is a
// forecast plan, O((W+MaxLag)×features) whatever the series length; an
// evaluation or interval seed is a full plan holding the dataset and
// its whole lag superset. Neither is charged to the store's resident
// budget, so on a larger-than-RAM lazy fleet the seed map must shed
// like the store does. Eviction is arbitrary-victim (Go map iteration
// order), which is cheap and good enough for a warm-tail optimization:
// a shed seed only costs one plan recompilation.
const maxPlanSeeds = 4096

// loadSeed fetches the plan seed for a key, if present.
func (a *API) loadSeed(key string) (*planSeed, bool) {
	a.seedsMu.Lock()
	defer a.seedsMu.Unlock()
	s, ok := a.seeds[key]
	return s, ok
}

// storeSeed records a plan seed, shedding an arbitrary entry when the
// map is full and the key is new.
func (a *API) storeSeed(key string, s *planSeed) {
	a.seedsMu.Lock()
	defer a.seedsMu.Unlock()
	if a.seeds == nil {
		a.seeds = make(map[string]*planSeed)
	}
	if _, exists := a.seeds[key]; !exists && len(a.seeds) >= maxPlanSeeds {
		for victim := range a.seeds {
			delete(a.seeds, victim)
			break
		}
	}
	a.seeds[key] = s
}

// planFor returns a Plan for the dataset: the seeded plan verbatim
// when the fingerprint still matches, an extension of it when only the
// tail grew (the streaming-ingest fast path), and a fresh compilation
// otherwise — ExtendContext refuses any rewrite of history, so a
// falsified extension can never serve stale rows. forecast asks for a
// forecast plan (core.NewForecastPlanContext), which only fits and
// forecasts; its seeds are keyed apart, so an evaluation never
// receives one.
func (a *API) planFor(ctx context.Context, d *etl.VehicleDataset, fp uint64, cfg core.Config, forecast bool) (*core.Plan, error) {
	key := d.VehicleID + "\x1f" + cfg.Fingerprint()
	compile := core.NewPlanContext
	if forecast {
		key += "\x1fforecast"
		compile = core.NewForecastPlanContext
	}
	if seed, ok := a.loadSeed(key); ok {
		if seed.fp == fp {
			return seed.plan, nil
		}
		if np, err := seed.plan.ExtendContext(ctx, d); err == nil {
			planExtended.With().Inc()
			a.storeSeed(key, &planSeed{fp: fp, plan: np})
			return np, nil
		}
	}
	p, err := compile(ctx, d, cfg)
	if err != nil {
		return nil, err
	}
	planRebuilt.With().Inc()
	a.storeSeed(key, &planSeed{fp: fp, plan: p})
	return p, nil
}
