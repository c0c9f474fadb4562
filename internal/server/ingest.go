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
	"errors"
	"net/http"
	"slices"
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

	// Backpressure: every admitted batch ends in an fsync, so refuse
	// early — with a hint — rather than queue unboundedly on the disk.
	// The gate comes before Acquire, so a shed batch never faults its
	// vehicle in (and evicts another) on a lazy store; under overload an
	// unknown vehicle gets the 503 too.
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

	d, _, _, release, err := a.store.Acquire(r.Context(), id)
	if err != nil {
		writeAcquireError(w, id, err)
		return
	}
	// Pin the dataset for the whole ingest: the decode and summarize
	// steps below read its channel set and tail, and an eviction before
	// AppendContext would force a redundant reload.
	defer release()

	// The three ingest stages are siblings under the request's root
	// span: each starts from r.Context(), so no stage's time is
	// counted inside another's.
	_, sp := trace.Start(r.Context(), "ingest.decode")
	batch, err := decodeIngest(http.MaxBytesReader(w, r.Body, maxIngestBody), d)
	sp.SetError(err)
	sp.End()
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad ingest body: %v", err)
		return
	}
	if batch.n == 0 {
		batch.release()
		writeError(w, http.StatusBadRequest, "ingest body has no reports")
		return
	}

	_, sp = trace.Start(r.Context(), "ingest.summarize")
	sp.SetAttrInt("reports", batch.n)
	days, span, accepted, reasons := summarizeReports(d, batch)
	batch.release()
	sp.SetAttrInt("days", len(days))
	sp.End()

	if span > maxIngestDays {
		writeError(w, http.StatusUnprocessableEntity,
			"batch spans %d days, limit %d: reload the vehicle from a snapshot instead", span, maxIngestDays)
		return
	}
	resp := ingestResponse{Vehicle: id, Accepted: accepted, Reasons: reasons}
	if len(days) > 0 {
		var appendCtx context.Context
		appendCtx, sp = trace.Start(r.Context(), "ingest.append")
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
	// Reports count only once the batch has landed: a refused span or
	// a failed append leaves the counters as they were.
	for reason, n := range reasons {
		resp.Rejected += n
		ingestRejected.With(reason).Add(uint64(n))
	}
	ingestAccepted.With().Add(uint64(accepted))
	resp.TookMS = float64(time.Since(start).Microseconds()) / 1000
	writeJSON(w, http.StatusOK, resp)
}

// dayAcc accumulates one appended day's reports.
type dayAcc struct {
	hours    float64
	observed bool
}

// summarizeReports folds a decoded batch into whole summarized days
// ready for Store.AppendContext, mirroring the offline etl.FromReports
// aggregation: daily hours are summed engine-on time, channel values are
// sample-weighted means, channels outside the dataset's feature set
// were dropped at decode. Only days strictly after the stored series
// qualify — reports for days the server already holds are rejected as
// "stale" (history is immutable; see Plan.ExtendContext). The returned
// slice is contiguous from the day after the stored series to the
// newest reported day: days without any report are emitted unobserved,
// so the date grid stays implicit (dense) and Clean repairs them with
// the configured policy. span counts those days; a span over
// maxIngestDays returns no days at all, so a far-future report costs
// nothing to refuse. Reports are folded in batch order, so every sum
// is the same float64 whatever the wire's channel order.
func summarizeReports(d *etl.VehicleDataset, b *ingestBatch) (days []fstore.Day, span, accepted int, reasons map[string]int) {
	reasons = make(map[string]int)
	last := d.Date(d.Len() - 1)
	reports := b.reports[:b.n]

	// Classify every report and find the newest day first. dayOf holds a
	// report's day, 1 for the day after last, or 0 when it is rejected.
	dayOf := b.dayOf[:0]
	for _, r := range reports {
		k := 0
		date := r.start.UTC().Truncate(24 * time.Hour)
		switch {
		case r.start.IsZero():
			reasons["missing_start"]++
		case r.engineOn < 0 || r.engineOn > canbus.ReportInterval.Seconds():
			reasons["invalid_engine_on"]++ // decoded numbers are finite
		case !date.After(last):
			reasons["stale"]++
		default:
			// Sub saturates, so a date centuries ahead still reads as
			// far beyond the limit.
			k = max(int(date.Sub(last)/(24*time.Hour)), 1)
			span = max(span, k)
			accepted++
		}
		dayOf = append(dayOf, k)
	}
	b.dayOf = dayOf
	if span == 0 || span > maxIngestDays {
		return nil, span, accepted, reasons
	}

	n := len(b.names)
	accs := slices.Grow(b.accs[:0], span)[:span]
	clear(accs)
	// sums holds, per day, the n weighted sums and then the n weights.
	sums := slices.Grow(b.sums[:0], 2*n*span)[:2*n*span]
	clear(sums)
	b.accs, b.sums = accs, sums
	for i, r := range reports {
		k := dayOf[i]
		if k == 0 {
			continue
		}
		acc := &accs[k-1]
		acc.observed = true
		acc.hours += r.engineOn / 3600
		if r.chans < 0 {
			continue
		}
		ds := sums[2*n*(k-1) : 2*n*k]
		for j, ch := range b.chans[r.chans : r.chans+n] {
			if ch.samples > 0 {
				ds[j] += ch.mean * float64(ch.samples)
				ds[n+j] += float64(ch.samples)
			}
		}
	}

	days = make([]fstore.Day, span)
	date := last
	for k := range days {
		date = date.AddDate(0, 0, 1)
		ds := sums[2*n*k : 2*n*(k+1)]
		day := fstore.Day{Date: date, Hours: accs[k].hours, Observed: accs[k].observed, Channels: make(map[string]float64, n)}
		for j, name := range b.names {
			v := 0.0
			if w := ds[n+j]; w > 0 {
				v = ds[j] / w
			}
			day.Channels[name] = v
		}
		days[k] = day
	}
	return days, span, accepted, reasons
}

// planSeed is the last compiled plan for one vehicle+config, kept so
// the next build after an append can extend it over the new tail
// instead of recompiling the scenario view and, for a forecast plan,
// recopying its window.
type planSeed struct {
	fp   uint64
	plan *core.Plan
}

// maxPlanSeeds bounds the plan-seed map. A point-forecast seed is a
// forecast plan, a copy of W+MaxLag view days whatever the series
// length; an evaluation or interval seed is a full plan, which holds
// the dataset (and, under next-working-day, its compacted view).
// Neither is charged to the store's resident budget, so on a
// larger-than-RAM lazy fleet the seed map must shed like the store
// does. Eviction is arbitrary-victim (Go map iteration order), which
// is cheap and good enough for a warm-tail optimization: a shed seed
// only costs one plan recompilation.
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
