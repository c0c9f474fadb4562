// Package server exposes the prediction pipeline as an HTTP API — the
// shape a fleet-management backend would deploy: per-vehicle forecast,
// hold-out evaluation and fleet listing endpoints over a dataset store
// that serves from memory and can be durably backed by the on-disk
// fleet store (internal/fstore) via SetPersister. The store keeps one
// entry per roster vehicle on a single residency path: an eager store
// has every entry resident, a lazy one faults entries in and evicts
// them under a budget. Handlers are stdlib net/http only.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"time"

	"vup/internal/classify"
	"vup/internal/core"
	"vup/internal/etl"
	"vup/internal/fstore"
	"vup/internal/obs"
	"vup/internal/obs/trace"
	"vup/internal/regress"
)

// ErrUnknownVehicle marks writes addressing a vehicle the store does
// not hold.
var ErrUnknownVehicle = errors.New("unknown vehicle")

// Store holds the per-vehicle datasets the API serves: one entry per
// vehicle of the fleet roster, resident or not (see resident.go). An
// eager store (NewStore) is a roster whose every dataset is resident
// from construction and that has no budget, so nothing evicts; a lazy
// store (NewLazyStore) faults datasets in through a loader on first
// use and evicts them under a resident-bytes budget. Both run the same
// code path. It is safe for concurrent use; Put may replace datasets
// at run time, bumping that vehicle's generation so caches keyed on
// its previous state invalidate — without discarding every other
// vehicle's cached artifacts, which is what a streaming per-vehicle
// ingest needs.
//
// Writes are serialized per vehicle and persist OUTSIDE the store-wide
// lock: the durability hook fsyncs, and a disk round-trip under s.mu
// would stall every reader of every vehicle for its duration. The
// store-wide lock is only ever held for in-memory bookkeeping. Lock
// order is always vehicle lock → s.mu, never the reverse.
type Store struct {
	mu sync.RWMutex
	// vehicles is the fleet roster: every vehicle the store answers
	// for, resident or not, keyed by ID.
	vehicles map[string]*vehicle
	// lru is the recency order of the resident entries.
	lru lruList
	// resident counts resident entries and residentBytes sums their
	// sizes; budget bounds residentBytes, <= 0 means no eviction.
	resident      int
	residentBytes int64
	budget        int64
	// loader, when set, faults one vehicle in on miss (lazy mode).
	// Immutable after construction.
	loader func(id string) (*etl.VehicleDataset, error)
	// persist, when set, is called on every Put before the dataset
	// becomes visible; a persist failure rejects the Put.
	persist func(*etl.VehicleDataset) error
	// appendLog, when set, is the incremental durability hook
	// AppendContext prefers over persist: one fsynced log record
	// instead of a full vehicle snapshot per appended batch.
	appendLog func(vehicleID string, days ...fstore.Day) error
	// compact, when set, runs after every successful AppendContext
	// under the vehicle's writer lock (append-log backlog folding).
	compact func(*etl.VehicleDataset) (bool, error)

	// vmu guards vlocks, the per-vehicle writer mutexes. A vehicle's
	// writers queue on its own mutex, so a slow persist of vehicle A
	// never blocks a Put of vehicle B — or any reader. Entries are
	// refcounted and dropped at zero, so the map tracks vehicles with
	// in-flight writers, not every ID ever written.
	vmu    sync.Mutex
	vlocks map[string]*vlock
}

// NewStore builds an eager store from datasets: a roster of their
// vehicle IDs with every dataset resident. Vehicle IDs must be
// non-empty and distinct, and every dataset must pass Validate; an
// empty or misaligned dataset would otherwise surface later as a
// broken response body (NaN active_fraction) or an index panic.
func NewStore(datasets []*etl.VehicleDataset) (*Store, error) {
	ids := make([]string, len(datasets))
	for i, d := range datasets {
		ids[i] = d.VehicleID
	}
	s, err := newRoster(ids)
	if err != nil {
		return nil, err
	}
	for _, d := range datasets {
		if err := d.Validate(); err != nil {
			return nil, fmt.Errorf("server: dataset %q: %w", d.VehicleID, err)
		}
		s.insertLocked(s.vehicles[d.VehicleID], d, d.Fingerprint(), d.SizeBytes())
	}
	return s, nil
}

// SetPersister installs a durability hook called synchronously on
// every subsequent Put, before the dataset becomes visible to readers.
// A failing hook rejects the Put, so memory and disk cannot drift
// apart silently. The server wires this to fstore.Dir.SaveVehicle when
// started with -data-dir.
func (s *Store) SetPersister(fn func(*etl.VehicleDataset) error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.persist = fn
}

// SetAppender installs the incremental durability hook AppendContext
// uses: one fsynced append-log record per batch instead of a full
// vehicle snapshot. The server wires this to fstore.Dir.Append when
// started with -data-dir; without it, AppendContext falls back to the
// persister.
func (s *Store) SetAppender(fn func(vehicleID string, days ...fstore.Day) error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.appendLog = fn
}

// vlock is one vehicle's refcounted writer mutex: refs counts holders
// and waiters, and the map entry is dropped when it reaches zero, so
// churning vehicle IDs cannot grow vlocks without bound.
type vlock struct {
	mu   sync.Mutex
	refs int
}

// lockVehicle acquires one vehicle's writer mutex, creating the entry
// on first use. Pair with unlockVehicle.
func (s *Store) lockVehicle(id string) {
	s.vmu.Lock()
	if s.vlocks == nil {
		s.vlocks = make(map[string]*vlock)
	}
	l, ok := s.vlocks[id]
	if !ok {
		l = &vlock{}
		s.vlocks[id] = l
	}
	// Count the reference before blocking: a concurrent unlockVehicle
	// must not delete an entry someone is queued on (the queued waiter
	// would otherwise race a fresh lockVehicle onto a second mutex for
	// the same vehicle).
	l.refs++
	s.vmu.Unlock()
	l.mu.Lock()
}

// unlockVehicle releases one vehicle's writer mutex and drops the map
// entry once no holder or waiter references it.
func (s *Store) unlockVehicle(id string) {
	s.vmu.Lock()
	l := s.vlocks[id]
	l.mu.Unlock()
	l.refs--
	if l.refs == 0 {
		delete(s.vlocks, id)
	}
	s.vmu.Unlock()
}

// Put inserts or replaces one vehicle's dataset and bumps that
// vehicle's generation, invalidating cached artifacts trained on its
// prior state. Other vehicles' generations — and therefore their
// cached artifacts — are untouched. With a persister installed, the
// dataset is persisted first and an error leaves the store unchanged;
// the persist (a disk fsync) runs outside the store-wide lock, under
// the vehicle's own writer mutex, so it never stalls readers or other
// vehicles' writers.
func (s *Store) Put(d *etl.VehicleDataset) error {
	if d.VehicleID == "" {
		return fmt.Errorf("server: dataset has an empty vehicle id")
	}
	if err := d.Validate(); err != nil {
		return fmt.Errorf("server: dataset %q: %w", d.VehicleID, err)
	}
	// The writer lock lives outside the roster, so a new vehicle is
	// locked before it has an entry and a failed persist leaves none.
	s.lockVehicle(d.VehicleID)
	defer s.unlockVehicle(d.VehicleID)
	s.mu.RLock()
	persist := s.persist
	s.mu.RUnlock()
	if persist != nil {
		if err := persist(d); err != nil {
			return fmt.Errorf("server: persist %q: %w", d.VehicleID, err)
		}
	}
	fp, size := d.Fingerprint(), d.SizeBytes()
	s.mu.Lock()
	v := s.vehicles[d.VehicleID]
	if v == nil {
		v = &vehicle{id: d.VehicleID}
		s.vehicles[v.id] = v
	}
	s.insertLocked(v, d, fp, size)
	v.gen++
	// A Put that persisted wrote a full snapshot; without a persister
	// there is no disk state to be behind of either way.
	v.dirty = false
	s.evictLocked(context.Background())
	s.mu.Unlock()
	return nil
}

// AppendContext is the streaming-ingest write path: it extends one
// vehicle's series with incremental days (as produced by summarizing a
// report batch), repairs only the appended suffix with the given
// missing-day policy, makes the result durable, and swaps it in with a
// generation bump. The stored dataset is never mutated — readers and
// cached plans keep a consistent view; the append builds on a clone.
//
// The days logged to the append hook are the CLEANED days, so a replay
// of the log at load time (which does not re-run Clean) reproduces the
// in-memory series bit for bit — fingerprints, and therefore cache
// keys, survive a restart.
//
// ctx carries the store.load trace span an evicted vehicle's
// transparent reload opens. It returns the grown dataset and the
// vehicle's new generation.
func (s *Store) AppendContext(ctx context.Context, id string, days []fstore.Day, policy etl.MissingPolicy) (*etl.VehicleDataset, uint64, error) {
	if len(days) == 0 {
		return nil, 0, fmt.Errorf("server: append to %q with no days", id)
	}
	s.lockVehicle(id)
	defer s.unlockVehicle(id)
	s.mu.RLock()
	v := s.vehicles[id]
	appendLog, persist, compact := s.appendLog, s.persist, s.compact
	s.mu.RUnlock()
	if v == nil {
		return nil, 0, fmt.Errorf("server: %w: %q", ErrUnknownVehicle, id)
	}
	// An evicted (or never-loaded) vehicle load-then-mutates
	// transparently: fault it in under the writer lock we already
	// hold. The pin keeps the racing eviction pass away until the swap
	// below.
	cur, _, _, err := s.faultLocked(ctx, v)
	if err != nil {
		return nil, 0, err
	}
	defer s.unpin(v)
	// Appends extend history, never rewrite it: a day at or before the
	// stored tail (e.g. from two racing batches for the same vehicle —
	// both summarized against the same snapshot, serialized here) is
	// refused rather than spliced out of order.
	last := cur.Date(cur.Len() - 1)
	for _, day := range days {
		if !day.Date.After(last) {
			return nil, 0, fmt.Errorf("server: append %q: day %s is not after the stored series end %s",
				id, day.Date.Format("2006-01-02"), last.Format("2006-01-02"))
		}
	}
	from := cur.Len()
	grown := cur.Clone()
	if err := fstore.ApplyDays(grown, days...); err != nil {
		return nil, 0, fmt.Errorf("server: append %q: %w", id, err)
	}
	if _, err := etl.CleanFrom(grown, policy, from); err != nil {
		return nil, 0, fmt.Errorf("server: append %q: %w", id, err)
	}
	// Durability before visibility, outside the store-wide lock.
	logged := false
	switch {
	case appendLog != nil:
		if err := appendLog(id, tailDays(grown, from)...); err != nil {
			return nil, 0, fmt.Errorf("server: append log %q: %w", id, err)
		}
		logged = true
	case persist != nil:
		if err := persist(grown); err != nil {
			return nil, 0, fmt.Errorf("server: persist %q: %w", id, err)
		}
	}
	fp, size := grown.Fingerprint(), grown.SizeBytes()
	s.mu.Lock()
	s.insertLocked(v, grown, fp, size)
	v.gen++
	gen := v.gen
	// After a logged append the snapshot on disk is behind the resident
	// state; only the append log has the new days.
	v.dirty = logged
	s.evictLocked(ctx)
	s.mu.Unlock()

	// Fold a long append-log backlog into the snapshot while we still
	// hold this vehicle's writer lock (the serialization the compactor
	// counts on). Compaction failing is not the append failing — the
	// days are already durable in the log — so it is logged, not
	// returned.
	if logged && compact != nil {
		compacted, err := compact(grown)
		switch {
		case err != nil:
			serverLog.Warn("append-log compaction failed", "vehicle", id, "error", err)
		case compacted:
			s.mu.Lock()
			v.dirty = false
			s.mu.Unlock()
		}
	}
	return grown, gen, nil
}

// tailDays re-reads the appended (cleaned) suffix of d as log records.
func tailDays(d *etl.VehicleDataset, from int) []fstore.Day {
	out := make([]fstore.Day, 0, d.Len()-from)
	for i := from; i < d.Len(); i++ {
		ch := make(map[string]float64, len(d.Channels))
		for name, vals := range d.Channels {
			ch[name] = vals[i]
		}
		out = append(out, fstore.Day{Date: d.Date(i), Hours: d.Hours[i], Observed: d.Observed[i], Channels: ch})
	}
	return out
}

// Snapshot returns every RESIDENT dataset, sorted by vehicle ID — the
// input shape fstore.Dir.Save expects for a full on-disk snapshot at
// shutdown. On an eager store that is the whole fleet; on a lazy store
// it is only the warm subset, so a lazy shutdown must use
// DirtyResidents + per-vehicle snapshots instead of a full Save (which
// would shrink the manifest to the residents).
func (s *Store) Snapshot() []*etl.VehicleDataset {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*etl.VehicleDataset, 0, s.resident)
	for v := s.lru.front; v != nil; v = v.next {
		out = append(out, v.ds)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].VehicleID < out[j].VehicleID })
	return out
}

// Generation returns one vehicle's mutation counter. It starts at zero
// (including for vehicles loaded at startup) and moves on every Put of
// that vehicle.
func (s *Store) Generation(id string) uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if v := s.vehicles[id]; v != nil {
		return v.gen
	}
	return 0
}

// Get returns the dataset of one vehicle, faulting it in on a lazy
// store (and releasing its pin immediately — datasets are immutable,
// so the reference stays valid even if the vehicle is evicted; use
// Acquire to hold residency across a longer computation).
func (s *Store) Get(id string) (*etl.VehicleDataset, bool) {
	d, _, _, release, err := s.Acquire(context.Background(), id)
	if err != nil {
		return nil, false
	}
	release()
	return d, true
}

// Len returns the fleet size — every vehicle the store answers for,
// resident or not.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.vehicles)
}

// IDs returns every vehicle ID in the fleet roster, sorted. On a lazy
// store this comes from the manifest roster, not from what happens to
// be resident.
func (s *Store) IDs() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.vehicles))
	for id := range s.vehicles {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// API is the HTTP handler set.
type API struct {
	store *Store
	start time.Time // process start, for the healthz uptime
	// Base is the pipeline configuration requests start from.
	Base core.Config
	// Cache, when enabled, answers forecast and evaluation requests
	// from trained artifacts and coalesces identical concurrent
	// requests onto one training run. Nil or zero-capacity means every
	// request trains.
	Cache *ForecastCache
	// Traces, when set, traces each API request's root span (its ID
	// echoed in the X-Trace-Id response header) and stores tail-sampled
	// traces for GET /debug/traces. Nil stores no traces; the spans
	// still time themselves into span_seconds.
	Traces *trace.Collector
	// IngestPolicy selects how gap days inside an ingested batch are
	// repaired (zero value: MissingZero, the paper's default).
	IngestPolicy etl.MissingPolicy
	// IngestConcurrency bounds concurrent ingest batches; <= 0 means
	// the default gate (see defaultIngestConcurrency). Beyond it,
	// batches are shed with 503 + Retry-After.
	IngestConcurrency int

	// ingestSem is the ingest concurrency gate, sized by Handler.
	ingestSem chan struct{}
	// seeds holds the last compiled plan per vehicle+config+plan kind
	// so a build after an append can extend it instead of recompiling
	// (planFor).
	// Bounded at maxPlanSeeds: on a lazy store the fleet can be far
	// larger than RAM, and an unbounded seed map would quietly undo
	// the resident-bytes budget.
	seedsMu sync.Mutex
	seeds   map[string]*planSeed
}

// New creates an API over the store with the given base configuration.
func New(store *Store, base core.Config) *API {
	return &API{store: store, start: time.Now(), Base: base}
}

// Handler returns the routed http.Handler. Every API route is wrapped
// in the telemetry middleware (route label = pattern without method);
// /metrics itself is served unwrapped so scrapes do not pollute the
// request counters.
func (a *API) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /healthz", a.instrument("/healthz", a.handleHealth))
	mux.Handle("GET /v1/vehicles", a.instrument("/v1/vehicles", a.handleVehicles))
	mux.Handle("GET /v1/vehicles/{id}", a.instrument("/v1/vehicles/{id}", a.handleVehicle))
	mux.Handle("GET /v1/vehicles/{id}/forecast", a.instrument("/v1/vehicles/{id}/forecast", a.handleForecast))
	mux.Handle("GET /v1/vehicles/{id}/evaluation", a.instrument("/v1/vehicles/{id}/evaluation", a.handleEvaluation))
	mux.Handle("GET /v1/vehicles/{id}/levels", a.instrument("/v1/vehicles/{id}/levels", a.handleLevels))
	mux.Handle("POST /v1/vehicles/{id}/ingest", a.instrument("/v1/vehicles/{id}/ingest", a.handleIngest))
	mux.Handle("GET /metrics", obs.Handler())
	a.ingestGate() // size the gate before serving starts
	return mux
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// The header is already on the wire, so an encoding or write
	// failure can only be counted and logged.
	if err := json.NewEncoder(w).Encode(v); err != nil {
		writeErrors.With().Inc()
		serverLog.Warn("response write failed", "status", status, "error", err)
	}
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// statusClientClosedRequest is nginx's convention for a request the
// client abandoned; no stdlib constant exists for it.
const statusClientClosedRequest = 499

// buildStatus maps a pipeline-build error to an HTTP status: a
// canceled request is the client's doing, a deadline is a timeout,
// anything else means the pipeline rejected the input.
func buildStatus(err error) int {
	switch {
	case errors.Is(err, context.Canceled):
		return statusClientClosedRequest
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	default:
		return http.StatusUnprocessableEntity
	}
}

// healthResponse is the GET /healthz payload: liveness plus the
// numbers an operator checks first (uptime, store size, cache
// effectiveness) and enough build identity to know what is running.
type healthResponse struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Vehicles      int     `json:"vehicles"`
	// TotalVehicles duplicates Vehicles under the name that pairs with
	// ResidentVehicles, so an operator reading a lazy store's health
	// sees eviction working (resident < total) at a glance.
	TotalVehicles    int   `json:"total_vehicles"`
	ResidentVehicles int   `json:"resident_vehicles"`
	ResidentBytes    int64 `json:"resident_bytes"`
	// ResidentRatio is resident/total, 0 for an empty fleet.
	ResidentRatio float64 `json:"resident_ratio"`
	LazyLoad      bool    `json:"lazy_load"`
	CacheEntries  int     `json:"cache_entries"`
	CacheHits     uint64  `json:"cache_hits"`
	CacheMisses   uint64  `json:"cache_misses"`
	// CacheHitRatio is hits/(hits+misses), 0 before any lookup.
	CacheHitRatio float64 `json:"cache_hit_ratio"`
	GoVersion     string  `json:"go_version"`
	Revision      string  `json:"revision,omitempty"`
}

func (a *API) handleHealth(w http.ResponseWriter, _ *http.Request) {
	stats := a.Cache.Stats()
	resident, residentBytes := a.store.ResidentStats()
	resp := healthResponse{
		Status:           "ok",
		UptimeSeconds:    time.Since(a.start).Seconds(),
		Vehicles:         a.store.Len(),
		TotalVehicles:    a.store.Len(),
		ResidentVehicles: resident,
		ResidentBytes:    residentBytes,
		LazyLoad:         a.store.Lazy(),
		CacheEntries:     a.Cache.Len(),
		CacheHits:        stats.Hits,
		CacheMisses:      stats.Misses,
		GoVersion:        runtime.Version(),
	}
	// Guard every ratio: 0/0 is NaN, which encoding/json refuses —
	// a freshly lazy-booted store has zero residents and may have
	// zero vehicles.
	if total := stats.Hits + stats.Misses; total > 0 {
		resp.CacheHitRatio = float64(stats.Hits) / float64(total)
	}
	if resp.TotalVehicles > 0 {
		resp.ResidentRatio = float64(resident) / float64(resp.TotalVehicles)
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				resp.Revision = s.Value
			}
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// vehicleSummary is the listing payload.
type vehicleSummary struct {
	ID      string  `json:"id"`
	Type    string  `json:"type"`
	Model   string  `json:"model"`
	Country string  `json:"country"`
	Days    int     `json:"days"`
	From    string  `json:"from"`
	To      string  `json:"to"`
	Active  float64 `json:"active_fraction"`
}

func summarize(d *etl.VehicleDataset) vehicleSummary {
	s := vehicleSummary{
		ID:      d.VehicleID,
		Type:    d.Type.String(),
		Model:   d.ModelID,
		Country: d.Country,
		Days:    d.Len(),
	}
	// NewStore rejects empty datasets, but guard anyway: 0/0 is NaN,
	// which encoding/json refuses mid-stream — the client would get a
	// 200 header with a truncated body.
	if n := d.Len(); n > 0 {
		active := 0
		for _, h := range d.Hours {
			if h > 0 {
				active++
			}
		}
		s.From = d.Date(0).Format("2006-01-02")
		s.To = d.Date(n - 1).Format("2006-01-02")
		s.Active = float64(active) / float64(n)
	}
	return s
}

func (a *API) handleVehicles(w http.ResponseWriter, r *http.Request) {
	// On a lazy store this sweep faults each vehicle in and releases
	// it immediately, so eviction keeps the resident set under budget
	// for the whole walk; a vehicle whose file rotted is skipped, not
	// a listing failure.
	ids := a.store.IDs()
	out := make([]vehicleSummary, 0, len(ids))
	for _, id := range ids {
		d, _, _, release, err := a.store.Acquire(r.Context(), id)
		if err != nil {
			if !errors.Is(err, ErrUnknownVehicle) {
				serverLog.Warn("vehicle skipped in listing", "vehicle", id, "error", err)
			}
			continue
		}
		out = append(out, summarize(d))
		release()
	}
	writeJSON(w, http.StatusOK, out)
}

// vehicle acquires the request's vehicle pinned against eviction; the
// caller must defer the returned release. An unknown ID is a 404, a
// failed lazy load (e.g. one corrupt snapshot) a 500 naming only that
// vehicle.
func (a *API) vehicle(w http.ResponseWriter, r *http.Request) (*etl.VehicleDataset, func(), bool) {
	id := r.PathValue("id")
	d, _, _, release, err := a.store.Acquire(r.Context(), id)
	if err != nil {
		writeAcquireError(w, id, err)
		return nil, nil, false
	}
	return d, release, true
}

// writeAcquireError maps a Store.Acquire failure to its HTTP status.
func writeAcquireError(w http.ResponseWriter, id string, err error) {
	if errors.Is(err, ErrUnknownVehicle) {
		writeError(w, http.StatusNotFound, "unknown vehicle %q", id)
		return
	}
	writeError(w, http.StatusInternalServerError, "vehicle %q load failed: %v", id, err)
}

func (a *API) handleVehicle(w http.ResponseWriter, r *http.Request) {
	d, release, ok := a.vehicle(w, r)
	if !ok {
		return
	}
	defer release()
	writeJSON(w, http.StatusOK, summarize(d))
}

// configFromQuery applies request overrides to the base configuration.
func (a *API) configFromQuery(r *http.Request) (core.Config, error) {
	cfg := a.Base
	q := r.URL.Query()
	if v := q.Get("alg"); v != "" {
		if _, err := regress.New(regress.Algorithm(v)); err != nil {
			return cfg, fmt.Errorf("unknown algorithm %q", v)
		}
		cfg.Algorithm = regress.Algorithm(v)
	}
	switch q.Get("scenario") {
	case "":
	case "next-day":
		cfg.Scenario = core.NextDay
	case "next-working-day":
		cfg.Scenario = core.NextWorkingDay
	default:
		return cfg, fmt.Errorf("unknown scenario %q", q.Get("scenario"))
	}
	for name, dst := range map[string]*int{"w": &cfg.W, "k": &cfg.K, "stride": &cfg.Stride} {
		if v := q.Get(name); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				return cfg, fmt.Errorf("parameter %s: %v", name, err)
			}
			*dst = n
		}
	}
	if err := cfg.Validate(); err != nil {
		return cfg, err
	}
	return cfg, nil
}

// forecastResponse is the forecast payload. Lo/Hi/Level are present
// only when an interval was requested, Horizon only for multi-step
// requests; Cached marks responses served from (or coalesced onto) a
// previously trained artifact.
type forecastResponse struct {
	Vehicle   string    `json:"vehicle"`
	Scenario  string    `json:"scenario"`
	Algorithm string    `json:"algorithm"`
	Hours     float64   `json:"hours"`
	Lags      []int     `json:"lags"`
	Horizon   []float64 `json:"horizon,omitempty"`
	Lo        *float64  `json:"lo,omitempty"`
	Hi        *float64  `json:"hi,omitempty"`
	Level     *float64  `json:"level,omitempty"`
	Cached    bool      `json:"cached,omitempty"`
	TookMS    float64   `json:"took_ms"`
}

// pointForecast is the cached artifact of a plain (no-interval)
// forecast: the trained model plus its precomputed next-day answer.
// One artifact serves both single-step and horizon requests — a
// horizon is derived from the cached Fitted per request (Fitted is
// safe for concurrent use), so `?horizon=` never retrains a model the
// cache already holds.
type pointForecast struct {
	fitted *core.Fitted
	hours  float64
	lags   []int
}

// maxHorizon bounds `?horizon=` requests; iterated forecasts degrade
// into the model's fixed point long before this.
const maxHorizon = 366

func (a *API) handleForecast(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	d, fp, gen, release, err := a.store.Acquire(r.Context(), id)
	if err != nil {
		writeAcquireError(w, id, err)
		return
	}
	// The pin holds the vehicle resident until the response is built,
	// so eviction under memory pressure never races the fit below.
	defer release()
	cfg, err := a.configFromQuery(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	horizon := 0
	if hStr := r.URL.Query().Get("horizon"); hStr != "" {
		h, err := strconv.Atoi(hStr)
		if err != nil || h < 1 || h > maxHorizon {
			writeError(w, http.StatusBadRequest, "horizon must be in [1, %d], got %q", maxHorizon, hStr)
			return
		}
		horizon = h
	}
	start := time.Now()
	resp := forecastResponse{
		Vehicle:   d.VehicleID,
		Scenario:  cfg.Scenario.String(),
		Algorithm: string(cfg.Algorithm),
	}
	if levelStr := r.URL.Query().Get("interval"); levelStr != "" {
		if horizon > 0 {
			writeError(w, http.StatusBadRequest, "interval and horizon cannot be combined")
			return
		}
		level, err := strconv.ParseFloat(levelStr, 64)
		if err != nil || level <= 0 || level >= 1 {
			writeError(w, http.StatusBadRequest, "interval must be in (0, 1), got %q", levelStr)
			return
		}
		kind := "interval:" + strconv.FormatFloat(level, 'g', -1, 64)
		val, cached, err := a.Cache.DoContext(r.Context(), cacheKey(kind, d.VehicleID, fp, cfg), gen, func(ctx context.Context) (any, error) {
			p, err := a.planFor(ctx, d, fp, cfg, false)
			if err != nil {
				return nil, err
			}
			return p.ForecastIntervalContext(ctx, level)
		})
		if err != nil {
			writeError(w, buildStatus(err), "forecast failed: %v", err)
			return
		}
		iv := val.(*core.Interval)
		resp.Hours = iv.Hours
		resp.Lags = iv.Lags
		resp.Lo, resp.Hi, resp.Level = &iv.Lo, &iv.Hi, &iv.Level
		resp.Cached = cached
	} else {
		val, cached, err := a.Cache.DoContext(r.Context(), cacheKey("point", d.VehicleID, fp, cfg), gen, func(ctx context.Context) (any, error) {
			p, err := a.planFor(ctx, d, fp, cfg, true)
			if err != nil {
				return nil, err
			}
			fitted, err := p.FitContext(ctx)
			if err != nil {
				return nil, err
			}
			hours, err := fitted.ForecastContext(ctx, nil)
			if err != nil {
				return nil, err
			}
			return pointForecast{fitted: fitted, hours: hours, lags: fitted.Lags()}, nil
		})
		if err != nil {
			writeError(w, buildStatus(err), "forecast failed: %v", err)
			return
		}
		pf := val.(pointForecast)
		resp.Hours = pf.hours
		resp.Lags = pf.lags
		resp.Cached = cached
		if horizon > 0 {
			steps, err := pf.fitted.HorizonContext(r.Context(), horizon, nil)
			if err != nil {
				writeError(w, buildStatus(err), "forecast failed: %v", err)
				return
			}
			resp.Horizon = steps
		}
	}
	resp.TookMS = float64(time.Since(start).Microseconds()) / 1000
	writeJSON(w, http.StatusOK, resp)
}

// evaluationResponse is the hold-out evaluation payload.
type evaluationResponse struct {
	Vehicle     string  `json:"vehicle"`
	Scenario    string  `json:"scenario"`
	Algorithm   string  `json:"algorithm"`
	PE          float64 `json:"pe_percent"`
	MAE         float64 `json:"mae_hours"`
	Predictions int     `json:"predictions"`
	Skipped     int     `json:"skipped_windows"`
	Cached      bool    `json:"cached,omitempty"`
}

// levelsResponse is the usage-level classification payload.
type levelsResponse struct {
	Vehicle    string   `json:"vehicle"`
	Scenario   string   `json:"scenario"`
	Classifier string   `json:"classifier"`
	Accuracy   float64  `json:"accuracy"`
	MacroF1    float64  `json:"macro_f1"`
	Confusion  [][]int  `json:"confusion"`
	Levels     []string `json:"levels"`
}

func (a *API) handleLevels(w http.ResponseWriter, r *http.Request) {
	d, release, ok := a.vehicle(w, r)
	if !ok {
		return
	}
	defer release()
	cfg, err := a.configFromQuery(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	name := r.URL.Query().Get("classifier")
	if name == "" {
		name = "Tree"
	}
	res, err := classify.EvaluateVehicle(d, cfg, name)
	if err != nil {
		status := http.StatusUnprocessableEntity
		if errors.Is(err, classify.ErrBadParam) {
			status = http.StatusBadRequest
		}
		writeError(w, status, "classification failed: %v", err)
		return
	}
	levels := make([]string, int(classify.NumLevels))
	for l := classify.Idle; l < classify.NumLevels; l++ {
		levels[int(l)] = l.String()
	}
	writeJSON(w, http.StatusOK, levelsResponse{
		Vehicle:    d.VehicleID,
		Scenario:   cfg.Scenario.String(),
		Classifier: name,
		Accuracy:   res.Accuracy,
		MacroF1:    res.MacroF1,
		Confusion:  res.Confusion.Counts,
		Levels:     levels,
	})
}

func (a *API) handleEvaluation(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	d, fp, gen, release, err := a.store.Acquire(r.Context(), id)
	if err != nil {
		writeAcquireError(w, id, err)
		return
	}
	defer release()
	cfg, err := a.configFromQuery(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	val, cached, err := a.Cache.DoContext(r.Context(), cacheKey("eval", d.VehicleID, fp, cfg), gen, func(ctx context.Context) (any, error) {
		p, err := a.planFor(ctx, d, fp, cfg, false)
		if err != nil {
			return nil, err
		}
		return p.EvaluateContext(ctx)
	})
	if err != nil {
		writeError(w, buildStatus(err), "evaluation failed: %v", err)
		return
	}
	res := val.(*core.Result)
	writeJSON(w, http.StatusOK, evaluationResponse{
		Vehicle:     d.VehicleID,
		Scenario:    cfg.Scenario.String(),
		Algorithm:   string(cfg.Algorithm),
		PE:          res.PE,
		MAE:         res.MAE,
		Predictions: len(res.Predictions),
		Skipped:     res.SkippedWindows,
		Cached:      cached,
	})
}
