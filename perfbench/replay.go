package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"vup"
	"vup/internal/canbus"
	"vup/internal/core"
	"vup/internal/etl"
	"vup/internal/featsel"
	"vup/internal/fstore"
	"vup/internal/regress"
	"vup/internal/server"
)

// baseConfig is the pipeline configuration vup-server serves with
// (cmd/vup-server/main.go); the replay must compute with the same one.
func baseConfig() core.Config {
	base := vup.DefaultConfig()
	base.Algorithm = regress.AlgLasso
	base.W = 120
	base.K = 12
	base.MaxLag = 28
	base.Stride = 5
	base.Channels = []string{canbus.ChanFuelRate, canbus.ChanEngineSpeed}
	return base
}

// stack is the server stack assembled in-process from the public
// constructors, the way cmd/vup-server assembles it, with every store
// hook wrapped in a timer. The traced run builds two: one served over
// HTTP through the real handler, one the benchmark replays each request
// through, layer by layer. The answer oracle is a replay stack alone.
type stack struct {
	dir   *fstore.Dir
	store *server.Store
	cache *server.ForecastCache
	api   *server.API
	base  core.Config
	tr    *tracer // nil: no spans

	// hooks counts the store's loader, appender, compactor and
	// persister calls; their spans time them.
	hooksMu sync.Mutex
	hooks   hookCounts

	// seeds mirrors the API's plan-seed map (server.API.planFor), so a
	// replayed build extends or reuses a plan exactly when the served
	// handler does. Without keepSeeds every build compiles afresh,
	// which answers the same and bounds the oracle's memory.
	keepSeeds bool
	seedsMu   sync.Mutex
	seeds     map[string]planSeed

	extends, rebuilds, fits atomic.Int64

	// reruns are the traced replay's deferred materialization re-runs.
	reruns []func() error
}

// rerun runs the materializations queued by the call just replayed.
func (s *stack) rerun() error {
	defer func() { s.reruns = s.reruns[:0] }()
	for _, fn := range s.reruns {
		if err := fn(); err != nil {
			return err
		}
	}
	return nil
}

type planSeed struct {
	fp   uint64
	plan *core.Plan
}

// maxPlanSeeds matches the API's bound on its seed map.
const maxPlanSeeds = 4096

func newStack(w workload, path string, tr *tracer, keepSeeds bool) (*stack, error) {
	dir, err := fstore.Open(path)
	if err != nil {
		return nil, err
	}
	s := &stack{dir: dir, base: baseConfig(), tr: tr, keepSeeds: keepSeeds, seeds: map[string]planSeed{}}
	if w.lazy {
		s.store, err = server.NewLazyStore(dir.VehicleIDs(), s.loader(dir.LoadVehicle), w.budget)
	} else {
		var datasets []*etl.VehicleDataset
		datasets, _, err = dir.Load()
		if err == nil {
			s.store, err = server.NewStore(datasets)
		}
	}
	if err != nil {
		dir.Close()
		return nil, err
	}
	s.store.SetPersister(s.persister(dir.SaveVehicle))
	s.store.SetAppender(s.appender(dir.Append))
	threshold := w.compact
	s.store.SetCompactor(s.compactor(func(d *etl.VehicleDataset) (bool, error) { return dir.MaybeCompact(d, threshold) }))
	s.api = server.New(s.store, s.base)
	s.cache = server.NewForecastCache(cacheSize)
	s.api.Cache = s.cache
	s.api.IngestPolicy = etl.MissingForwardFill
	s.api.IngestConcurrency = 4
	return s, nil
}

func (s *stack) close() error { return s.dir.Close() }

func (s *stack) loader(fn func(string) (*etl.VehicleDataset, error)) func(string) (*etl.VehicleDataset, error) {
	return func(id string) (*etl.VehicleDataset, error) {
		sp := s.tr.begin("fstore.load")
		d, err := fn(id)
		s.tr.end(sp)
		s.hooksMu.Lock()
		s.hooks.loads++
		s.hooksMu.Unlock()
		return d, err
	}
}

func (s *stack) appender(fn func(string, ...fstore.Day) error) func(string, ...fstore.Day) error {
	return func(id string, days ...fstore.Day) error {
		sp := s.tr.begin("fstore.append")
		err := fn(id, days...)
		s.tr.end(sp)
		s.hooksMu.Lock()
		s.hooks.appends++
		s.hooksMu.Unlock()
		return err
	}
}

func (s *stack) compactor(fn func(*etl.VehicleDataset) (bool, error)) func(*etl.VehicleDataset) (bool, error) {
	return func(d *etl.VehicleDataset) (bool, error) {
		sp := s.tr.begin("fstore.compact")
		ok, err := fn(d)
		s.tr.end(sp)
		if ok {
			s.hooksMu.Lock()
			s.hooks.compactions++
			s.hooksMu.Unlock()
		}
		return ok, err
	}
}

func (s *stack) persister(fn func(*etl.VehicleDataset) error) func(*etl.VehicleDataset) error {
	return func(d *etl.VehicleDataset) error {
		sp := s.tr.begin("fstore.persist")
		err := fn(d)
		s.tr.end(sp)
		s.hooksMu.Lock()
		s.hooks.persists++
		s.hooksMu.Unlock()
		return err
	}
}

type hookCounts struct{ loads, appends, compactions, persists int }

func (s *stack) hookCounts() hookCounts {
	s.hooksMu.Lock()
	defer s.hooksMu.Unlock()
	return s.hooks
}

// The payloads the handlers encode, field for field.
type forecastBody struct {
	Vehicle   string    `json:"vehicle"`
	Scenario  string    `json:"scenario"`
	Algorithm string    `json:"algorithm"`
	Hours     float64   `json:"hours"`
	Lags      []int     `json:"lags"`
	Horizon   []float64 `json:"horizon,omitempty"`
	Cached    bool      `json:"cached,omitempty"`
	TookMS    float64   `json:"took_ms"`
}

type evaluationBody struct {
	Vehicle     string  `json:"vehicle"`
	Scenario    string  `json:"scenario"`
	Algorithm   string  `json:"algorithm"`
	PE          float64 `json:"pe_percent"`
	MAE         float64 `json:"mae_hours"`
	Predictions int     `json:"predictions"`
	Skipped     int     `json:"skipped_windows"`
	Cached      bool    `json:"cached,omitempty"`
}

type ingestBody struct {
	Vehicle      string         `json:"vehicle"`
	Accepted     int            `json:"accepted"`
	Rejected     int            `json:"rejected"`
	Reasons      map[string]int `json:"rejected_reasons,omitempty"`
	DaysAppended int            `json:"days_appended"`
	Generation   uint64         `json:"generation"`
	TookMS       float64        `json:"took_ms"`
}

type pointForecast struct {
	fitted *core.Fitted
	hours  float64
	lags   []int
}

// cacheKey gives the replay's cache one entry per artifact kind,
// vehicle, dataset state and configuration, as the API's key does.
func cacheKey(kind, vehicle string, fp uint64, cfg core.Config) string {
	return kind + "\x1f" + vehicle + "\x1f" + strconv.FormatUint(fp, 16) + "\x1f" + cfg.Fingerprint()
}

// replay runs one call through the layers' public functions in the
// order the handler calls them, with a span around each layer call, and
// returns the encoded answer.
func (s *stack) replay(ctx context.Context, c call) ([]byte, error) {
	switch c.kind {
	case kForecast:
		return s.forecast(ctx, c)
	case kEvaluation:
		return s.evaluation(ctx, c)
	case kIngest:
		return s.ingest(ctx, c)
	default:
		return nil, nil // the listing has no oracle
	}
}

func (s *stack) acquire(ctx context.Context, id string) (*etl.VehicleDataset, uint64, uint64, func(), error) {
	sp := s.tr.begin("server.acquire")
	d, fp, gen, release, err := s.store.Acquire(ctx, id)
	s.tr.end(sp)
	return d, fp, gen, release, err
}

func (s *stack) encode(v any) ([]byte, error) {
	sp := s.tr.begin("server.encode")
	b, err := json.Marshal(v)
	s.tr.end(sp)
	return b, err
}

func (s *stack) forecast(ctx context.Context, c call) ([]byte, error) {
	d, fp, gen, release, err := s.acquire(ctx, c.vehicle)
	if err != nil {
		return nil, err
	}
	defer release()
	cfg := s.base
	sp := s.tr.begin("server.cache_lookup")
	val, cached, err := s.cache.DoContext(ctx, cacheKey("point", d.VehicleID, fp, cfg), gen, func(ctx context.Context) (any, error) {
		p, err := s.planFor(ctx, d, fp, cfg)
		if err != nil {
			return nil, err
		}
		fsp := s.tr.begin("core.fit")
		fitted, err := p.FitContext(ctx)
		s.tr.end(fsp)
		if err != nil {
			return nil, err
		}
		s.fits.Add(1)
		psp := s.tr.begin("core.predict")
		hours, err := fitted.ForecastContext(ctx, nil)
		s.tr.end(psp)
		if err != nil {
			return nil, err
		}
		return pointForecast{fitted: fitted, hours: hours, lags: fitted.Lags()}, nil
	})
	s.tr.end(sp)
	if err != nil {
		return nil, err
	}
	pf := val.(pointForecast)
	resp := forecastBody{Vehicle: d.VehicleID, Scenario: cfg.Scenario.String(), Algorithm: string(cfg.Algorithm), Hours: pf.hours, Lags: pf.lags, Cached: cached}
	if c.horizon > 0 {
		psp := s.tr.begin("core.predict")
		resp.Horizon, err = pf.fitted.HorizonContext(ctx, c.horizon, nil)
		s.tr.end(psp)
		if err != nil {
			return nil, err
		}
	}
	return s.encode(resp)
}

func (s *stack) evaluation(ctx context.Context, c call) ([]byte, error) {
	d, fp, gen, release, err := s.acquire(ctx, c.vehicle)
	if err != nil {
		return nil, err
	}
	defer release()
	cfg := s.base
	cfg.Algorithm = regress.Algorithm(c.alg)
	cfg.Stride = evalStride
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sp := s.tr.begin("server.cache_lookup")
	val, cached, err := s.cache.DoContext(ctx, cacheKey("eval", d.VehicleID, fp, cfg), gen, func(ctx context.Context) (any, error) {
		p, err := s.planFor(ctx, d, fp, cfg)
		if err != nil {
			return nil, err
		}
		esp := s.tr.begin("core.evaluate")
		res, err := p.EvaluateContext(ctx)
		s.tr.end(esp)
		if err != nil {
			return nil, err
		}
		s.fits.Add(int64(len(res.Predictions)))
		return res, nil
	})
	s.tr.end(sp)
	if err != nil {
		return nil, err
	}
	res := val.(*core.Result)
	return s.encode(evaluationBody{
		Vehicle: d.VehicleID, Scenario: cfg.Scenario.String(), Algorithm: string(cfg.Algorithm),
		PE: res.PE, MAE: res.MAE, Predictions: len(res.Predictions), Skipped: res.SkippedWindows, Cached: cached,
	})
}

func (s *stack) ingest(ctx context.Context, c call) ([]byte, error) {
	d, _, _, release, err := s.acquire(ctx, c.vehicle)
	if err != nil {
		return nil, err
	}
	defer release()
	sp := s.tr.begin("server.decode")
	var req struct {
		Reports []report `json:"reports"`
	}
	err = json.Unmarshal(c.body, &req)
	s.tr.end(sp)
	if err != nil {
		return nil, err
	}
	days, accepted, reasons := summarize(d, req.Reports)
	rejected := 0
	for _, n := range reasons {
		rejected += n
	}
	resp := ingestBody{Vehicle: c.vehicle, Accepted: accepted, Rejected: rejected, Reasons: reasons}
	if len(days) == 0 {
		return nil, fmt.Errorf("ingest %s: batch appends no day", c.vehicle)
	}
	sp = s.tr.begin("server.append")
	_, gen, err := s.store.AppendContext(ctx, c.vehicle, days, etl.MissingForwardFill)
	s.tr.end(sp)
	if err != nil {
		return nil, err
	}
	resp.DaysAppended = len(days)
	resp.Generation = gen
	return s.encode(resp)
}

// planFor is server.API.planFor over the replay's own seed map: reuse
// the seeded plan while the fingerprint holds, extend it when only the
// tail grew, compile afresh otherwise. featsel.MaterializeContext runs
// inside core.NewPlanContext, out of reach of a span; the traced replay
// queues a re-run of it on the compiled view, which finishCall's caller
// runs once the call's replay is over (see rerun), with the plan build
// as its parent, so the build's self time excludes it and no enclosing
// span's duration contains it.
func (s *stack) planFor(ctx context.Context, d *etl.VehicleDataset, fp uint64, cfg core.Config) (*core.Plan, error) {
	key := d.VehicleID + "\x1f" + cfg.Fingerprint()
	if s.keepSeeds {
		s.seedsMu.Lock()
		seed, ok := s.seeds[key]
		s.seedsMu.Unlock()
		if ok {
			if seed.fp == fp {
				return seed.plan, nil
			}
			sp := s.tr.begin("core.plan_extend")
			np, err := seed.plan.ExtendContext(ctx, d)
			s.tr.end(sp)
			if err == nil {
				s.extends.Add(1)
				s.storeSeed(key, planSeed{fp: fp, plan: np})
				return np, nil
			}
		}
	}
	sp := s.tr.begin("core.plan_build")
	p, err := core.NewPlanContext(ctx, d, cfg)
	s.tr.end(sp)
	if err != nil {
		return nil, err
	}
	if s.tr != nil {
		view := p.View()
		maxLag := max(min(cfg.MaxLag, view.Len()-1), 1)
		s.reruns = append(s.reruns, func() error {
			msp := s.tr.beginUnder("featsel.materialize", sp)
			_, err := featsel.MaterializeContext(ctx, view, maxLag, cfg.Channels, cfg.IncludeContext, cfg.TargetChannels)
			s.tr.end(msp)
			return err
		})
	}
	s.rebuilds.Add(1)
	if s.keepSeeds {
		s.storeSeed(key, planSeed{fp: fp, plan: p})
	}
	return p, nil
}

func (s *stack) storeSeed(key string, seed planSeed) {
	s.seedsMu.Lock()
	defer s.seedsMu.Unlock()
	if _, ok := s.seeds[key]; !ok && len(s.seeds) >= maxPlanSeeds {
		for victim := range s.seeds {
			delete(s.seeds, victim)
			break
		}
	}
	s.seeds[key] = seed
}

// summarize folds a batch of reports into the days the ingest handler
// appends: per-day engine-on hours and sample-weighted channel means,
// every day from the stored series end to the newest report, reports
// for stored days rejected as stale.
func summarize(d *etl.VehicleDataset, reports []report) (days []fstore.Day, accepted int, reasons map[string]int) {
	reasons = map[string]int{}
	last := d.Date(d.Len() - 1)
	type acc struct {
		hours         float64
		sums, weights map[string]float64
	}
	byDate := map[time.Time]*acc{}
	var maxDate time.Time
	for _, r := range reports {
		if r.Start.IsZero() {
			reasons["missing_start"]++
			continue
		}
		if r.EngineOnSeconds < 0 || r.EngineOnSeconds > canbus.ReportInterval.Seconds() || math.IsNaN(r.EngineOnSeconds) {
			reasons["invalid_engine_on"]++
			continue
		}
		date := r.Start.UTC().Truncate(24 * time.Hour)
		if !date.After(last) {
			reasons["stale"]++
			continue
		}
		a, ok := byDate[date]
		if !ok {
			a = &acc{sums: map[string]float64{}, weights: map[string]float64{}}
			byDate[date] = a
		}
		a.hours += r.EngineOnSeconds / 3600
		for name, cs := range r.Channels {
			if _, ok := d.Channels[name]; !ok || cs.Samples <= 0 || math.IsNaN(cs.Mean) || math.IsInf(cs.Mean, 0) {
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
	if len(reasons) == 0 {
		reasons = nil
	}
	return days, accepted, reasons
}

// tracer keeps the replay's spans in memory. Spans of one call nest by
// call order; the benchmark writes them all out when the run ends.
type tracer struct {
	t0     time.Time
	on     bool // false during warm-up: spans are discarded
	op     int
	call   int
	cur    []span
	starts []time.Time
	open   []int
	all    []span
}

// span is one line of the span file. Each call has a client round trip
// (id -2, no parent: -3) containing the served handler span (id -1);
// the replayed layer spans follow it in time and hang off it (parent
// -1) or off each other, which is what attributes them to it.
type span struct {
	Op      int     `json:"op"`
	Call    int     `json:"call"`
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
	dur     time.Duration
}

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	return t.beginUnder(name, parent)
}

func (t *tracer) beginUnder(name string, parent int) int {
	if t == nil {
		return -1
	}
	id := len(t.cur)
	t.cur = append(t.cur, span{Op: t.op, Call: t.call, ID: id, Parent: parent, Name: name})
	t.starts = append(t.starts, time.Now())
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Now()
	sp := &t.cur[id]
	sp.dur = now.Sub(t.starts[id])
	sp.StartUS = float64(t.starts[id].Sub(t.t0)) / 1e3
	sp.DurUS = float64(sp.dur) / 1e3
	if n := len(t.open); n > 0 && t.open[n-1] == id {
		t.open = t.open[:n-1]
	}
}

// startCall opens the span list of one call.
func (t *tracer) startCall(op, call int) {
	t.op, t.call = op, call
	t.cur, t.starts, t.open = t.cur[:0], t.starts[:0], t.open[:0]
}

// interval is a start time and a duration.
type interval struct {
	start time.Time
	dur   time.Duration
}

// finishCall returns the self time of each layer in the call: a span's
// duration minus its children's. Every span must have ended.
func (t *tracer) finishCall(handler, roundTrip interval) (map[string]time.Duration, error) {
	if len(t.open) != 0 {
		return nil, fmt.Errorf("span %q never ended", t.cur[t.open[0]].Name)
	}
	self := map[string]time.Duration{}
	for _, sp := range t.cur {
		self[sp.Name] += sp.dur
		if sp.Parent >= 0 {
			self[t.cur[sp.Parent].Name] -= sp.dur
		}
	}
	if t.on {
		us := func(iv interval) (start, dur float64) {
			return float64(iv.start.Sub(t.t0)) / 1e3, float64(iv.dur) / 1e3
		}
		rs, rd := us(roundTrip)
		hs, hd := us(handler)
		t.all = append(t.all,
			span{Op: t.op, Call: t.call, ID: -2, Parent: -3, Name: "client.round_trip", StartUS: rs, DurUS: rd},
			span{Op: t.op, Call: t.call, ID: -1, Parent: -2, Name: "server.handler", StartUS: hs, DurUS: hd})
		t.all = append(t.all, t.cur...)
	}
	return self, nil
}
