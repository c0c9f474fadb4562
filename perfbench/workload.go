package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"reflect"
	"sort"
	"strconv"
	"time"

	"vup/internal/etl"
)

// workload is one traffic mix against one server configuration.
type workload struct {
	name    string
	fixture fixture
	// perSecond sets the fixed operation count of a run: perSecond x
	// --seconds operations. For the open-loop workload it is also the
	// arrival rate.
	perSecond int
	openLoop  bool
	// rounds is how many consecutive slices of its operations a timed
	// phase is measured in. Each figure is the median over the slices,
	// so a burst of interference in one or two does not move it: the
	// latency median on every workload, throughput and CPU on closed
	// loops. evaluation measures its phase as one slice: every run sends
	// the same 120 requests in a seeded order, so a slice would hold a
	// seed-dependent share of the work, and the whole phase does not.
	rounds int
	// conns is the number of client connections (at most nproc).
	conns int
	// tracedShare is the divisor of the operation count a traced run
	// sends: enough operations for stable per-layer means, few enough
	// that two in-process stacks fit in memory. ingest-visible sends
	// half, about ten batches per vehicle in a 30-second run, so most
	// vehicles reach the compaction threshold.
	tracedShare int
	// lazy, budget and compact configure the server: -lazy-load,
	// -resident-budget and -compact-threshold for the binary, the same
	// settings for the in-process stacks.
	lazy    bool
	budget  int64
	compact int
}

// serverArgs are the vup-server flags beyond the address, data directory
// and tracing flags every run passes.
func (w workload) serverArgs() []string {
	args := []string{"-compact-threshold", strconv.Itoa(w.compact)}
	if w.lazy {
		args = append(args, "-lazy-load", "-resident-budget", strconv.FormatInt(w.budget, 10))
	}
	return args
}

const (
	coldBudget   = 16_000_000 // bytes: about 80 of the 2 239 study vehicles
	compactEvery = 8          // append-log records per vehicle before compaction
	// cacheSize is vup-server's default -cache-size, which every
	// workload runs with; the in-process stacks use the same capacity.
	// It holds all 60 forecast-hot keys: a ?horizon= request shares its
	// vehicle's point-forecast entry.
	cacheSize = 256
	// hotZipfS and hotHorizonStep shape forecast-hot's traffic: Zipf
	// exponent 1.1 over the vehicles, every 5th request ?horizon=7.
	// Both are assumptions, not measured from a request log. They do
	// not change what the workload stresses: every key is primed, so
	// any skew and any horizon share still give only cache hits.
	hotZipfS       = 1.1
	hotHorizonStep = 5
	hotHorizon     = 7
	// evalStride is the evaluation requests' ?stride=: every 10th
	// hold-out window, 61 refits per request. It halves the server's
	// default of 5, so ten evaluation runs take minutes, not ten.
	evalStride = 10
)

var workloads = []workload{
	{
		name:        "forecast-hot",
		fixture:     smallFixture,
		perSecond:   4000,
		rounds:      5,
		conns:       1,
		tracedShare: 4,
		compact:     64,
	},
	{
		name:        "forecast-cold",
		fixture:     studyFixture,
		perSecond:   40,
		rounds:      5,
		conns:       1,
		tracedShare: 4,
		lazy:        true,
		budget:      coldBudget,
		compact:     64,
	},
	{
		name:        "ingest-visible",
		fixture:     smallFixture,
		perSecond:   40,
		openLoop:    true,
		rounds:      5,
		conns:       2,
		tracedShare: 2,
		compact:     compactEvery,
	},
	{
		name:        "evaluation",
		fixture:     smallFixture,
		perSecond:   4,
		rounds:      1,
		conns:       1,
		tracedShare: 4,
		compact:     64,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

type kind int

const (
	kForecast kind = iota
	kEvaluation
	kIngest
	kList
)

// call is one HTTP request of an operation.
type call struct {
	kind    kind
	vehicle string
	horizon int    // forecast: ?horizon=, 0 for a point forecast
	alg     string // evaluation: ?alg=
	body    []byte // ingest: the JSON batch as sent
	reports int    // ingest: reports in the batch
	// mustMiss marks calls the cache must not answer: evaluations, and
	// the forecast that follows a batch of the same vehicle.
	mustMiss bool
}

// op is what latency is measured on: one request, or for ingest a batch
// POST followed by a forecast of the same vehicle.
type op struct {
	calls []call
}

func (c call) method() string {
	if c.kind == kIngest {
		return "POST"
	}
	return "GET"
}

func (c call) path() string {
	switch c.kind {
	case kForecast:
		if c.horizon > 0 {
			return fmt.Sprintf("/v1/vehicles/%s/forecast?horizon=%d", c.vehicle, c.horizon)
		}
		return "/v1/vehicles/" + c.vehicle + "/forecast"
	case kEvaluation:
		return fmt.Sprintf("/v1/vehicles/%s/evaluation?alg=%s&stride=%d", c.vehicle, c.alg, evalStride)
	case kIngest:
		return "/v1/vehicles/" + c.vehicle + "/ingest"
	default:
		return "/v1/vehicles"
	}
}

// key identifies a read whose answer depends only on the fleet as
// generated, so the answer oracle computes it once.
func (c call) key() string { return fmt.Sprintf("%d|%s|%d|%s", c.kind, c.vehicle, c.horizon, c.alg) }

// report and reportChannel are the ingest wire format.
type report struct {
	Start           time.Time                `json:"start"`
	EngineOnSeconds float64                  `json:"engine_on_seconds"`
	Channels        map[string]reportChannel `json:"channels"`
}

type reportChannel struct {
	Samples int     `json:"samples"`
	Mean    float64 `json:"mean"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
}

// fleetInfo is what request generation needs to know about a fixture.
type fleetInfo struct {
	ids      []string
	datasets map[string]*etl.VehicleDataset // small fixture only, for ingest batches
}

// opCount is the fixed number of operations a run sends.
func (w workload) opCount(seconds int) int {
	return w.perSecond * seconds
}

// generate builds the warm-up calls and the timed operations from the
// seed. The same seed gives the same sequence.
func (w workload) generate(seed uint64, n int, fl fleetInfo) (warm []call, ops []op, err error) {
	r := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	ids := fl.ids
	switch w.name {
	case "forecast-hot":
		// Prime every key, then Zipf-skewed traffic over a seeded
		// ranking of the vehicles.
		for _, id := range ids {
			warm = append(warm, call{kind: kForecast, vehicle: id})
		}
		rank := r.Perm(len(ids))
		z := rand.NewZipf(r, hotZipfS, 1, uint64(len(ids)-1))
		for i := 0; i < n; i++ {
			c := call{kind: kForecast, vehicle: ids[rank[z.Uint64()]]}
			if i%hotHorizonStep == hotHorizonStep-1 {
				c.horizon = hotHorizon
			}
			ops = append(ops, op{calls: []call{c}})
		}
	case "forecast-cold":
		for i := 0; i < 8; i++ {
			warm = append(warm, call{kind: kForecast, vehicle: ids[r.IntN(len(ids))]})
		}
		for i := 0; i < n; i++ {
			ops = append(ops, op{calls: []call{{kind: kForecast, vehicle: ids[r.IntN(len(ids))]}}})
		}
	case "ingest-visible":
		// One forecast per vehicle seeds the compiled plans the
		// post-ingest forecasts extend.
		for _, id := range ids {
			warm = append(warm, call{kind: kForecast, vehicle: id})
		}
		next := make(map[string]time.Time, len(ids))
		for _, id := range ids {
			d := fl.datasets[id]
			next[id] = d.Date(d.Len()-1).AddDate(0, 0, 1)
		}
		for i := 0; i < n; i++ {
			id := ids[r.IntN(len(ids))]
			day := next[id]
			next[id] = day.AddDate(0, 0, 1)
			reps := dayBatch(r, fl.datasets[id], day)
			body, err := json.Marshal(struct {
				Reports []report `json:"reports"`
			}{reps})
			if err != nil {
				return nil, nil, err
			}
			ops = append(ops, op{calls: []call{
				{kind: kIngest, vehicle: id, body: body, reports: len(reps)},
				{kind: kForecast, vehicle: id, mustMiss: true},
			}})
		}
	case "evaluation":
		warm = append(warm, call{kind: kList})
		var pairs []call
		for _, id := range ids {
			for _, alg := range []string{"LR", "Lasso"} {
				pairs = append(pairs, call{kind: kEvaluation, vehicle: id, alg: alg, mustMiss: true})
			}
		}
		r.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
		if n > len(pairs) {
			n = len(pairs)
		}
		for _, c := range pairs[:n] {
			ops = append(ops, op{calls: []call{c}})
		}
	default:
		return nil, nil, fmt.Errorf("no generator for workload %q", w.name)
	}
	return warm, ops, nil
}

// dayBatch is one day of 10-minute reports for a vehicle: a seeded run
// of engine-on windows from 06:00, every channel the vehicle records,
// with means around its last month's levels.
func dayBatch(r *rand.Rand, d *etl.VehicleDataset, day time.Time) []report {
	names := make([]string, 0, len(d.Channels))
	for name := range d.Channels {
		names = append(names, name)
	}
	sort.Strings(names)
	level := make(map[string]float64, len(names))
	for _, name := range names {
		vals := d.Channels[name]
		sum, cnt := 0.0, 0
		for i := len(vals) - 1; i >= 0 && i >= len(vals)-30; i-- {
			if vals[i] > 0 {
				sum += vals[i]
				cnt++
			}
		}
		level[name] = 1
		if cnt > 0 {
			level[name] = sum / float64(cnt)
		}
	}
	windows := 12 + r.IntN(49) // 2 to 10 hours of engine-on windows
	out := make([]report, 0, windows)
	start := day.Add(6 * time.Hour)
	for i := 0; i < windows; i++ {
		ch := make(map[string]reportChannel, len(names))
		for _, name := range names {
			mean := level[name] * (0.8 + 0.4*r.Float64())
			ch[name] = reportChannel{Samples: 60, Mean: mean, Min: 0.5 * mean, Max: 1.5 * mean}
		}
		out = append(out, report{
			Start:           start.Add(time.Duration(i) * 10 * time.Minute),
			EngineOnSeconds: float64(300 + r.IntN(301)),
			Channels:        ch,
		})
	}
	return out
}

// response is the union of the server's forecast, evaluation and ingest
// payloads. Both the server's answers and the replay's are decoded into
// it and compared field by field, timings and cache flags aside.
type response struct {
	Vehicle      string         `json:"vehicle"`
	Scenario     string         `json:"scenario"`
	Algorithm    string         `json:"algorithm"`
	Hours        float64        `json:"hours"`
	Lags         []int          `json:"lags"`
	Horizon      []float64      `json:"horizon"`
	PE           float64        `json:"pe_percent"`
	MAE          float64        `json:"mae_hours"`
	Predictions  int            `json:"predictions"`
	Skipped      int            `json:"skipped_windows"`
	Accepted     int            `json:"accepted"`
	Rejected     int            `json:"rejected"`
	Reasons      map[string]int `json:"rejected_reasons"`
	DaysAppended int            `json:"days_appended"`
	Generation   uint64         `json:"generation"`
	Cached       bool           `json:"cached"`
	TookMS       float64        `json:"took_ms"`
}

// checker validates server answers: against the replay's answer for the
// same call, and for ingest against what the batch must do.
type checker struct {
	gens        map[string]uint64 // per-vehicle generation after the last acknowledged batch
	predictions int               // evaluation windows predicted, over all answers checked
}

func newChecker() *checker { return &checker{gens: map[string]uint64{}} }

// check validates one call's answer. want is the replay's encoded body;
// it is nil for calls with no oracle (the vehicle listing).
func (ck *checker) check(c call, status int, body, want []byte) error {
	if status != 200 {
		return fmt.Errorf("%s %s: status %d: %.200s", c.method(), c.path(), status, body)
	}
	if c.kind == kList {
		var list []json.RawMessage
		if err := json.Unmarshal(body, &list); err != nil || len(list) == 0 {
			return fmt.Errorf("GET /v1/vehicles: bad listing")
		}
		return nil
	}
	var got response
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("%s: %w", c.path(), err)
	}
	switch c.kind {
	case kIngest:
		ck.gens[c.vehicle]++
		if got.Accepted != c.reports || got.Rejected != 0 || got.DaysAppended != 1 || got.Generation != ck.gens[c.vehicle] {
			return fmt.Errorf("%s: acknowledged accepted=%d rejected=%d days=%d generation=%d, want %d/0/1/%d",
				c.path(), got.Accepted, got.Rejected, got.DaysAppended, got.Generation, c.reports, ck.gens[c.vehicle])
		}
	}
	if c.mustMiss && got.Cached {
		return fmt.Errorf("%s: answered from cache, but this call must miss", c.path())
	}
	ck.predictions += got.Predictions
	if want == nil {
		return fmt.Errorf("%s: no oracle answer", c.path())
	}
	var exp response
	if err := json.Unmarshal(want, &exp); err != nil {
		return fmt.Errorf("%s: oracle: %w", c.path(), err)
	}
	got.TookMS, exp.TookMS = 0, 0
	got.Cached, exp.Cached = false, false
	if !reflect.DeepEqual(got, exp) {
		return fmt.Errorf("%s: answer differs from the replay:\n  got  %s\n  want %s", c.path(), body, want)
	}
	return nil
}
