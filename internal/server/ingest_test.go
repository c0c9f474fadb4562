package server

// Acceptance tests for the streaming-ingest loop: raw 10-minute
// reports POSTed to a running server must become forecast-visible
// days — durably, per-vehicle, without disturbing other vehicles'
// cached artifacts.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"vup/internal/canbus"
	"vup/internal/core"
	"vup/internal/etl"
	"vup/internal/fstore"
	"vup/internal/obs"
	"vup/internal/obs/trace"
)

// ingestChannel, ingestReport and ingestRequest are the ingest wire
// format as encoding/json structs: the shape clients marshal, and what
// refDecodeIngest decodes into.
type ingestChannel struct {
	Samples int     `json:"samples"`
	Mean    float64 `json:"mean"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
}

type ingestReport struct {
	Start           time.Time                `json:"start"`
	EngineOnSeconds float64                  `json:"engine_on_seconds"`
	Channels        map[string]ingestChannel `json:"channels"`
}

type ingestRequest struct {
	Reports []ingestReport `json:"reports"`
}

// refDecodeIngest is the reference decoder the scanner must agree
// with: encoding/json's Decoder over the body under the same cap.
func refDecodeIngest(body io.Reader) ([]ingestReport, error) {
	var req ingestRequest
	err := json.NewDecoder(http.MaxBytesReader(nil, io.NopCloser(body), maxIngestBody)).Decode(&req)
	return req.Reports, err
}

// refSummarize is summarizeReports over per-report channel maps, the
// fold the scanner's interned slots replaced; like summarizeReports it
// measures the span before building any day.
func refSummarize(d *etl.VehicleDataset, reports []ingestReport) (days []fstore.Day, span, accepted int, reasons map[string]int) {
	reasons = make(map[string]int)
	last := d.Date(d.Len() - 1)
	type acc struct {
		hours         float64
		sums, weights map[string]float64
	}
	byDate := make(map[time.Time]*acc)
	var maxDate time.Time
	for _, r := range reports {
		if r.Start.IsZero() {
			reasons["missing_start"]++
			continue
		}
		if r.EngineOnSeconds < 0 || r.EngineOnSeconds > canbus.ReportInterval.Seconds() ||
			math.IsNaN(r.EngineOnSeconds) || math.IsInf(r.EngineOnSeconds, 0) {
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
			a = &acc{sums: make(map[string]float64), weights: make(map[string]float64)}
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
		return nil, 0, accepted, reasons
	}
	span = int(maxDate.Sub(last) / (24 * time.Hour))
	if span > maxIngestDays {
		return nil, span, accepted, reasons
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
	return days, span, accepted, reasons
}

func postJSON(t *testing.T, url string, body any, wantStatus int, into any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp
}

// dayReports builds a plausible device day: six 10-minute reports
// starting at 08:00 UTC, each fully engine-on, with one analog sample
// stream per dataset channel.
func dayReports(d *etl.VehicleDataset, date time.Time, mean float64) []ingestReport {
	var out []ingestReport
	for i := 0; i < 6; i++ {
		r := ingestReport{
			Start:           date.Add(8*time.Hour + time.Duration(i)*canbus.ReportInterval),
			EngineOnSeconds: canbus.ReportInterval.Seconds(),
			Channels:        make(map[string]ingestChannel, len(d.Channels)),
		}
		for name := range d.Channels {
			r.Channels[name] = ingestChannel{Samples: 60, Mean: mean, Min: mean - 1, Max: mean + 1}
		}
		out = append(out, r)
	}
	return out
}

func counterValue(t *testing.T, name string, labels ...obs.Label) float64 {
	t.Helper()
	s, _ := obs.FindSample(obs.Default.Gather(), name, labels...)
	return s.Value
}

// TestIngestEndToEnd is the issue's acceptance criterion: POST a
// report batch, the next forecast reflects the new days (rebuilt via
// plan extension, not served stale), the other vehicle's cached
// artifact survives, the ingest metrics move, and the appended days
// survive a restart through the fstore append log.
func TestIngestEndToEnd(t *testing.T) {
	datasets := persistDatasets(t)
	store, err := NewStore(datasets)
	if err != nil {
		t.Fatal(err)
	}
	dir, err := fstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dir.Save(datasets); err != nil {
		t.Fatal(err)
	}
	store.SetPersister(dir.SaveVehicle)
	store.SetAppender(dir.Append)

	api := New(store, persistConfig())
	api.Cache = NewForecastCache(16)
	api.IngestPolicy = etl.MissingForwardFill
	srv := httptest.NewServer(api.Handler())
	defer srv.Close()

	idA, idB := datasets[0].VehicleID, datasets[1].VehicleID
	lenA := datasets[0].Len()
	last := datasets[0].Date(lenA - 1)

	// Train both vehicles; B twice so its artifact is known-cached.
	var beforeA, b1, b2 forecastResponse
	get(t, srv.URL+"/v1/vehicles/"+idA+"/forecast", 200, &beforeA)
	get(t, srv.URL+"/v1/vehicles/"+idB+"/forecast", 200, &b1)
	get(t, srv.URL+"/v1/vehicles/"+idB+"/forecast", 200, &b2)
	if !b2.Cached {
		t.Fatal("second forecast of B must be a cache hit")
	}

	// Ingest days +1 and +3 for A: day +2 has no reports and must be
	// materialized unobserved, then repaired by the forward-fill policy.
	reports := append(
		dayReports(datasets[0], last.AddDate(0, 0, 1), 12.5),
		dayReports(datasets[0], last.AddDate(0, 0, 3), 14.0)...)
	accBefore := counterValue(t, "ingest_reports_accepted_total")
	daysBefore := counterValue(t, "ingest_days_appended_total")
	lagBefore, _ := obs.FindSample(obs.Default.Gather(), "ingest_to_visible_seconds")
	extBefore := counterValue(t, "forecast_plan_extended_total")
	rebBefore := counterValue(t, "forecast_plan_rebuilt_total")

	var ing ingestResponse
	postJSON(t, srv.URL+"/v1/vehicles/"+idA+"/ingest", ingestRequest{Reports: reports}, 200, &ing)
	if ing.Accepted != len(reports) || ing.Rejected != 0 {
		t.Fatalf("ingest accepted %d rejected %d (%v), want %d/0", ing.Accepted, ing.Rejected, ing.Reasons, len(reports))
	}
	if ing.DaysAppended != 3 {
		t.Fatalf("days_appended = %d, want 3 (two reported + one gap day)", ing.DaysAppended)
	}
	if ing.Generation != 1 {
		t.Fatalf("generation = %d, want 1", ing.Generation)
	}
	grown, _ := store.Get(idA)
	if grown.Len() != lenA+3 {
		t.Fatalf("store holds %d days, want %d", grown.Len(), lenA+3)
	}
	if h := grown.Hours[lenA]; h < 0.999 || h > 1.001 {
		t.Errorf("day +1 hours = %v, want ~1.0 (six fully-on 10-minute reports)", h)
	}
	if grown.Observed[lenA+1] {
		t.Error("gap day marked observed")
	}

	// The next forecast of A must train on the new tail...
	var afterA forecastResponse
	get(t, srv.URL+"/v1/vehicles/"+idA+"/forecast", 200, &afterA)
	if afterA.Cached {
		t.Error("forecast of A served a stale cached artifact after ingest")
	}
	// ...by extending the compiled plan, not recompiling it.
	if got := counterValue(t, "forecast_plan_extended_total"); got != extBefore+1 {
		t.Errorf("forecast_plan_extended_total = %v, want %v: append did not reuse the compiled plan", got, extBefore+1)
	}
	if got := counterValue(t, "forecast_plan_rebuilt_total"); got != rebBefore {
		t.Errorf("forecast_plan_rebuilt_total = %v, want %v: the post-ingest forecast recompiled", got, rebBefore)
	}
	// ...while B's artifact — a different vehicle, untouched generation —
	// keeps hitting.
	var b3 forecastResponse
	get(t, srv.URL+"/v1/vehicles/"+idB+"/forecast", 200, &b3)
	if !b3.Cached {
		t.Error("ingest into A evicted B's cached artifact")
	}

	// Ingest telemetry moved.
	if got := counterValue(t, "ingest_reports_accepted_total"); got != accBefore+float64(len(reports)) {
		t.Errorf("ingest_reports_accepted_total = %v, want %v", got, accBefore+float64(len(reports)))
	}
	if got := counterValue(t, "ingest_days_appended_total"); got != daysBefore+3 {
		t.Errorf("ingest_days_appended_total = %v, want %v", got, daysBefore+3)
	}
	if lagAfter, ok := obs.FindSample(obs.Default.Gather(), "ingest_to_visible_seconds"); !ok || lagAfter.Count < lagBefore.Count+1 {
		t.Errorf("ingest_to_visible_seconds count %d, want > %d", lagAfter.Count, lagBefore.Count)
	}

	// Restart: the appended days came back through the append log with
	// the exact fingerprint the live store served.
	if err := dir.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := fstore.Open(dir.Path())
	if err != nil {
		t.Fatal(err)
	}
	loaded, _, err := reopened.Load()
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, ld := range loaded {
		if ld.VehicleID != idA {
			continue
		}
		found = true
		if ld.Len() != grown.Len() {
			t.Errorf("replayed %d days, want %d", ld.Len(), grown.Len())
		}
		if ld.Fingerprint() != grown.Fingerprint() {
			t.Errorf("fingerprint drifted across restart: %016x vs %016x", ld.Fingerprint(), grown.Fingerprint())
		}
	}
	if !found {
		t.Fatalf("vehicle %q missing after restart", idA)
	}
}

// TestForecastPlanCounts pins the plan decisions of an ingest-heavy
// vehicle: its first forecast compiles one plan, and every forecast
// after a one-day ingest extends it exactly once — also across the
// rounds where the forecast plan copies its window down.
func TestForecastPlanCounts(t *testing.T) {
	datasets := persistDatasets(t)
	store, err := NewStore(datasets)
	if err != nil {
		t.Fatal(err)
	}
	api := New(store, persistConfig())
	api.Cache = NewForecastCache(16)
	srv := httptest.NewServer(api.Handler())
	defer srv.Close()

	d := datasets[0]
	// W=20 and MaxLag=21: the forecast plan copies its 41-row window
	// down once more than 41 days were appended.
	url := srv.URL + "/v1/vehicles/" + d.VehicleID + "/forecast?w=20"
	const rounds = 50
	ext0 := counterValue(t, "forecast_plan_extended_total")
	reb0 := counterValue(t, "forecast_plan_rebuilt_total")
	var fc forecastResponse
	get(t, url, 200, &fc)
	for i := 1; i <= rounds; i++ {
		var ing ingestResponse
		day := d.Date(d.Len()-1).AddDate(0, 0, i)
		postJSON(t, srv.URL+"/v1/vehicles/"+d.VehicleID+"/ingest", ingestRequest{Reports: dayReports(d, day, 10)}, 200, &ing)
		if ing.DaysAppended != 1 {
			t.Fatalf("round %d: days_appended = %d, want 1", i, ing.DaysAppended)
		}
		fc = forecastResponse{}
		get(t, url, 200, &fc)
		if fc.Cached {
			t.Fatalf("round %d: post-ingest forecast served from the cache", i)
		}
		var hit forecastResponse
		get(t, url, 200, &hit) // a cache hit: no plan decision at all
		if !hit.Cached {
			t.Fatalf("round %d: repeated forecast missed the cache", i)
		}
	}
	if got := counterValue(t, "forecast_plan_rebuilt_total") - reb0; got != 1 {
		t.Errorf("%v plan rebuilds, want 1", got)
	}
	if got := counterValue(t, "forecast_plan_extended_total") - ext0; got != rounds {
		t.Errorf("%v plan extensions, want one per post-ingest forecast (%d)", got, rounds)
	}
	grown, _ := store.Get(d.VehicleID)
	want, _, err := core.Forecast(grown, fcConfig(t, api, "w=20"))
	if err != nil {
		t.Fatal(err)
	}
	if fc.Hours != want {
		t.Errorf("forecast after %d extensions = %v, want %v", rounds, fc.Hours, want)
	}
}

// TestEvaluationBesideForecastPlan interleaves evaluations and
// forecasts of one vehicle and config across an ingest: the forecast's
// plan is a forecast plan, so the evaluation must compile and extend
// its own full plan, and still equal a fresh evaluation.
func TestEvaluationBesideForecastPlan(t *testing.T) {
	datasets := persistDatasets(t)
	store, err := NewStore(datasets)
	if err != nil {
		t.Fatal(err)
	}
	api := New(store, persistConfig())
	api.Cache = NewForecastCache(16)
	srv := httptest.NewServer(api.Handler())
	defer srv.Close()

	d := datasets[0]
	base := srv.URL + "/v1/vehicles/" + d.VehicleID
	ext0 := counterValue(t, "forecast_plan_extended_total")
	reb0 := counterValue(t, "forecast_plan_rebuilt_total")
	check := func(stage string) {
		t.Helper()
		var ev evaluationResponse
		get(t, base+"/evaluation", 200, &ev)
		var fc forecastResponse
		get(t, base+"/forecast", 200, &fc)
		cur, _ := store.Get(d.VehicleID)
		want, err := core.EvaluateVehicleContext(context.Background(), cur, api.Base)
		if err != nil {
			t.Fatal(err)
		}
		if ev.PE != want.PE || ev.MAE != want.MAE || ev.Predictions != len(want.Predictions) || ev.Skipped != want.SkippedWindows {
			t.Errorf("%s: evaluation %+v, want PE %v MAE %v predictions %d skipped %d",
				stage, ev, want.PE, want.MAE, len(want.Predictions), want.SkippedWindows)
		}
		wantHours, _, err := core.Forecast(cur, api.Base)
		if err != nil {
			t.Fatal(err)
		}
		if fc.Hours != wantHours {
			t.Errorf("%s: forecast %v, want %v", stage, fc.Hours, wantHours)
		}
	}
	// Forecast first, so a shared seed would hand the evaluation a
	// forecast plan.
	var fc forecastResponse
	get(t, base+"/forecast", 200, &fc)
	check("before ingest")
	day := d.Date(d.Len()-1).AddDate(0, 0, 1)
	postJSON(t, base+"/ingest", ingestRequest{Reports: dayReports(d, day, 10)}, 200, nil)
	check("after ingest")
	if got := counterValue(t, "forecast_plan_rebuilt_total") - reb0; got != 2 {
		t.Errorf("%v plan rebuilds, want 2: one forecast plan, one full plan", got)
	}
	if got := counterValue(t, "forecast_plan_extended_total") - ext0; got != 2 {
		t.Errorf("%v plan extensions, want 2: each plan once after the ingest", got)
	}
}

// fcConfig is the config the API derives from a query string.
func fcConfig(t *testing.T, api *API, query string) core.Config {
	t.Helper()
	r := httptest.NewRequest("GET", "/?"+query, nil)
	cfg, err := api.configFromQuery(r)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestIngestRejections: malformed batches are 4xx, individually bad
// reports are counted by reason without failing the batch.
func TestIngestRejections(t *testing.T) {
	datasets := persistDatasets(t)
	store, err := NewStore(datasets)
	if err != nil {
		t.Fatal(err)
	}
	api := New(store, persistConfig())
	srv := httptest.NewServer(api.Handler())
	defer srv.Close()
	id := datasets[0].VehicleID
	last := datasets[0].Date(datasets[0].Len() - 1)

	// Unknown vehicle.
	postJSON(t, srv.URL+"/v1/vehicles/veh-nope/ingest", ingestRequest{Reports: dayReports(datasets[0], last.AddDate(0, 0, 1), 1)}, 404, nil)
	// Malformed JSON.
	resp, err := http.Post(srv.URL+"/v1/vehicles/"+id+"/ingest", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d, want 400", resp.StatusCode)
	}
	// Empty batch.
	postJSON(t, srv.URL+"/v1/vehicles/"+id+"/ingest", ingestRequest{}, 400, nil)

	// Per-report rejections: one stale (covered day), one missing start,
	// one impossible engine-on, one good.
	good := dayReports(datasets[0], last.AddDate(0, 0, 1), 10)[0]
	batch := []ingestReport{
		{Start: last, EngineOnSeconds: 60},                                   // stale
		{EngineOnSeconds: 60},                                                // missing_start
		{Start: last.AddDate(0, 0, 1), EngineOnSeconds: 3 * 600},             // invalid_engine_on
		{Start: last.AddDate(0, 0, 1).Add(time.Hour), EngineOnSeconds: -1.0}, // invalid_engine_on
		good,
	}
	var ing ingestResponse
	postJSON(t, srv.URL+"/v1/vehicles/"+id+"/ingest", ingestRequest{Reports: batch}, 200, &ing)
	if ing.Accepted != 1 || ing.Rejected != 4 {
		t.Fatalf("accepted %d rejected %d, want 1/4 (%v)", ing.Accepted, ing.Rejected, ing.Reasons)
	}
	want := map[string]int{"stale": 1, "missing_start": 1, "invalid_engine_on": 2}
	for reason, n := range want {
		if ing.Reasons[reason] != n {
			t.Errorf("reason %q = %d, want %d", reason, ing.Reasons[reason], n)
		}
	}
	if ing.DaysAppended != 1 {
		t.Errorf("days_appended = %d, want 1", ing.DaysAppended)
	}

	// A batch whose newest report is too far ahead: the materialized gap
	// would exceed the per-batch cap.
	farAhead := dayReports(datasets[0], last.AddDate(0, 0, maxIngestDays+2), 10)
	postJSON(t, srv.URL+"/v1/vehicles/"+id+"/ingest", ingestRequest{Reports: farAhead}, 422, nil)
}

// TestIngestBackpressure: with the concurrency gate full, a batch is
// shed with 503 + Retry-After instead of queueing on the disk, and the
// rejection is counted.
func TestIngestBackpressure(t *testing.T) {
	datasets := persistDatasets(t)
	store, err := NewStore(datasets)
	if err != nil {
		t.Fatal(err)
	}
	api := New(store, persistConfig())
	api.IngestConcurrency = 1
	srv := httptest.NewServer(api.Handler())
	defer srv.Close()
	id := datasets[0].VehicleID
	last := datasets[0].Date(datasets[0].Len() - 1)

	api.ingestGate() <- struct{}{} // occupy the only slot
	defer func() { <-api.ingestGate() }()

	before := counterValue(t, "ingest_backpressure_rejections_total")
	raw, err := json.Marshal(ingestRequest{Reports: dayReports(datasets[0], last.AddDate(0, 0, 1), 10)})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/vehicles/"+id+"/ingest", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	if got := counterValue(t, "ingest_backpressure_rejections_total"); got != before+1 {
		t.Errorf("ingest_backpressure_rejections_total = %v, want %v", got, before+1)
	}
	if d, _ := store.Get(id); d.Len() != datasets[0].Len() {
		t.Error("shed batch still appended days")
	}
}

// TestIngestFarFutureGapRefusedUpFront: a report dated years ahead is
// refused with 422 before any gap day is built, so refusing it costs
// a few allocations, not one per day of the gap.
func TestIngestFarFutureGapRefusedUpFront(t *testing.T) {
	datasets := persistDatasets(t)
	store, err := NewStore(datasets)
	if err != nil {
		t.Fatal(err)
	}
	h := New(store, persistConfig()).Handler()
	d := datasets[0]
	far := d.Date(d.Len()-1).AddDate(5, 0, 0) // 1 827 days ahead
	raw, err := json.Marshal(ingestRequest{Reports: dayReports(d, far, 10)[:1]})
	if err != nil {
		t.Fatal(err)
	}
	post := func() int {
		req := httptest.NewRequest(http.MethodPost, "/v1/vehicles/"+d.VehicleID+"/ingest", bytes.NewReader(raw))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code
	}
	if code := post(); code != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422", code)
	}
	// Building the gap took at least one map per day (1 827 days).
	if allocs := testing.AllocsPerRun(5, func() { post() }); allocs > 300 {
		t.Errorf("refusing a 5-year gap allocated %.0f times per request, want <= 300", allocs)
	}
	if cur, _ := store.Get(d.VehicleID); cur.Len() != d.Len() {
		t.Error("refused batch still appended days")
	}
}

// rejectedTotal sums ingest_reports_rejected_total over every reason.
func rejectedTotal() float64 {
	var sum float64
	for _, fam := range obs.Default.Gather() {
		if fam.Name == "ingest_reports_rejected_total" {
			for _, s := range fam.Samples {
				sum += s.Value
			}
		}
	}
	return sum
}

// TestIngestRefusedBatchCountsNothing: a batch refused with 422 for
// spanning too many days leaves the accepted and rejected report
// counters where they were — reports count only once a batch lands.
func TestIngestRefusedBatchCountsNothing(t *testing.T) {
	datasets := persistDatasets(t)
	store, err := NewStore(datasets)
	if err != nil {
		t.Fatal(err)
	}
	h := New(store, persistConfig()).Handler()
	d := datasets[0]
	last := d.Date(d.Len() - 1)
	// Six reports 200 days ahead (accepted on their own) and one for a
	// day already held (rejected as stale).
	reports := append(dayReports(d, last.AddDate(0, 0, 200), 10), dayReports(d, last, 10)[0])
	raw, err := json.Marshal(ingestRequest{Reports: reports})
	if err != nil {
		t.Fatal(err)
	}
	accepted0, rejected0 := counterValue(t, "ingest_reports_accepted_total"), rejectedTotal()
	req := httptest.NewRequest(http.MethodPost, "/v1/vehicles/"+d.VehicleID+"/ingest", bytes.NewReader(raw))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %s", rec.Code, rec.Body)
	}
	if got := counterValue(t, "ingest_reports_accepted_total") - accepted0; got != 0 {
		t.Errorf("refused batch moved ingest_reports_accepted_total by %v", got)
	}
	if got := rejectedTotal() - rejected0; got != 0 {
		t.Errorf("refused batch moved ingest_reports_rejected_total by %v", got)
	}
}

// TestIngestShedsBeforeAcquire: with the gate full, a batch for a cold
// vehicle of a lazy store is shed without faulting that vehicle in, so
// it evicts nothing either; an unknown vehicle is shed the same way.
func TestIngestShedsBeforeAcquire(t *testing.T) {
	datasets := persistDatasets(t)
	budget := datasets[0].SizeBytes() + 1 // one resident vehicle at a time
	_, store, loads := lazyFixture(t, datasets, budget)
	api := New(store, persistConfig())
	api.IngestConcurrency = 1
	h := api.Handler()

	// Make vehicle 0 resident; vehicle 1 stays cold.
	_, _, _, release, err := store.Acquire(context.Background(), datasets[0].VehicleID)
	if err != nil {
		t.Fatal(err)
	}
	release()
	api.ingestGate() <- struct{}{} // occupy the only slot
	defer func() { <-api.ingestGate() }()

	loads0 := loads.Load()
	evictions0 := counterValue(t, "fstore_evictions_total")
	resident0, bytes0 := store.ResidentStats()
	d := datasets[1]
	raw, err := json.Marshal(ingestRequest{Reports: dayReports(d, d.Date(d.Len()-1).AddDate(0, 0, 1), 10)})
	if err != nil {
		t.Fatal(err)
	}
	post := func(id string) {
		t.Helper()
		req := httptest.NewRequest(http.MethodPost, "/v1/vehicles/"+id+"/ingest", bytes.NewReader(raw))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("%s: status %d, want 503", id, rec.Code)
		}
	}
	post(d.VehicleID)
	if got := loads.Load(); got != loads0 {
		t.Errorf("the shed batch caused %d loads", got-loads0)
	}
	if got := counterValue(t, "fstore_evictions_total"); got != evictions0 {
		t.Errorf("the shed batch caused %v evictions", got-evictions0)
	}
	if resident, bytes := store.ResidentStats(); resident != resident0 || bytes != bytes0 {
		t.Errorf("resident set moved from %d vehicles/%d B to %d/%d B", resident0, bytes0, resident, bytes)
	}
	post("veh-nope") // shed before the lookup that would 404
}

// BenchmarkIngestToVisible measures the tentpole's serving-side
// number: wall time from a one-day report batch hitting the handler to
// the appended day being forecast-visible, with real append-log fsync
// durability on a disk-backed store. Recorded in BENCH_ingest.json.
func BenchmarkIngestToVisible(b *testing.B) {
	api := benchAPI(b)
	dir, err := fstore.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := dir.Save(api.store.Snapshot()); err != nil {
		b.Fatal(err)
	}
	api.store.SetAppender(dir.Append)
	h := api.Handler()

	id := "veh-0000"
	d, _ := api.store.Get(id)
	date := d.Date(d.Len() - 1)
	bodies := make([][]byte, b.N)
	for i := range bodies {
		date = date.AddDate(0, 0, 1)
		raw, err := json.Marshal(ingestRequest{Reports: dayReports(d, date, 12.5)})
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = raw
	}
	b.ReportAllocs()
	b.ResetTimer()
	for _, raw := range bodies {
		req := httptest.NewRequest(http.MethodPost, "/v1/vehicles/"+id+"/ingest", bytes.NewReader(raw))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
}

// TestIngestSpansNestUnderRoot pins the ingest trace shape: decode,
// summarize and append are siblings under the request's root span, so
// none of them is timed inside another.
func TestIngestSpansNestUnderRoot(t *testing.T) {
	datasets := persistDatasets(t)
	store, err := NewStore(datasets)
	if err != nil {
		t.Fatal(err)
	}
	api := New(store, persistConfig())
	api.Traces = trace.NewCollector(trace.Options{Capacity: 4, SampleRate: 1, Seed: 1})
	srv := httptest.NewServer(api.Handler())
	defer srv.Close()

	d := datasets[0]
	reports := dayReports(d, d.Date(d.Len()-1).AddDate(0, 0, 1), 10)
	resp := postJSON(t, srv.URL+"/v1/vehicles/"+d.VehicleID+"/ingest", ingestRequest{Reports: reports}, 200, nil)
	traceID := resp.Header.Get("X-Trace-Id")
	if traceID == "" {
		t.Fatal("no X-Trace-Id header on traced ingest")
	}
	// The root span ends after the response is written; poll briefly.
	var td *trace.TraceData
	for deadline := time.Now().Add(2 * time.Second); td == nil && time.Now().Before(deadline); {
		if got, ok := api.Traces.Get(traceID); ok {
			td = got
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}
	if td == nil {
		t.Fatalf("trace %s never stored", traceID)
	}
	root := td.Spans[0]
	if root.ParentID != "" {
		t.Fatalf("first span %q has parent %q, want the root", root.Name, root.ParentID)
	}
	parents := map[string]string{}
	for _, sp := range td.Spans {
		parents[sp.Name] = sp.ParentID
	}
	for _, name := range []string{"ingest.decode", "ingest.summarize", "ingest.append"} {
		parent, ok := parents[name]
		if !ok {
			t.Errorf("span %q missing from the ingest trace", name)
		} else if parent != root.SpanID {
			t.Errorf("span %q has parent %q, want the root %q", name, parent, root.SpanID)
		}
	}
}
