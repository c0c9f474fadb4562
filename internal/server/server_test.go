package server

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"vup/internal/canbus"
	"vup/internal/core"
	"vup/internal/etl"
	"vup/internal/fleet"
	"vup/internal/randx"
	"vup/internal/regress"
)

func testAPI(t *testing.T) (*API, *httptest.Server) {
	t.Helper()
	f, err := fleet.Generate(fleet.Config{Units: 3, Days: 400, Seed: 1, Start: fleet.StudyStart})
	if err != nil {
		t.Fatal(err)
	}
	usage := f.SimulateAll()
	rng := randx.New(2)
	var datasets []*etl.VehicleDataset
	for _, u := range f.Units {
		d, err := etl.FromUsage(u, usage[u.Vehicle.ID], rng.Split())
		if err != nil {
			t.Fatal(err)
		}
		datasets = append(datasets, d)
	}
	base := core.DefaultConfig()
	base.Algorithm = regress.AlgLasso
	base.W = 90
	base.K = 8
	base.MaxLag = 21
	base.Stride = 10
	base.Channels = []string{canbus.ChanFuelRate}
	store, err := NewStore(datasets)
	if err != nil {
		t.Fatal(err)
	}
	api := New(store, base)
	srv := httptest.NewServer(api.Handler())
	t.Cleanup(srv.Close)
	return api, srv
}

func get(t *testing.T, url string, wantStatus int, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("content type %q", ct)
	}
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
}

func TestHealth(t *testing.T) {
	_, srv := testAPI(t)
	var body map[string]any
	get(t, srv.URL+"/healthz", http.StatusOK, &body)
	if body["status"] != "ok" || body["vehicles"].(float64) != 3 {
		t.Errorf("health = %v", body)
	}
}

func TestVehiclesListing(t *testing.T) {
	_, srv := testAPI(t)
	var list []map[string]any
	get(t, srv.URL+"/v1/vehicles", http.StatusOK, &list)
	if len(list) != 3 {
		t.Fatalf("vehicles = %d", len(list))
	}
	first := list[0]
	if first["id"] != "veh-0000" || first["days"].(float64) != 400 {
		t.Errorf("summary = %v", first)
	}
	af := first["active_fraction"].(float64)
	if af <= 0 || af >= 1 {
		t.Errorf("active fraction = %v", af)
	}
}

func TestVehicleDetail(t *testing.T) {
	_, srv := testAPI(t)
	var body map[string]any
	get(t, srv.URL+"/v1/vehicles/veh-0001", http.StatusOK, &body)
	if body["id"] != "veh-0001" {
		t.Errorf("detail = %v", body)
	}
	var errBody map[string]any
	get(t, srv.URL+"/v1/vehicles/nope", http.StatusNotFound, &errBody)
	if errBody["error"] == "" {
		t.Error("missing error message")
	}
}

func TestForecastEndpoint(t *testing.T) {
	_, srv := testAPI(t)
	var body map[string]any
	get(t, srv.URL+"/v1/vehicles/veh-0000/forecast", http.StatusOK, &body)
	hours := body["hours"].(float64)
	if hours < 0 || hours > 24 {
		t.Errorf("hours = %v", hours)
	}
	if body["algorithm"] != "Lasso" || body["scenario"] != "next-day" {
		t.Errorf("defaults = %v", body)
	}
	if len(body["lags"].([]any)) == 0 {
		t.Error("no lags")
	}
	// Overrides.
	get(t, srv.URL+"/v1/vehicles/veh-0000/forecast?alg=MA&scenario=next-working-day&w=60", http.StatusOK, &body)
	if body["algorithm"] != "MA" || body["scenario"] != "next-working-day" {
		t.Errorf("overrides = %v", body)
	}
}

func TestForecastWithInterval(t *testing.T) {
	_, srv := testAPI(t)
	var body map[string]any
	get(t, srv.URL+"/v1/vehicles/veh-0000/forecast?interval=0.8", http.StatusOK, &body)
	hours := body["hours"].(float64)
	lo := body["lo"].(float64)
	hi := body["hi"].(float64)
	if lo > hours || hours > hi {
		t.Errorf("point outside band: %v not in [%v, %v]", hours, lo, hi)
	}
	if body["level"].(float64) != 0.8 {
		t.Errorf("level = %v", body["level"])
	}
	// Without interval, the band fields are absent.
	var plain map[string]any
	get(t, srv.URL+"/v1/vehicles/veh-0000/forecast", http.StatusOK, &plain)
	if _, present := plain["lo"]; present {
		t.Error("lo present without interval request")
	}
	// Invalid level.
	var errBody map[string]any
	get(t, srv.URL+"/v1/vehicles/veh-0000/forecast?interval=2", http.StatusBadRequest, &errBody)
	if errBody["error"] == "" {
		t.Error("missing error for bad interval")
	}
}

func TestForecastBadRequests(t *testing.T) {
	_, srv := testAPI(t)
	for _, q := range []string{"?alg=bogus", "?scenario=bogus", "?w=abc", "?w=0", "?k=-1"} {
		var body map[string]any
		get(t, srv.URL+"/v1/vehicles/veh-0000/forecast"+q, http.StatusBadRequest, &body)
		if body["error"] == "" {
			t.Errorf("query %s: missing error", q)
		}
	}
}

func TestEvaluationUnprocessable(t *testing.T) {
	_, srv := testAPI(t)
	// A window larger than the series leaves no test days.
	var body map[string]any
	get(t, srv.URL+"/v1/vehicles/veh-0000/evaluation?w=100000", http.StatusUnprocessableEntity, &body)
	if !strings.Contains(body["error"].(string), "evaluation failed") {
		t.Errorf("error = %v", body["error"])
	}
}

func TestEvaluationEndpoint(t *testing.T) {
	_, srv := testAPI(t)
	var body map[string]any
	get(t, srv.URL+"/v1/vehicles/veh-0002/evaluation", http.StatusOK, &body)
	pe := body["pe_percent"].(float64)
	if pe <= 0 || pe > 1000 {
		t.Errorf("pe = %v", pe)
	}
	if body["predictions"].(float64) <= 0 {
		t.Errorf("predictions = %v", body["predictions"])
	}
}

func TestLevelsEndpoint(t *testing.T) {
	_, srv := testAPI(t)
	var body map[string]any
	get(t, srv.URL+"/v1/vehicles/veh-0000/levels", http.StatusOK, &body)
	acc := body["accuracy"].(float64)
	if acc < 0 || acc > 1 {
		t.Errorf("accuracy = %v", acc)
	}
	if body["classifier"] != "Tree" {
		t.Errorf("default classifier = %v", body["classifier"])
	}
	levels := body["levels"].([]any)
	if len(levels) != 4 || levels[0] != "idle" {
		t.Errorf("levels = %v", levels)
	}
	confusion := body["confusion"].([]any)
	if len(confusion) != 4 {
		t.Errorf("confusion rows = %d", len(confusion))
	}
	// Majority baseline via query.
	get(t, srv.URL+"/v1/vehicles/veh-0000/levels?classifier=Majority", http.StatusOK, &body)
	if body["classifier"] != "Majority" {
		t.Errorf("classifier override = %v", body["classifier"])
	}
	// Unknown classifier is a 400.
	var errBody map[string]any
	get(t, srv.URL+"/v1/vehicles/veh-0000/levels?classifier=bogus", http.StatusBadRequest, &errBody)
	if errBody["error"] == "" {
		t.Error("missing error")
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, srv := testAPI(t)
	resp, err := http.Post(srv.URL+"/v1/vehicles", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST status = %d", resp.StatusCode)
	}
}

func TestStore(t *testing.T) {
	s, err := NewStore(nil)
	if err != nil {
		t.Fatal(err)
	}
	if ids := s.IDs(); len(ids) != 0 {
		t.Errorf("empty store ids = %v", ids)
	}
	if _, ok := s.Get("x"); ok {
		t.Error("empty store returned a dataset")
	}
	if g := s.Generation("x"); g != 0 {
		t.Errorf("fresh store generation = %d", g)
	}
}

func TestNewStoreRejectsInvalidDataset(t *testing.T) {
	// An empty dataset fails etl.Validate and must never enter the
	// store: downstream it summarizes to Active = 0/0 = NaN, which
	// encoding/json cannot encode. A roster needs distinct, non-empty
	// vehicle IDs: a repeated one would silently keep only the last
	// dataset.
	datasets := persistDatasets(t)
	noID := datasets[0].Clone()
	noID.VehicleID = ""
	for _, tc := range []struct {
		name     string
		datasets []*etl.VehicleDataset
	}{
		{"an empty dataset", []*etl.VehicleDataset{{VehicleID: "veh-empty"}}},
		{"an empty vehicle id", []*etl.VehicleDataset{datasets[0], noID}},
		{"a repeated vehicle id", []*etl.VehicleDataset{datasets[0], datasets[1], datasets[0].Clone()}},
	} {
		if _, err := NewStore(tc.datasets); err == nil {
			t.Errorf("NewStore accepted a fleet with %s", tc.name)
		}
	}
	s, err := NewStore(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(&etl.VehicleDataset{VehicleID: "veh-empty"}); err == nil {
		t.Fatal("Put accepted an empty dataset")
	}
	if err := s.Put(noID); err == nil || s.Len() != 0 {
		t.Fatalf("Put of a dataset with an empty vehicle id: err = %v, roster size %d", err, s.Len())
	}
}

// TestVehiclesListingAlwaysEncodable is the regression test for the
// NaN summary bug: even for a pathological dataset, /v1/vehicles must
// produce a complete, decodable JSON body, never a 200 header followed
// by a truncated body.
func TestVehiclesListingAlwaysEncodable(t *testing.T) {
	_, srv := testAPI(t)
	resp, err := http.Get(srv.URL + "/v1/vehicles")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []vehicleSummary
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatalf("body not decodable: %v", err)
	}
	for _, s := range list {
		if math.IsNaN(s.Active) || math.IsInf(s.Active, 0) {
			t.Errorf("vehicle %s: active_fraction = %v", s.ID, s.Active)
		}
	}
	// The guard itself: an empty dataset must summarize to an
	// encodable value even if one ever slipped past store validation.
	sum := summarize(&etl.VehicleDataset{VehicleID: "veh-empty"})
	if math.IsNaN(sum.Active) {
		t.Error("empty dataset summary has NaN active fraction")
	}
	if _, err := json.Marshal(sum); err != nil {
		t.Errorf("empty dataset summary not encodable: %v", err)
	}
}

func TestForecastHorizonParam(t *testing.T) {
	api, srv := testAPI(t)
	var body map[string]any
	get(t, srv.URL+"/v1/vehicles/veh-0000/forecast?horizon=5", http.StatusOK, &body)
	steps := body["horizon"].([]any)
	if len(steps) != 5 {
		t.Fatalf("horizon steps = %d", len(steps))
	}
	for i, s := range steps {
		v := s.(float64)
		if v < 0 || v > 24 {
			t.Errorf("step %d = %v", i, v)
		}
	}
	if steps[0].(float64) != body["hours"].(float64) {
		t.Errorf("horizon[0] = %v, hours = %v", steps[0], body["hours"])
	}
	// The endpoint must agree with the library path.
	d, _ := api.store.Get("veh-0000")
	want, err := core.ForecastHorizon(d, api.Base, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if steps[i].(float64) != want[i] {
			t.Errorf("step %d: %v != core %v", i, steps[i], want[i])
		}
	}
	// Plain requests carry no horizon field.
	var plain map[string]any
	get(t, srv.URL+"/v1/vehicles/veh-0000/forecast", http.StatusOK, &plain)
	if _, present := plain["horizon"]; present {
		t.Error("horizon present without horizon request")
	}
	// Bad values and the interval combination are 400s.
	for _, q := range []string{"?horizon=0", "?horizon=-2", "?horizon=abc", "?horizon=1000", "?horizon=3&interval=0.8"} {
		var errBody map[string]any
		get(t, srv.URL+"/v1/vehicles/veh-0000/forecast"+q, http.StatusBadRequest, &errBody)
		if errBody["error"] == "" {
			t.Errorf("query %s: missing error", q)
		}
	}
}

func TestForecastHorizonSharesCachedArtifact(t *testing.T) {
	api, srv := testAPI(t)
	api.Cache = NewForecastCache(8)
	// First request trains and caches the Fitted artifact.
	var first map[string]any
	get(t, srv.URL+"/v1/vehicles/veh-0001/forecast", http.StatusOK, &first)
	if first["cached"] == true {
		t.Fatal("first request reported cached")
	}
	// A horizon request reuses the same artifact: cached, no retrain,
	// and its first step is exactly the cached point forecast.
	var hz map[string]any
	get(t, srv.URL+"/v1/vehicles/veh-0001/forecast?horizon=3", http.StatusOK, &hz)
	if hz["cached"] != true {
		t.Error("horizon request did not reuse the cached artifact")
	}
	steps := hz["horizon"].([]any)
	if len(steps) != 3 {
		t.Fatalf("horizon steps = %d", len(steps))
	}
	if steps[0].(float64) != first["hours"].(float64) {
		t.Errorf("horizon[0] = %v, cached point = %v", steps[0], first["hours"])
	}
	stats := api.Cache.Stats()
	if stats.Misses != 1 || stats.Hits != 1 {
		t.Errorf("cache stats = %+v, want 1 miss + 1 hit", stats)
	}
}
