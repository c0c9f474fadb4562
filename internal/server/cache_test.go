package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vup/internal/core"
	"vup/internal/etl"
	"vup/internal/regress"
)

func TestCacheHitMissEviction(t *testing.T) {
	c := NewForecastCache(2)
	builds := 0
	build := func(v string) func(context.Context) (any, error) {
		return func(context.Context) (any, error) { builds++; return v, nil }
	}

	v, cached, err := c.DoContext(context.Background(), "a", 0, build("A"))
	if err != nil || cached || v != "A" {
		t.Fatalf("first lookup = %v cached=%v err=%v", v, cached, err)
	}
	v, cached, _ = c.DoContext(context.Background(), "a", 0, build("A2"))
	if !cached || v != "A" {
		t.Fatalf("second lookup = %v cached=%v, want cached A", v, cached)
	}
	if builds != 1 {
		t.Fatalf("builds = %d, want 1", builds)
	}

	// Fill to capacity, then insert a third key: "a" was refreshed by
	// the hit above, so "b" is the LRU victim.
	c.DoContext(context.Background(), "b", 0, build("B"))
	c.DoContext(context.Background(), "a", 0, build("A3"))
	c.DoContext(context.Background(), "c", 0, build("C"))
	if _, cached, _ := c.DoContext(context.Background(), "a", 0, build("A4")); !cached {
		t.Error("recently used entry evicted")
	}
	if _, cached, _ := c.DoContext(context.Background(), "b", 0, build("B2")); cached {
		t.Error("LRU victim still cached")
	}

	st := c.Stats()
	if st.Evictions == 0 {
		t.Errorf("stats = %+v, expected evictions", st)
	}
	if c.Len() > 2 {
		t.Errorf("len = %d, over capacity", c.Len())
	}
}

func TestCacheGenerationInvalidation(t *testing.T) {
	c := NewForecastCache(4)
	builds := 0
	build := func(context.Context) (any, error) { builds++; return builds, nil }

	c.DoContext(context.Background(), "k", 1, build)
	if _, cached, _ := c.DoContext(context.Background(), "k", 1, build); !cached {
		t.Fatal("same-generation lookup missed")
	}
	// The store moved on: the artifact is stale regardless of key.
	v, cached, _ := c.DoContext(context.Background(), "k", 2, build)
	if cached {
		t.Fatal("stale-generation artifact served")
	}
	if v != 2 || builds != 2 {
		t.Fatalf("rebuild = %v (builds %d), want fresh build", v, builds)
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Errorf("stats = %+v, want exactly one staleness eviction", st)
	}
}

func TestCacheErrorsNotStored(t *testing.T) {
	c := NewForecastCache(4)
	boom := errors.New("boom")
	if _, _, err := c.DoContext(context.Background(), "k", 0, func(context.Context) (any, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if c.Len() != 0 {
		t.Fatal("error result cached")
	}
	v, cached, err := c.DoContext(context.Background(), "k", 0, func(context.Context) (any, error) { return "ok", nil })
	if err != nil || cached || v != "ok" {
		t.Fatalf("retry after error = %v cached=%v err=%v", v, cached, err)
	}
}

func TestCacheDisabledBypass(t *testing.T) {
	for _, c := range []*ForecastCache{nil, NewForecastCache(0)} {
		builds := 0
		for i := 0; i < 3; i++ {
			if _, cached, _ := c.DoContext(context.Background(), "k", 0, func(context.Context) (any, error) { builds++; return builds, nil }); cached {
				t.Fatal("disabled cache reported a hit")
			}
		}
		if builds != 3 {
			t.Fatalf("builds = %d, want one per lookup", builds)
		}
		if c.Enabled() {
			t.Fatal("disabled cache reports enabled")
		}
	}
}

// TestCacheCoalescing proves the singleflight contract at the cache
// level: N concurrent identical lookups run the build exactly once and
// all share its result. Run under -race in CI.
func TestCacheCoalescing(t *testing.T) {
	c := NewForecastCache(4)
	const n = 16
	var builds atomic.Int64
	started := make(chan struct{})
	var wg sync.WaitGroup
	results := make([]any, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-started
			v, _, err := c.DoContext(context.Background(), "k", 0, func(context.Context) (any, error) {
				builds.Add(1)
				time.Sleep(50 * time.Millisecond) // hold the flight open
				return "shared", nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	close(started)
	wg.Wait()
	if got := builds.Load(); got != 1 {
		t.Errorf("builds = %d, want 1", got)
	}
	for i, v := range results {
		if v != "shared" {
			t.Errorf("goroutine %d got %v", i, v)
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.Coalesced+st.Hits != n-1 {
		t.Errorf("stats = %+v, want 1 miss and %d shared", st, n-1)
	}
}

// TestCacheStaleGenerationNotCoalesced is the regression test for the
// stale-coalescing bug: a lookup that observed generation 2 (after a
// Put) used to share a build started against generation 1 and return
// its stale result marked cached. It must start its own build — and
// the late gen-1 artifact must not clobber the fresher one.
func TestCacheStaleGenerationNotCoalesced(t *testing.T) {
	c := NewForecastCache(4)
	inBuild := make(chan struct{})
	release := make(chan struct{})
	oldDone := make(chan any, 1)
	go func() {
		v, _, err := c.DoContext(context.Background(), "k", 1, func(context.Context) (any, error) {
			close(inBuild)
			<-release
			return "old", nil
		})
		if err != nil {
			t.Error(err)
		}
		oldDone <- v
	}()
	<-inBuild // gen-1 flight is open; the store has since moved to gen 2

	freshDone := make(chan any, 1)
	go func() {
		v, cached, err := c.DoContext(context.Background(), "k", 2, func(context.Context) (any, error) { return "new", nil })
		if err != nil {
			t.Error(err)
		}
		if cached {
			t.Error("gen-2 lookup coalesced onto the stale gen-1 flight")
		}
		freshDone <- v
	}()
	select {
	case v := <-freshDone:
		if v != "new" {
			t.Fatalf("gen-2 lookup returned %v, want its own build", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("gen-2 lookup blocked behind the stale gen-1 flight")
	}

	close(release)
	if v := <-oldDone; v != "old" {
		t.Fatalf("gen-1 builder returned %v", v)
	}
	// The gen-1 build finished last; the cache must still serve gen 2.
	v, cached, _ := c.DoContext(context.Background(), "k", 2, func(context.Context) (any, error) { return "rebuilt", nil })
	if !cached || v != "new" {
		t.Errorf("cache serves %v (cached=%v), want the gen-2 artifact as a hit", v, cached)
	}
}

// TestCacheCanceledWaiterReturns is the regression test for the
// ignored-cancellation bug: a coalesced waiter used to block on the
// flight with no ctx select, piling canceled requests behind a slow
// fit. It must return ctx.Err() immediately and leave the flight
// running for the others.
func TestCacheCanceledWaiterReturns(t *testing.T) {
	c := NewForecastCache(4)
	inBuild := make(chan struct{})
	release := make(chan struct{})
	builderDone := make(chan struct{})
	go func() {
		defer close(builderDone)
		if _, _, err := c.DoContext(context.Background(), "k", 0, func(context.Context) (any, error) {
			close(inBuild)
			<-release
			return "v", nil
		}); err != nil {
			t.Error(err)
		}
	}()
	<-inBuild

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	waiterDone := make(chan error, 1)
	go func() {
		v, cached, err := c.DoContext(ctx, "k", 0, func(context.Context) (any, error) {
			t.Error("canceled waiter ran its own build")
			return nil, nil
		})
		if v != nil || cached {
			t.Errorf("canceled waiter returned v=%v cached=%v", v, cached)
		}
		waiterDone <- err
	}()
	select {
	case err := <-waiterDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled waiter error = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled waiter still blocked on the in-flight build")
	}

	// The flight was not disturbed: it completes and its artifact lands.
	close(release)
	<-builderDone
	v, cached, _ := c.DoContext(context.Background(), "k", 0, func(context.Context) (any, error) { return "fresh", nil })
	if !cached || v != "v" {
		t.Errorf("flight result lost after a waiter canceled: got %v cached=%v", v, cached)
	}
}

// cachedAPI builds a test API whose Base counts model constructions:
// every training run (core.Forecast, or one evaluation window) builds
// exactly one model, so the counter tracks fits.
func cachedAPI(t *testing.T, capacity int) (*API, string, *atomic.Int64) {
	t.Helper()
	api, srv := testAPI(t)
	api.Cache = NewForecastCache(capacity)
	fits := new(atomic.Int64)
	api.Base.ModelFactory = func() (regress.Regressor, error) {
		fits.Add(1)
		return regress.New(api.Base.Algorithm)
	}
	return api, srv.URL, fits
}

// TestForecastEndpointCoalescing is the acceptance check: N concurrent
// identical forecast requests perform exactly one model fit.
func TestForecastEndpointCoalescing(t *testing.T) {
	_, srv, fits := cachedAPI(t, 8)
	const n = 8
	var wg sync.WaitGroup
	hours := make([]float64, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var body map[string]any
			get(t, srv+"/v1/vehicles/veh-0000/forecast", http.StatusOK, &body)
			hours[i] = body["hours"].(float64)
		}(i)
	}
	wg.Wait()
	if got := fits.Load(); got != 1 {
		t.Errorf("fits = %d, want 1 for %d concurrent identical requests", got, n)
	}
	for i := 1; i < n; i++ {
		if hours[i] != hours[0] {
			t.Errorf("request %d got %v hours, request 0 got %v", i, hours[i], hours[0])
		}
	}
	// A follow-up request is a plain cache hit, still no new fit.
	var body map[string]any
	get(t, srv+"/v1/vehicles/veh-0000/forecast", http.StatusOK, &body)
	if fits.Load() != 1 {
		t.Errorf("fits after warm request = %d", fits.Load())
	}
	if body["cached"] != true {
		t.Error("warm response not marked cached")
	}
}

func TestForecastCacheKeying(t *testing.T) {
	_, srv, fits := cachedAPI(t, 8)
	var body map[string]any
	get(t, srv+"/v1/vehicles/veh-0000/forecast", http.StatusOK, &body)
	get(t, srv+"/v1/vehicles/veh-0000/forecast", http.StatusOK, &body)
	if fits.Load() != 1 {
		t.Fatalf("fits = %d after identical requests", fits.Load())
	}
	// A different config trains anew...
	get(t, srv+"/v1/vehicles/veh-0000/forecast?w=60", http.StatusOK, &body)
	if fits.Load() != 2 {
		t.Errorf("fits = %d after config change", fits.Load())
	}
	// ...and so does a different vehicle.
	get(t, srv+"/v1/vehicles/veh-0001/forecast", http.StatusOK, &body)
	if fits.Load() != 3 {
		t.Errorf("fits = %d after vehicle change", fits.Load())
	}
}

// TestForecastCacheInvalidationOnPut proves generation-based
// invalidation end to end: replacing a vehicle's dataset makes the
// next identical request retrain.
func TestForecastCacheInvalidationOnPut(t *testing.T) {
	api, srv, fits := cachedAPI(t, 8)
	var body map[string]any
	get(t, srv+"/v1/vehicles/veh-0000/forecast", http.StatusOK, &body)
	get(t, srv+"/v1/vehicles/veh-0000/forecast", http.StatusOK, &body)
	if fits.Load() != 1 {
		t.Fatalf("fits = %d before store change", fits.Load())
	}

	d, ok := api.store.Get("veh-0000")
	if !ok {
		t.Fatal("veh-0000 missing")
	}
	// Perturb the series: the replacement dataset must retrain.
	mod := *d
	mod.Hours = append([]float64(nil), d.Hours...)
	mod.Hours[len(mod.Hours)-1] += 1
	if err := api.store.Put(&mod); err != nil {
		t.Fatal(err)
	}
	if api.store.Generation("veh-0000") != 1 {
		t.Fatalf("generation = %d after Put", api.store.Generation("veh-0000"))
	}
	// Fresh map: decoding into a reused map merges keys, and the
	// omitempty cached field would leave a stale true behind.
	var cold map[string]any
	get(t, srv+"/v1/vehicles/veh-0000/forecast", http.StatusOK, &cold)
	if fits.Load() != 2 {
		t.Errorf("fits = %d after dataset replacement, want retrain", fits.Load())
	}
	if cold["cached"] == true {
		t.Error("post-invalidation response claims cached")
	}
}

func TestForecastCacheSizeZeroBypass(t *testing.T) {
	_, srv, fits := cachedAPI(t, 0)
	var body map[string]any
	get(t, srv+"/v1/vehicles/veh-0000/forecast", http.StatusOK, &body)
	get(t, srv+"/v1/vehicles/veh-0000/forecast", http.StatusOK, &body)
	if fits.Load() != 2 {
		t.Errorf("fits = %d with -cache-size 0, want one per request", fits.Load())
	}
	if body["cached"] == true {
		t.Error("bypass response claims cached")
	}
}

func TestEvaluationEndpointCached(t *testing.T) {
	_, srv, fits := cachedAPI(t, 8)
	var body map[string]any
	get(t, srv+"/v1/vehicles/veh-0000/evaluation", http.StatusOK, &body)
	cold := fits.Load()
	if cold == 0 {
		t.Fatal("evaluation performed no fits")
	}
	get(t, srv+"/v1/vehicles/veh-0000/evaluation", http.StatusOK, &body)
	if fits.Load() != cold {
		t.Errorf("fits = %d after warm evaluation, want %d", fits.Load(), cold)
	}
	if body["cached"] != true {
		t.Error("warm evaluation not marked cached")
	}
}

// TestEvaluationLeaderCancelKeepsWaiter pins the shared-flight
// semantics of a slow evaluation: the request that started the build
// goes away mid-build, and the request coalesced onto it still gets
// the finished 200 result. The evaluation fans its windows out over a
// worker pool; the pool must not stop on the leader's cancellation.
func TestEvaluationLeaderCancelKeepsWaiter(t *testing.T) {
	api, _ := testAPI(t)
	api.Cache = NewForecastCache(8)
	building := make(chan struct{}, 1)
	release := make(chan struct{})
	api.Base.ModelFactory = func() (regress.Regressor, error) {
		select {
		case building <- struct{}{}:
		default:
		}
		<-release
		return regress.New(api.Base.Algorithm)
	}
	h := api.Handler()
	const path = "/v1/vehicles/veh-0000/evaluation"
	serve := func(ctx context.Context) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil).WithContext(ctx))
		return rec
	}

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		serve(leaderCtx)
	}()
	<-building
	waiter := make(chan *httptest.ResponseRecorder, 1)
	go func() { waiter <- serve(context.Background()) }()
	for deadline := time.Now().Add(5 * time.Second); api.Cache.Stats().Coalesced == 0; {
		if time.Now().After(deadline) {
			close(release)
			t.Fatal("second request never coalesced onto the build")
		}
		time.Sleep(time.Millisecond)
	}

	cancelLeader()
	close(release)
	<-leaderDone
	rec := <-waiter
	if rec.Code != http.StatusOK {
		t.Fatalf("coalesced waiter status = %d after the leader canceled: %s", rec.Code, rec.Body)
	}
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if n, _ := body["predictions"].(float64); body["cached"] != true || n == 0 {
		t.Errorf("waiter body = %v, want the shared build's predictions", body)
	}
}

// TestCacheMetricsExposed checks the acceptance criterion that
// forecast_cache_hits_total is visible on /metrics after a hit.
func TestCacheMetricsExposed(t *testing.T) {
	_, srv, _ := cachedAPI(t, 8)
	var body map[string]any
	get(t, srv+"/v1/vehicles/veh-0000/forecast", http.StatusOK, &body)
	get(t, srv+"/v1/vehicles/veh-0000/forecast", http.StatusOK, &body)

	resp, err := http.Get(srv + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, metric := range []string{
		"forecast_cache_hits_total",
		"forecast_cache_misses_total",
		"forecast_cache_evictions_total",
		"forecast_cache_entries",
		"forecast_coalesced_waiters_total",
	} {
		if !strings.Contains(string(text), metric) {
			t.Errorf("/metrics missing %s", metric)
		}
	}
}

func TestCacheKeyComposition(t *testing.T) {
	cfgA := core.DefaultConfig()
	cfgB := core.DefaultConfig()
	cfgB.W = cfgA.W + 1
	if cacheKey("point", "v", 1, cfgA) == cacheKey("point", "v", 1, cfgB) {
		t.Error("config change did not change the key")
	}
	if cacheKey("point", "v", 1, cfgA) == cacheKey("point", "v", 2, cfgA) {
		t.Error("dataset fingerprint change did not change the key")
	}
	if cacheKey("point", "v", 1, cfgA) == cacheKey("eval", "v", 1, cfgA) {
		t.Error("artifact kind did not change the key")
	}
	if cacheKey("point", "v1", 1, cfgA) == cacheKey("point", "v2", 1, cfgA) {
		t.Error("vehicle did not change the key")
	}
}

// TestDatasetFingerprint pins the fingerprint contract the cache key
// relies on: value-sensitive, identity-sensitive, deterministic.
func TestDatasetFingerprint(t *testing.T) {
	mk := func() *etl.VehicleDataset {
		d := &etl.VehicleDataset{
			VehicleID: "v",
			Country:   "IT",
			Hours:     []float64{1, 2, 3},
			Channels:  map[string][]float64{"fuel_rate": {4, 5, 6}},
			Observed:  []bool{true, true, false},
		}
		d.Enrich()
		return d
	}
	a, b := mk(), mk()
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical datasets fingerprint differently")
	}
	b.Hours[0] = 9
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("hours change invisible to fingerprint")
	}
	c := mk()
	c.Channels["fuel_rate"][2] = 7
	if a.Fingerprint() == c.Fingerprint() {
		t.Error("channel change invisible to fingerprint")
	}
	e := mk()
	e.VehicleID = "w"
	if a.Fingerprint() == e.Fingerprint() {
		t.Error("vehicle identity invisible to fingerprint")
	}
}
