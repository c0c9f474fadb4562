package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"vup/internal/canbus"
	"vup/internal/core"
	"vup/internal/etl"
	"vup/internal/fleet"
	"vup/internal/fstore"
	"vup/internal/randx"
	"vup/internal/regress"
)

// benchDatasets generates a small default-shaped fleet without a
// testing.T.
func benchDatasets(b *testing.B) []*etl.VehicleDataset {
	b.Helper()
	f, err := fleet.Generate(fleet.Config{Units: 3, Days: 400, Seed: 1, Start: fleet.StudyStart})
	if err != nil {
		b.Fatal(err)
	}
	usage := f.SimulateAll()
	rng := randx.New(2)
	var datasets []*etl.VehicleDataset
	for _, u := range f.Units {
		d, err := etl.FromUsage(u, usage[u.Vehicle.ID], rng.Split())
		if err != nil {
			b.Fatal(err)
		}
		datasets = append(datasets, d)
	}
	return datasets
}

// benchAPI builds an API over benchDatasets (bench variant of
// testAPI).
func benchAPI(b *testing.B) *API {
	b.Helper()
	base := core.DefaultConfig()
	base.Algorithm = regress.AlgLasso
	base.W = 120
	base.K = 12
	base.MaxLag = 28
	base.Stride = 5
	base.Channels = []string{canbus.ChanFuelRate, canbus.ChanEngineSpeed}
	store, err := NewStore(benchDatasets(b))
	if err != nil {
		b.Fatal(err)
	}
	return New(store, base)
}

// BenchmarkAcquire measures the store's per-request hot path, Acquire
// plus release of a resident vehicle, from parallel goroutines: on an
// eager store, on a lazy store with no budget whose vehicles have all
// been faulted in (both take the same pinning path), and beside a
// concurrent stream of faults (hit-beside-fault).
func BenchmarkAcquire(b *testing.B) {
	datasets := benchDatasets(b)
	eager, err := NewStore(datasets)
	if err != nil {
		b.Fatal(err)
	}
	dir, err := fstore.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := dir.Save(datasets); err != nil {
		b.Fatal(err)
	}
	lazy, err := NewLazyStore(dir.VehicleIDs(), dir.LoadVehicle, 0)
	if err != nil {
		b.Fatal(err)
	}
	for _, d := range datasets {
		if _, ok := lazy.Get(d.VehicleID); !ok {
			b.Fatalf("warming %s failed", d.VehicleID)
		}
	}
	for _, tc := range []struct {
		name  string
		store *Store
	}{{"eager", eager}, {"lazy-warm", lazy}} {
		b.Run(tc.name, func(b *testing.B) {
			ids := tc.store.IDs()
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				ctx := context.Background()
				for i := 0; pb.Next(); i++ {
					_, _, _, release, err := tc.store.Acquire(ctx, ids[i%len(ids)])
					if err != nil {
						b.Error(err)
						return
					}
					release()
				}
			})
		})
	}
	b.Run("hit-beside-fault", benchHitBesideFault)
}

// benchHitBesideFault is BenchmarkAcquire/hit-beside-fault: parallel
// hits on two pinned resident vehicles while one goroutine faults
// study-length (1 369-day) vehicles in and out under a budget too
// small to keep them. Every fault's insert takes the store-wide lock
// the hits also take, so a fault that does O(dataset) work under that
// lock stalls every hit that arrives meanwhile, which shows in ns/op,
// the hits' throughput. The faulter's loads per hit are reported as
// faults/op: a cheaper fault also means more of them beside the hits.
func benchHitBesideFault(b *testing.B) {
	f, err := fleet.Generate(fleet.Config{Units: 6, Days: 1369, Seed: 1, Start: fleet.StudyStart})
	if err != nil {
		b.Fatal(err)
	}
	usage := f.SimulateAll()
	rng := randx.New(2)
	var datasets []*etl.VehicleDataset
	for _, u := range f.Units {
		d, err := etl.FromUsage(u, usage[u.Vehicle.ID], rng.Split())
		if err != nil {
			b.Fatal(err)
		}
		datasets = append(datasets, d)
	}
	dir, err := fstore.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := dir.Save(datasets); err != nil {
		b.Fatal(err)
	}
	ids := dir.VehicleIDs()
	store, err := NewLazyStore(ids, dir.LoadVehicle, 1)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	hot, cold := ids[:2], ids[2:]
	for _, id := range hot {
		// Held for the whole benchmark: pinned vehicles are never evicted.
		_, _, _, release, err := store.Acquire(ctx, id)
		if err != nil {
			b.Fatal(err)
		}
		defer release()
	}

	stop := make(chan struct{})
	done := make(chan int)
	go func() {
		faults := 0
		for {
			select {
			case <-stop:
				done <- faults
				return
			default:
			}
			_, _, _, release, err := store.Acquire(ctx, cold[faults%len(cold)])
			if err != nil {
				b.Error(err)
			} else {
				release()
			}
			faults++
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for i := 0; pb.Next(); i++ {
			_, _, _, release, err := store.Acquire(ctx, hot[i%len(hot)])
			if err != nil {
				b.Error(err)
				return
			}
			release()
		}
	})
	b.StopTimer()
	close(stop)
	b.ReportMetric(float64(<-done)/float64(b.N), "faults/op")
}

// BenchmarkForecastColdVsWarm measures the tentpole win: a cold
// forecast trains feature selection and the model per request, a warm
// one answers from the trained-artifact cache. The committed baseline
// lives in BENCH_cache.json; warm must be >= 10x faster than cold.
func BenchmarkForecastColdVsWarm(b *testing.B) {
	const path = "/v1/vehicles/veh-0000/forecast"
	run := func(b *testing.B, api *API) {
		h := api.Handler()
		req := httptest.NewRequest(http.MethodGet, path, nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
			}
		}
	}
	b.Run("cold", func(b *testing.B) {
		api := benchAPI(b)
		api.Cache = NewForecastCache(0) // bypass: every request trains
		run(b, api)
	})
	b.Run("warm", func(b *testing.B) {
		api := benchAPI(b)
		api.Cache = NewForecastCache(64)
		// Train once outside the timed loop.
		rec := httptest.NewRecorder()
		api.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			b.Fatalf("warm-up status %d", rec.Code)
		}
		run(b, api)
	})
}
