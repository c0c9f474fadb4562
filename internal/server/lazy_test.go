package server

// Lazy-store coverage: a store booted from the fleet roster alone must
// serve exactly what the eager store serves, fault vehicles in on
// demand (once per cold vehicle), hold resident bytes under the budget
// by evicting cold datasets, and keep every durability and consistency
// contract intact while eviction races live forecasts and ingests.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vup/internal/etl"
	"vup/internal/featsel"
	"vup/internal/fleet"
	"vup/internal/fstore"
	"vup/internal/randx"
)

// lazyFixture saves datasets into a fresh fstore directory and returns
// a reopened (cold) handle plus a lazy store over it with the given
// budget and a fault counter.
func lazyFixture(t *testing.T, datasets []*etl.VehicleDataset, budget int64) (*fstore.Dir, *Store, *atomic.Int64) {
	t.Helper()
	dir, err := fstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dir.Save(datasets); err != nil {
		t.Fatal(err)
	}
	cold, err := fstore.Open(dir.Path())
	if err != nil {
		t.Fatal(err)
	}
	var loads atomic.Int64
	loader := func(id string) (*etl.VehicleDataset, error) {
		loads.Add(1)
		return cold.LoadVehicle(id)
	}
	store, err := NewLazyStore(cold.VehicleIDs(), loader, budget)
	if err != nil {
		t.Fatal(err)
	}
	return cold, store, &loads
}

func TestNewLazyStoreRejectsBadInput(t *testing.T) {
	loader := func(string) (*etl.VehicleDataset, error) { return nil, nil }
	if _, err := NewLazyStore([]string{"a"}, nil, 0); err == nil {
		t.Error("nil loader accepted")
	}
	if _, err := NewLazyStore([]string{"a", ""}, loader, 0); err == nil {
		t.Error("empty roster id accepted")
	}
	if _, err := NewLazyStore([]string{"a", "a"}, loader, 0); err == nil {
		t.Error("duplicate roster id accepted")
	}
}

func TestLazyStoreLoadsOnDemand(t *testing.T) {
	datasets := persistDatasets(t)
	_, store, loads := lazyFixture(t, datasets, 0)

	// The roster is visible without a single dataset decode.
	if !store.Lazy() {
		t.Fatal("store does not report lazy mode")
	}
	if got := store.Len(); got != len(datasets) {
		t.Fatalf("Len = %d, want %d", got, len(datasets))
	}
	if got := len(store.IDs()); got != len(datasets) {
		t.Fatalf("IDs lists %d vehicles, want %d", got, len(datasets))
	}
	if n, b := store.ResidentStats(); n != 0 || b != 0 {
		t.Fatalf("fresh lazy store resident stats = (%d, %d), want (0, 0)", n, b)
	}
	if got := loads.Load(); got != 0 {
		t.Fatalf("boot cost %d loads, want 0", got)
	}

	id := datasets[0].VehicleID
	d, ok := store.Get(id)
	if !ok {
		t.Fatalf("Get(%q) missed a rostered vehicle", id)
	}
	if d.Fingerprint() != datasets[0].Fingerprint() {
		t.Errorf("lazily loaded dataset fingerprint drifted")
	}
	if got := loads.Load(); got != 1 {
		t.Fatalf("first Get cost %d loads, want 1", got)
	}
	// Hot path: no second fault.
	if _, ok := store.Get(id); !ok {
		t.Fatal("second Get missed")
	}
	if got := loads.Load(); got != 1 {
		t.Fatalf("resident Get refaulted: %d loads", got)
	}
	if n, b := store.ResidentStats(); n != 1 || b != datasets[0].SizeBytes() {
		t.Fatalf("resident stats = (%d, %d), want (1, %d)", n, b, datasets[0].SizeBytes())
	}

	if _, ok := store.Get("veh-nope"); ok {
		t.Error("Get of unrostered vehicle succeeded")
	}
}

// TestLazyStoreSingleFlight: concurrent acquisitions of the same cold
// vehicle trigger exactly one load.
func TestLazyStoreSingleFlight(t *testing.T) {
	datasets := persistDatasets(t)
	_, store, loads := lazyFixture(t, datasets, 0)

	id := datasets[0].VehicleID
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d, _, _, release, err := store.Acquire(t.Context(), id)
			if err != nil {
				t.Errorf("Acquire: %v", err)
				return
			}
			defer release()
			if d.VehicleID != id {
				t.Errorf("Acquire returned %q", d.VehicleID)
			}
		}()
	}
	wg.Wait()
	if got := loads.Load(); got != 1 {
		t.Fatalf("16 concurrent acquisitions cost %d loads, want 1", got)
	}
}

// TestLazyStoreEvictsUnderBudget is the acceptance criterion's memory
// bound: sweeping the whole fleet through a store whose budget holds
// only part of it must stay at or under budget after every fault, and
// must still serve every vehicle correctly.
func TestLazyStoreEvictsUnderBudget(t *testing.T) {
	datasets := persistDatasets(t)
	// Room for one dataset plus change — never the whole fleet.
	budget := datasets[0].SizeBytes() + datasets[1].SizeBytes()/2
	_, store, loads := lazyFixture(t, datasets, budget)

	for sweep := 0; sweep < 2; sweep++ {
		for _, want := range datasets {
			d, ok := store.Get(want.VehicleID)
			if !ok {
				t.Fatalf("sweep %d: Get(%q) missed", sweep, want.VehicleID)
			}
			if d.Fingerprint() != want.Fingerprint() {
				t.Errorf("sweep %d: %q fingerprint drifted after evict/reload", sweep, want.VehicleID)
			}
			if n, b := store.ResidentStats(); b > budget {
				t.Fatalf("sweep %d: resident bytes %d over budget %d (%d resident)", sweep, b, budget, n)
			}
		}
	}
	// The budget fits one dataset, so the second sweep must refault —
	// eviction really happened.
	if got := loads.Load(); got <= int64(len(datasets)) {
		t.Fatalf("%d loads across two sweeps: nothing was evicted", got)
	}
}

// TestLazyStorePinBlocksEviction: a dataset held by an in-flight
// request survives budget pressure; the store runs over budget rather
// than yanking it.
func TestLazyStorePinBlocksEviction(t *testing.T) {
	datasets := persistDatasets(t)
	budget := datasets[0].SizeBytes() // one vehicle's worth
	_, store, _ := lazyFixture(t, datasets, budget)

	id0 := datasets[0].VehicleID
	d, _, _, release, err := store.Acquire(t.Context(), id0)
	if err != nil {
		t.Fatal(err)
	}
	// Fault the other vehicle in while the first is pinned: both must
	// stay resident even though that busts the budget.
	if _, ok := store.Get(datasets[1].VehicleID); !ok {
		t.Fatal("Get of second vehicle failed")
	}
	if got, ok := store.Get(id0); !ok || got.Fingerprint() != d.Fingerprint() {
		t.Fatal("pinned vehicle was evicted under budget pressure")
	}
	release()

	// With the pin gone, the next fault can shed the cold entries.
	if _, ok := store.Get(datasets[1].VehicleID); !ok {
		t.Fatal("Get after release failed")
	}
	if _, b := store.ResidentStats(); b > budget {
		t.Fatalf("resident bytes %d still over budget %d after release", b, budget)
	}
	release() // idempotent: must not double-unpin
}

// TestLazyEagerByteIdentical is the serving-equivalence acceptance
// criterion: the lazy store under a tight budget answers every
// endpoint byte-identically (timing aside) to the eager store, and
// the same ingest batch, each side logging to its own append log,
// leaves both serving the same forecast.
func TestLazyEagerByteIdentical(t *testing.T) {
	datasets := persistDatasets(t)
	base := persistConfig()

	eagerDir, err := fstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eagerDir.Save(datasets); err != nil {
		t.Fatal(err)
	}
	eagerStore, err := NewStore(datasets)
	if err != nil {
		t.Fatal(err)
	}
	eagerStore.SetAppender(eagerDir.Append)
	eagerSrv := httptest.NewServer(New(eagerStore, base).Handler())
	defer eagerSrv.Close()

	budget := datasets[0].SizeBytes() + 1 // evicts on every vehicle switch
	lazyDir, lazyStore, _ := lazyFixture(t, datasets, budget)
	lazyStore.SetAppender(lazyDir.Append)
	lazySrv := httptest.NewServer(New(lazyStore, base).Handler())
	defer lazySrv.Close()

	// compare GETs path from both servers and requires equal bodies,
	// minus timing and cache state, which are serving state, not data.
	compare := func(label, path string) {
		t.Helper()
		var eager, lazy any
		get(t, eagerSrv.URL+path, 200, &eager)
		get(t, lazySrv.URL+path, 200, &lazy)
		for _, body := range []any{eager, lazy} {
			if m, ok := body.(map[string]any); ok {
				delete(m, "took_ms")
				delete(m, "cached")
			}
		}
		if !reflect.DeepEqual(eager, lazy) {
			t.Errorf("%s: GET %s differs between eager and lazy stores:\n  eager: %v\n  lazy:  %v",
				label, path, eager, lazy)
		}
	}

	var paths []string
	for _, d := range datasets {
		paths = append(paths,
			"/v1/vehicles/"+d.VehicleID,
			"/v1/vehicles/"+d.VehicleID+"/forecast",
			"/v1/vehicles/"+d.VehicleID+"/forecast?alg=SVR&scenario=next-working-day",
			"/v1/vehicles/"+d.VehicleID+"/evaluation",
			"/v1/vehicles/"+d.VehicleID+"/levels",
		)
	}
	paths = append(paths, "/v1/vehicles")
	// Two passes so the lazy side serves both cold (fault) and evicted
	// (refault) states for every path.
	for pass := 0; pass < 2; pass++ {
		for _, path := range paths {
			compare(fmt.Sprintf("pass %d", pass), path)
		}
	}

	// Ingest into the vehicle the lazy side has just evicted, so its
	// append faults it back in first.
	d := datasets[0]
	last := d.Date(d.Len() - 1)
	req := ingestRequest{Reports: append(
		dayReports(d, last.AddDate(0, 0, 1), 12.5),
		dayReports(d, last.AddDate(0, 0, 3), 14.0)...)}
	var eagerIng, lazyIng map[string]any
	postJSON(t, eagerSrv.URL+"/v1/vehicles/"+d.VehicleID+"/ingest", req, 200, &eagerIng)
	postJSON(t, lazySrv.URL+"/v1/vehicles/"+d.VehicleID+"/ingest", req, 200, &lazyIng)
	if got := eagerIng["days_appended"]; got != 3.0 {
		t.Fatalf("eager ingest appended %v days, want 3", got)
	}
	delete(eagerIng, "took_ms")
	delete(lazyIng, "took_ms")
	if !reflect.DeepEqual(eagerIng, lazyIng) {
		t.Errorf("ingest responses differ between eager and lazy stores:\n  eager: %v\n  lazy:  %v", eagerIng, lazyIng)
	}
	// Switch vehicles so the grown one is evicted and must reload
	// through its append log before the forecast.
	compare("after ingest", "/v1/vehicles/"+datasets[1].VehicleID)
	compare("after ingest", "/v1/vehicles/"+d.VehicleID+"/forecast")
}

// TestEvictionRacingForecastAndAppend churns a tiny-budget lazy store
// with concurrent readers (forecast-shaped Acquire/release) and
// writers (Append through the real append log) — under -race this is
// the eviction/pin/single-flight torture test. Afterwards a cold
// restart must reproduce the exact fingerprints the live store ended
// on, including for vehicles that were evicted mid-run.
func TestEvictionRacingForecastAndAppend(t *testing.T) {
	datasets := persistDatasets(t)
	dir, store, _ := lazyFixture(t, datasets, datasets[0].SizeBytes()+1)
	store.SetAppender(dir.Append)
	store.SetCompactor(func(d *etl.VehicleDataset) (bool, error) {
		return dir.MaybeCompact(d, 8)
	})

	const appendsPerVehicle = 24
	var wg sync.WaitGroup
	// One writer per vehicle: contiguous days only work appended in
	// order, and per-vehicle ordering is the store's own contract too.
	for vi := range datasets {
		wg.Add(1)
		go func(vi int) {
			defer wg.Done()
			id := datasets[vi].VehicleID
			cur, ok := store.Get(id)
			if !ok {
				t.Errorf("writer %d: initial Get missed", vi)
				return
			}
			for i := 0; i < appendsPerVehicle; i++ {
				day := fstore.Day{
					Date:     cur.Date(cur.Len()-1).AddDate(0, 0, 1),
					Hours:    float64(i%7) + 0.5,
					Observed: true,
					Channels: singleDayChannels(cur),
				}
				grown, _, err := store.AppendContext(context.Background(), id, []fstore.Day{day}, etl.MissingForwardFill)
				if err != nil {
					t.Errorf("writer %d append %d: %v", vi, i, err)
					return
				}
				cur = grown
			}
		}(vi)
	}
	// Readers sweep vehicles in a scrambled order, pinning each long
	// enough to race the writers and the eviction pass.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for i := 0; i < 40; i++ {
				id := datasets[rng.Intn(len(datasets))].VehicleID
				d, fp, _, release, err := store.Acquire(t.Context(), id)
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				if d.Fingerprint() != fp {
					t.Errorf("reader %d: Acquire fingerprint inconsistent with dataset", r)
				}
				time.Sleep(time.Duration(rng.Intn(100)) * time.Microsecond)
				release()
			}
		}(r)
	}
	wg.Wait()

	// Snapshot the dirty residents the way a lazy shutdown does, then
	// restart cold: every vehicle — evicted or resident, compacted or
	// log-backed — must reload fingerprint-identically.
	for _, d := range store.DirtyResidents() {
		if err := dir.SaveVehicle(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := dir.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := fstore.Open(dir.Path())
	if err != nil {
		t.Fatal(err)
	}
	for _, orig := range datasets {
		id := orig.VehicleID
		live, ok := store.Get(id)
		if !ok {
			t.Fatalf("Get(%q) after churn missed", id)
		}
		if live.Len() != orig.Len()+appendsPerVehicle {
			t.Errorf("%s: %d days after churn, want %d", id, live.Len(), orig.Len()+appendsPerVehicle)
		}
		reloaded, err := reopened.LoadVehicle(id)
		if err != nil {
			t.Fatalf("LoadVehicle(%q) after restart: %v", id, err)
		}
		if reloaded.Fingerprint() != live.Fingerprint() {
			t.Errorf("%s: restart fingerprint %016x differs from live %016x",
				id, reloaded.Fingerprint(), live.Fingerprint())
		}
	}
}

// TestVlocksBounded is the regression test for the unbounded vlocks
// map: per-vehicle lock entries must be refcounted away once idle, so
// sweeping a large fleet leaves no per-vehicle residue in the lock
// table.
func TestVlocksBounded(t *testing.T) {
	datasets := persistDatasets(t)
	dir, store, _ := lazyFixture(t, datasets, datasets[0].SizeBytes()+1)
	store.SetAppender(dir.Append)

	var wg sync.WaitGroup
	for vi := range datasets {
		wg.Add(1)
		go func(vi int) {
			defer wg.Done()
			id := datasets[vi].VehicleID
			cur, _ := store.Get(id)
			for i := 0; i < 10; i++ {
				day := fstore.Day{
					Date:     cur.Date(cur.Len()-1).AddDate(0, 0, 1),
					Hours:    1,
					Observed: true,
					Channels: singleDayChannels(cur),
				}
				grown, _, err := store.AppendContext(context.Background(), id, []fstore.Day{day}, etl.MissingForwardFill)
				if err != nil {
					t.Errorf("append: %v", err)
					return
				}
				cur = grown
				if _, _, _, release, err := store.Acquire(t.Context(), id); err == nil {
					release()
				}
			}
		}(vi)
	}
	wg.Wait()

	store.vmu.Lock()
	left := len(store.vlocks)
	store.vmu.Unlock()
	if left != 0 {
		t.Fatalf("%d vlock entries left after all work drained, want 0 (map leaks one entry per vehicle ever touched)", left)
	}
}

// TestLazyCorruptVehicle: one rotten snapshot must fail only that
// vehicle's requests — boot, the roster, and every other vehicle keep
// working. (An eager boot refuses the whole directory instead.)
func TestLazyCorruptVehicle(t *testing.T) {
	datasets := persistDatasets(t)
	dir, err := fstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dir.Save(datasets); err != nil {
		t.Fatal(err)
	}
	bad := datasets[0].VehicleID
	corruptSnapshot(t, dir.Path(), bad)

	cold, err := fstore.Open(dir.Path())
	if err != nil {
		t.Fatalf("manifest-only boot failed on one corrupt snapshot: %v", err)
	}
	store, err := NewLazyStore(cold.VehicleIDs(), cold.LoadVehicle, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(store, persistConfig()).Handler())
	defer srv.Close()

	// The healthy vehicle serves; the corrupt one 500s; the roster
	// still lists both.
	good := datasets[1].VehicleID
	var ok map[string]any
	get(t, srv.URL+"/v1/vehicles/"+good+"/forecast", 200, &ok)
	var fail map[string]any
	get(t, srv.URL+"/v1/vehicles/"+bad+"/forecast", 500, &fail)
	if msg, _ := fail["error"].(string); msg == "" {
		t.Error("corrupt-vehicle failure carries no error message")
	}
	var health map[string]any
	get(t, srv.URL+"/healthz", 200, &health)
	if got := health["total_vehicles"].(float64); int(got) != len(datasets) {
		t.Errorf("healthz total_vehicles = %v, want %d", got, len(datasets))
	}

	// And the store-level error is typed, not ErrUnknownVehicle.
	if _, _, _, _, err := store.Acquire(t.Context(), bad); err == nil || errors.Is(err, ErrUnknownVehicle) {
		t.Errorf("Acquire of corrupt vehicle = %v, want a load error", err)
	}
}

// TestHealthzResident: /healthz reports the working set and guards its
// ratios when nothing is resident yet.
func TestHealthzResident(t *testing.T) {
	datasets := persistDatasets(t)
	_, store, _ := lazyFixture(t, datasets, 0)
	srv := httptest.NewServer(New(store, persistConfig()).Handler())
	defer srv.Close()

	var health map[string]any
	get(t, srv.URL+"/healthz", 200, &health)
	if got := health["lazy_load"]; got != true {
		t.Errorf("lazy_load = %v, want true", got)
	}
	if got := health["total_vehicles"].(float64); int(got) != len(datasets) {
		t.Errorf("total_vehicles = %v, want %d", got, len(datasets))
	}
	// Zero-resident store: counts are zero and the JSON still encodes
	// (a naive resident/total or observed/total ratio would be fine
	// here, but 0/0 must not reach the encoder as NaN).
	if got := health["resident_vehicles"].(float64); got != 0 {
		t.Errorf("resident_vehicles = %v before any request, want 0", got)
	}

	var resp map[string]any
	get(t, srv.URL+"/v1/vehicles/"+datasets[0].VehicleID+"/forecast", 200, &resp)
	get(t, srv.URL+"/healthz", 200, &health)
	if got := health["resident_vehicles"].(float64); got != 1 {
		t.Errorf("resident_vehicles = %v after one forecast, want 1", got)
	}
	if got := health["resident_bytes"].(float64); got <= 0 {
		t.Errorf("resident_bytes = %v after one forecast, want > 0", got)
	}
}

// TestDirtyResidents: only vehicles with un-snapshotted appended days
// count as dirty, eviction drops the mark (the log already holds the
// days), and re-snapshotting clears it.
func TestDirtyResidents(t *testing.T) {
	datasets := persistDatasets(t)
	for _, tc := range contractStores(t, datasets) {
		t.Run(tc.name, func(t *testing.T) {
			store, dir := tc.store, tc.dir
			store.SetAppender(dir.Append)

			if got := len(store.DirtyResidents()); got != 0 {
				t.Fatalf("fresh store has %d dirty residents", got)
			}
			id := datasets[0].VehicleID
			appendDay := func() *etl.VehicleDataset {
				t.Helper()
				cur, _ := store.Get(id)
				day := fstore.Day{
					Date:     cur.Date(cur.Len()-1).AddDate(0, 0, 1),
					Hours:    2,
					Observed: true,
					Channels: singleDayChannels(cur),
				}
				grown, _, err := store.AppendContext(context.Background(), id, []fstore.Day{day}, etl.MissingForwardFill)
				if err != nil {
					t.Fatal(err)
				}
				if dirty := store.DirtyResidents(); len(dirty) != 1 || dirty[0].VehicleID != id {
					t.Fatalf("dirty residents = %v, want exactly %q", dirtyIDs(dirty), id)
				}
				return grown
			}
			grown := appendDay()
			// Put re-snapshots through the persister, which makes the
			// vehicle clean again.
			store.SetPersister(dir.SaveVehicle)
			if err := store.Put(grown.Clone()); err != nil {
				t.Fatal(err)
			}
			if got := len(store.DirtyResidents()); got != 0 {
				t.Fatalf("%d dirty residents after Put re-snapshotted, want 0", got)
			}
			if tc.budget <= 0 {
				return
			}
			// Under a one-vehicle budget, faulting another vehicle in
			// evicts the dirty one and drops its mark.
			appendDay()
			if _, ok := store.Get(datasets[1].VehicleID); !ok {
				t.Fatal("Get of the second vehicle failed")
			}
			if dirty := store.DirtyResidents(); len(dirty) != 0 {
				t.Fatalf("dirty residents after eviction = %v, want none", dirtyIDs(dirty))
			}
		})
	}
}

func dirtyIDs(ds []*etl.VehicleDataset) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.VehicleID
	}
	return out
}

// corruptSnapshot truncates one vehicle's snapshot file in place.
// Test vehicle IDs are filename-safe, so the snapshot is id + ".vds".
func corruptSnapshot(t *testing.T, dirPath, vehicleID string) {
	t.Helper()
	path := filepath.Join(dirPath, vehicleID+".vds")
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, full[:len(full)/2], 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestForecastSeedsStayBounded: forecasting every vehicle of a lazy
// study-length fleet once, under a two-vehicle budget and with no
// forecast cache, must not leave a full-length plan per vehicle alive.
// The plan seed a point forecast leaves is a forecast plan over the
// last W+MaxLag days holding their columns (hours, observed, the 2-byte
// context and the configured channels), so the live heap grows by
// under a quarter of a per-day lag copy of that window per vehicle. A
// seed that copied the window's lag rows, or kept 56-byte contexts,
// would fail.
func TestForecastSeedsStayBounded(t *testing.T) {
	const vehicles, days = 24, 1369
	f, err := fleet.Generate(fleet.Config{Units: 1, Days: days, Seed: 7, Start: fleet.StudyStart})
	if err != nil {
		t.Fatal(err)
	}
	u := f.Units[0]
	src, err := etl.FromUsage(u, f.SimulateAll()[u.Vehicle.ID], randx.New(8))
	if err != nil {
		t.Fatal(err)
	}
	byID := make(map[string]*etl.VehicleDataset, vehicles)
	ids := make([]string, 0, vehicles)
	for i := range vehicles {
		d := src.Clone()
		d.VehicleID = fmt.Sprintf("veh-%04d", i)
		byID[d.VehicleID] = d
		ids = append(ids, d.VehicleID)
	}
	loader := func(id string) (*etl.VehicleDataset, error) { return byID[id].Clone(), nil }
	store, err := NewLazyStore(ids, loader, 2*src.SizeBytes())
	if err != nil {
		t.Fatal(err)
	}
	cfg := persistConfig()
	api := New(store, cfg)
	api.Cache = NewForecastCache(0)
	h := api.Handler()

	mat, err := featsel.MaterializeContext(context.Background(), src, cfg.MaxLag, cfg.Channels, cfg.IncludeContext, cfg.TargetChannels)
	if err != nil {
		t.Fatal(err)
	}
	allLags := make([]int, cfg.MaxLag)
	for i := range allLags {
		allLags[i] = i + 1
	}
	window := cfg.W + cfg.MaxLag
	windowBytes := int64(window * mat.RowWidth(allLags) * 8)

	forecast := func(id string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/vehicles/"+id+"/forecast", nil))
		if rec.Code != 200 {
			t.Fatalf("forecast %s: status %d: %s", id, rec.Code, rec.Body)
		}
	}
	heap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	// The first forecast pays the one-time allocations (metrics,
	// pools); measure the rest.
	forecast(ids[0])
	before := heap()
	for _, id := range ids[1:] {
		forecast(id)
	}
	grew := (heap() - before) / int64(len(ids)-1)
	runtime.KeepAlive(api)
	if grew >= windowBytes/4 {
		t.Fatalf("live heap grew %d B per forecast vehicle, want < %d B (a quarter of a per-day lag copy of the %d-day window)", grew, windowBytes/4, window)
	}
	t.Logf("live heap grew %d B per vehicle; a per-day lag copy of the %d-day window is %d B", grew, window, windowBytes)
}
