package server

// Acceptance tests for the on-disk fleet store wiring: a server booted
// from a saved fleet must be indistinguishable from one holding the
// generated fleet — same forecasts, same fingerprints, and therefore a
// warm forecast cache across the restart.

import (
	"context"
	"errors"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"vup/internal/canbus"
	"vup/internal/core"
	"vup/internal/etl"
	"vup/internal/fleet"
	"vup/internal/fstore"
	"vup/internal/randx"
	"vup/internal/regress"
)

func persistDatasets(t testing.TB) []*etl.VehicleDataset {
	t.Helper()
	f, err := fleet.Generate(fleet.Config{Units: 2, Days: 400, Seed: 5, Start: fleet.StudyStart})
	if err != nil {
		t.Fatal(err)
	}
	usage := f.SimulateAll()
	rng := randx.New(6)
	var datasets []*etl.VehicleDataset
	for _, u := range f.Units {
		d, err := etl.FromUsage(u, usage[u.Vehicle.ID], rng.Split())
		if err != nil {
			t.Fatal(err)
		}
		datasets = append(datasets, d)
	}
	return datasets
}

func persistConfig() core.Config {
	base := core.DefaultConfig()
	base.Algorithm = regress.AlgLasso
	base.W = 90
	base.K = 8
	base.MaxLag = 21
	base.Stride = 10
	base.Channels = []string{canbus.ChanFuelRate}
	return base
}

// contractStore is one construction of the Store, each backed by its
// own directory holding the saved fleet.
type contractStore struct {
	name   string
	dir    *fstore.Dir
	store  *Store
	budget int64
}

// contractStores builds every construction the Store contract must
// hold for: the eager store, a lazy store with no budget, and a lazy
// store whose budget holds one vehicle (plus a few appended days) but
// never two, so it evicts on every vehicle switch.
func contractStores(t *testing.T, datasets []*etl.VehicleDataset) []contractStore {
	t.Helper()
	dir, err := fstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dir.Save(datasets); err != nil {
		t.Fatal(err)
	}
	eager, err := NewStore(datasets)
	if err != nil {
		t.Fatal(err)
	}
	largest, smallest := datasets[0].SizeBytes(), datasets[0].SizeBytes()
	for _, d := range datasets {
		largest, smallest = max(largest, d.SizeBytes()), min(smallest, d.SizeBytes())
	}
	budget := largest + smallest/2
	lazyDir, lazy, _ := lazyFixture(t, datasets, 0)
	budgetDir, budgeted, _ := lazyFixture(t, datasets, budget)
	return []contractStore{
		{"eager", dir, eager, 0},
		{"lazy", lazyDir, lazy, 0},
		{"lazy one-vehicle budget", budgetDir, budgeted, budget},
	}
}

// TestForecastIdenticalAfterDiskRoundTrip is the issue's acceptance
// criterion: a server booted from -data-dir serves /forecast responses
// identical to the in-memory path (timing field aside).
func TestForecastIdenticalAfterDiskRoundTrip(t *testing.T) {
	datasets := persistDatasets(t)
	base := persistConfig()

	memStore, err := NewStore(datasets)
	if err != nil {
		t.Fatal(err)
	}
	memSrv := httptest.NewServer(New(memStore, base).Handler())
	defer memSrv.Close()

	dir, err := fstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dir.Save(datasets); err != nil {
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
	diskStore, err := NewStore(loaded)
	if err != nil {
		t.Fatal(err)
	}
	diskSrv := httptest.NewServer(New(diskStore, base).Handler())
	defer diskSrv.Close()

	id := datasets[0].VehicleID
	for _, path := range []string{
		"/v1/vehicles/" + id + "/forecast",
		"/v1/vehicles/" + id + "/forecast?alg=SVR&scenario=next-working-day",
		"/v1/vehicles/" + id + "/forecast?horizon=5",
		"/v1/vehicles/" + id + "/forecast?interval=0.8",
		"/v1/vehicles/" + id,
	} {
		var mem, disk map[string]any
		get(t, memSrv.URL+path, 200, &mem)
		get(t, diskSrv.URL+path, 200, &disk)
		// took_ms is wall-clock; everything else must match exactly.
		delete(mem, "took_ms")
		delete(disk, "took_ms")
		if !reflect.DeepEqual(mem, disk) {
			t.Errorf("GET %s differs across the disk round-trip:\n  mem:  %v\n  disk: %v", path, mem, disk)
		}
	}
}

// TestWarmStartCacheAcrossRestart verifies the warm-start contract:
// cache keys derive from dataset fingerprints, fingerprints survive
// the disk round-trip, so artifacts trained before a restart are hits
// after it.
func TestWarmStartCacheAcrossRestart(t *testing.T) {
	datasets := persistDatasets(t)
	base := persistConfig()

	store1, err := NewStore(datasets)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewForecastCache(16)
	api1 := New(store1, base)
	api1.Cache = cache
	srv1 := httptest.NewServer(api1.Handler())

	id := datasets[0].VehicleID
	var before forecastResponse
	get(t, srv1.URL+"/v1/vehicles/"+id+"/forecast", 200, &before)
	if before.Cached {
		t.Fatal("first request must train, not hit")
	}
	srv1.Close()

	// "Restart": persist the fleet, load it back in a fresh store. The
	// cache survives (in production it is in-process state rebuilt per
	// run; the point is that its keys remain valid, which only holds if
	// fingerprints are bit-stable across the disk round-trip).
	dir, err := fstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	man, err := dir.Save(datasets)
	if err != nil {
		t.Fatal(err)
	}
	loaded, _, err := dir.Load()
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range loaded {
		want, ok := man.FingerprintOf(d.VehicleID)
		if !ok {
			t.Fatalf("vehicle %q missing from manifest", d.VehicleID)
		}
		if got := d.Fingerprint(); got != want || got != datasets[i].Fingerprint() {
			t.Fatalf("fingerprint of %q drifted across disk: %016x, manifest %016x, original %016x",
				d.VehicleID, got, want, datasets[i].Fingerprint())
		}
	}
	store2, err := NewStore(loaded)
	if err != nil {
		t.Fatal(err)
	}
	api2 := New(store2, base)
	api2.Cache = cache
	srv2 := httptest.NewServer(api2.Handler())
	defer srv2.Close()

	var after forecastResponse
	get(t, srv2.URL+"/v1/vehicles/"+id+"/forecast", 200, &after)
	if !after.Cached {
		t.Error("post-restart request missed the cache: fingerprint-keyed warm start is broken")
	}
	if after.Hours != before.Hours || !reflect.DeepEqual(after.Lags, before.Lags) {
		t.Errorf("cached forecast drifted: %v/%v before, %v/%v after", before.Hours, before.Lags, after.Hours, after.Lags)
	}
}

// TestStorePutPersists exercises the Put → SaveVehicle hook: a dataset
// replaced at run time must be on disk before Put returns.
func TestStorePutPersists(t *testing.T) {
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

	grown, err := datasets[0].Subset(fullIndex(datasets[0])) // deep copy, safe to mutate
	if err != nil {
		t.Fatal(err)
	}
	if err := fstore.ApplyDays(grown, fstore.Day{
		Date:     grown.Date(grown.Len()-1).AddDate(0, 0, 1),
		Hours:    3,
		Observed: true,
		Channels: singleDayChannels(grown),
	}); err != nil {
		t.Fatal(err)
	}
	if err := store.Put(grown); err != nil {
		t.Fatal(err)
	}

	reopened, err := fstore.Open(dir.Path())
	if err != nil {
		t.Fatal(err)
	}
	loaded, man, err := reopened.Load()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := man.FingerprintOf(grown.VehicleID)
	if want != grown.Fingerprint() {
		t.Errorf("manifest fingerprint %016x, want %016x after Put", want, grown.Fingerprint())
	}
	for _, d := range loaded {
		if d.VehicleID == grown.VehicleID && d.Len() != grown.Len() {
			t.Errorf("reloaded %q has %d days, want %d", d.VehicleID, d.Len(), grown.Len())
		}
	}
}

// TestStorePutRejectedByPersister: a failing persister must leave the
// in-memory store untouched, so memory never runs ahead of disk.
func TestStorePutRejectedByPersister(t *testing.T) {
	datasets := persistDatasets(t)
	for _, tc := range contractStores(t, datasets) {
		t.Run(tc.name, func(t *testing.T) {
			store := tc.store
			boom := errors.New("disk full")
			store.SetPersister(func(*etl.VehicleDataset) error { return boom })

			replacement, err := datasets[0].Subset(fullIndex(datasets[0])[:datasets[0].Len()-10])
			if err != nil {
				t.Fatal(err)
			}
			gen := store.Generation(replacement.VehicleID)
			if err := store.Put(replacement); !errors.Is(err, boom) {
				t.Fatalf("Put error = %v, want %v", err, boom)
			}
			d, ok := store.Get(replacement.VehicleID)
			if !ok || d.Len() != datasets[0].Len() {
				t.Error("rejected Put mutated the store")
			}
			if store.Generation(replacement.VehicleID) != gen {
				t.Error("rejected Put bumped the generation")
			}
		})
	}
}

// TestStorePutPersistDoesNotBlockReaders is the regression test for
// the fsync-under-write-lock bug: Put used to run the persist hook
// while holding the store's write lock, so one slow disk flush stalled
// every reader of every vehicle. Persistence must serialize per
// vehicle only; reads — and writes to other vehicles — proceed.
func TestStorePutPersistDoesNotBlockReaders(t *testing.T) {
	datasets := persistDatasets(t)
	store, err := NewStore(datasets)
	if err != nil {
		t.Fatal(err)
	}
	idA, idB := datasets[0].VehicleID, datasets[1].VehicleID

	inPersist := make(chan struct{})
	release := make(chan struct{})
	store.SetPersister(func(d *etl.VehicleDataset) error {
		if d.VehicleID == idA {
			close(inPersist)
			<-release
		}
		return nil
	})

	grown := datasets[0].Clone()
	if err := fstore.ApplyDays(grown, fstore.Day{
		Date:     grown.Date(grown.Len()-1).AddDate(0, 0, 1),
		Hours:    3,
		Observed: true,
		Channels: singleDayChannels(grown),
	}); err != nil {
		t.Fatal(err)
	}
	putDone := make(chan error, 1)
	go func() { putDone <- store.Put(grown) }()
	<-inPersist // A's persist is parked on the "disk"

	othersDone := make(chan struct{})
	go func() {
		defer close(othersDone)
		if _, ok := store.Get(idB); !ok {
			t.Errorf("Get(%s) failed", idB)
		}
		if _, ok := store.Get(idA); !ok {
			t.Errorf("Get(%s) failed", idA)
		}
		store.Generation(idB)
		if err := store.Put(datasets[1].Clone()); err != nil {
			t.Errorf("Put(%s): %v", idB, err)
		}
	}()
	select {
	case <-othersDone:
	case <-time.After(5 * time.Second):
		t.Fatal("reads blocked behind a slow persist: the store held its write lock across the disk flush")
	}

	// Before the swap, readers still see the old dataset.
	if d, _ := store.Get(idA); d.Len() != datasets[0].Len() {
		t.Errorf("Put visible before persist completed: %d days", d.Len())
	}
	close(release)
	if err := <-putDone; err != nil {
		t.Fatal(err)
	}
	if d, _ := store.Get(idA); d.Len() != grown.Len() {
		t.Errorf("Put not visible after persist: %d days, want %d", d.Len(), grown.Len())
	}
}

// TestStoreAppendLogsAndReplays pins the ingest durability contract:
// Append writes the *cleaned* day to the append log before making it
// visible, so a restart that replays the log (which does not re-clean)
// reproduces the exact bytes — and therefore the exact fingerprint —
// the live store served.
func TestStoreAppendLogsAndReplays(t *testing.T) {
	datasets := persistDatasets(t)
	for _, tc := range contractStores(t, datasets) {
		t.Run(tc.name, func(t *testing.T) {
			store, dir := tc.store, tc.dir
			store.SetAppender(dir.Append)

			id := datasets[0].VehicleID
			gen0 := store.Generation(id)
			last := datasets[0].Date(datasets[0].Len() - 1)
			days := []fstore.Day{
				{Date: last.AddDate(0, 0, 1), Hours: 4.5, Observed: true, Channels: singleDayChannels(datasets[0])},
				// A missing day: Clean must repair it, and the *repaired*
				// values must be what reaches the log.
				{Date: last.AddDate(0, 0, 2), Hours: 0, Observed: false, Channels: singleDayChannels(datasets[0])},
				{Date: last.AddDate(0, 0, 3), Hours: 6.25, Observed: true, Channels: singleDayChannels(datasets[0])},
			}
			grown, gen, err := store.AppendContext(context.Background(), id, days, etl.MissingForwardFill)
			if err != nil {
				t.Fatal(err)
			}
			if gen != gen0+1 {
				t.Errorf("generation %d after append, want %d", gen, gen0+1)
			}
			if grown.Len() != datasets[0].Len()+3 {
				t.Fatalf("appended dataset has %d days, want %d", grown.Len(), datasets[0].Len()+3)
			}
			if got, _ := store.Get(id); got.Fingerprint() != grown.Fingerprint() {
				t.Error("store serves a different dataset than Append returned")
			}

			// "Restart": replay snapshot + log and compare fingerprints.
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
			for _, d := range loaded {
				if d.VehicleID != id {
					continue
				}
				found = true
				if d.Len() != grown.Len() {
					t.Errorf("replayed %d days, want %d", d.Len(), grown.Len())
				}
				if d.Fingerprint() != grown.Fingerprint() {
					t.Errorf("fingerprint drifted across the log replay: %016x vs %016x",
						d.Fingerprint(), grown.Fingerprint())
				}
			}
			if !found {
				t.Fatalf("vehicle %q missing after reload", id)
			}
		})
	}
}

// TestStoreAppendErrors: unknown vehicles and empty batches are
// rejected without touching the store.
func TestStoreAppendErrors(t *testing.T) {
	datasets := persistDatasets(t)
	for _, tc := range contractStores(t, datasets) {
		t.Run(tc.name, func(t *testing.T) {
			store := tc.store
			if _, _, err := store.AppendContext(context.Background(), "veh-nope", []fstore.Day{{}}, etl.MissingForwardFill); !errors.Is(err, ErrUnknownVehicle) {
				t.Errorf("unknown vehicle error = %v, want ErrUnknownVehicle", err)
			}
			if _, _, err := store.AppendContext(context.Background(), datasets[0].VehicleID, nil, etl.MissingForwardFill); err == nil {
				t.Error("empty batch accepted")
			}
			// A failing appender must leave memory untouched.
			boom := errors.New("log write failed")
			store.SetAppender(func(string, ...fstore.Day) error { return boom })
			id := datasets[0].VehicleID
			gen := store.Generation(id)
			day := fstore.Day{
				Date:     datasets[0].Date(datasets[0].Len()-1).AddDate(0, 0, 1),
				Hours:    2,
				Observed: true,
				Channels: singleDayChannels(datasets[0]),
			}
			if _, _, err := store.AppendContext(context.Background(), id, []fstore.Day{day}, etl.MissingForwardFill); !errors.Is(err, boom) {
				t.Fatalf("Append error = %v, want %v", err, boom)
			}
			if d, _ := store.Get(id); d.Len() != datasets[0].Len() {
				t.Error("rejected Append mutated the store")
			}
			if store.Generation(id) != gen {
				t.Error("rejected Append bumped the generation")
			}
		})
	}
}

// singleDayChannels builds a one-day channel map matching the
// dataset's channel set.
func singleDayChannels(d *etl.VehicleDataset) map[string]float64 {
	out := make(map[string]float64, len(d.Channels))
	for name := range d.Channels {
		out[name] = 1
	}
	return out
}

// fullIndex returns [0, 1, …, Len-1], the identity Subset index.
func fullIndex(d *etl.VehicleDataset) []int {
	idx := make([]int, d.Len())
	for i := range idx {
		idx[i] = i
	}
	return idx
}
