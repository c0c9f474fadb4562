package fstore

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"vup/internal/etl"
	"vup/internal/fleet"
	"vup/internal/randx"
)

// genDatasets builds n real datasets through the generator + ETL path.
func genDatasets(t testing.TB, n, days int, seed int64) []*etl.VehicleDataset {
	t.Helper()
	f, err := fleet.Generate(fleet.Config{Units: n, Days: days, Seed: seed, Start: fleet.StudyStart})
	if err != nil {
		t.Fatal(err)
	}
	usage := f.SimulateAll()
	rng := randx.New(seed + 1)
	var out []*etl.VehicleDataset
	for _, u := range f.Units {
		d, err := etl.FromUsage(u, usage[u.Vehicle.ID], rng.Split())
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, d)
	}
	return out
}

func TestDatasetEncodeDecodeRoundTrip(t *testing.T) {
	for _, d := range genDatasets(t, 3, 120, 7) {
		data, err := EncodeDataset(d)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeDataset(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", d.VehicleID, err)
		}
		if !reflect.DeepEqual(d, got) {
			t.Errorf("%s: decoded dataset not DeepEqual to original", d.VehicleID)
		}
		if d.Fingerprint() != got.Fingerprint() {
			t.Errorf("%s: fingerprint changed across round-trip: %016x vs %016x",
				d.VehicleID, d.Fingerprint(), got.Fingerprint())
		}
	}
}

func TestDatasetRoundTripExplicitDates(t *testing.T) {
	d := genDatasets(t, 1, 60, 3)[0]
	// A Subset view has explicit, non-contiguous dates — the case the
	// explicit-dates flag exists for.
	idx := make([]int, 0, d.Len()/2)
	for i := 0; i < d.Len(); i += 2 {
		idx = append(idx, i)
	}
	sub, err := d.Subset(idx)
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeDataset(sub)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeDataset(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dates == nil {
		t.Fatal("explicit dates lost in round-trip")
	}
	if !reflect.DeepEqual(sub, got) {
		t.Error("subset dataset not DeepEqual after round-trip")
	}
	if sub.Fingerprint() != got.Fingerprint() {
		t.Error("subset fingerprint changed across round-trip")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	datasets := genDatasets(t, 4, 150, 11)
	dir, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m, err := dir.Save(datasets)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Vehicles) != len(datasets) {
		t.Fatalf("manifest lists %d vehicles, want %d", len(m.Vehicles), len(datasets))
	}

	// A fresh handle, as a restarted process would hold.
	dir2, err := Open(dir.Path())
	if err != nil {
		t.Fatal(err)
	}
	loaded, m2, err := dir2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != len(datasets) {
		t.Fatalf("loaded %d datasets, want %d", len(loaded), len(datasets))
	}
	byID := map[string]*etl.VehicleDataset{}
	for _, d := range datasets {
		byID[d.VehicleID] = d
	}
	for _, got := range loaded {
		want := byID[got.VehicleID]
		if want == nil {
			t.Fatalf("loaded unknown vehicle %q", got.VehicleID)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: loaded dataset differs from saved", got.VehicleID)
		}
		// The warm-start contract: fingerprints survive the disk
		// round-trip bit-for-bit, so cache keys derived before the
		// restart still name the loaded data.
		if want.Fingerprint() != got.Fingerprint() {
			t.Errorf("%s: fingerprint drifted across save/load", got.VehicleID)
		}
		if fp, ok := m2.FingerprintOf(got.VehicleID); !ok || fp != got.Fingerprint() {
			t.Errorf("%s: manifest fingerprint %016x, dataset %016x", got.VehicleID, fp, got.Fingerprint())
		}
	}
}

func TestSaveIsDeterministic(t *testing.T) {
	datasets := genDatasets(t, 2, 90, 5)
	d1, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d1.Save(datasets); err != nil {
		t.Fatal(err)
	}
	if _, err := d2.Save(datasets); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{manifestName, snapshotFileName(datasets[0].VehicleID)} {
		a, err := os.ReadFile(filepath.Join(d1.Path(), name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(d2.Path(), name))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two saves of the same fleet differ", name)
		}
	}
}

func TestLoadEmptyDirReturnsErrNoManifest(t *testing.T) {
	dir, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := dir.Load(); !errors.Is(err, ErrNoManifest) {
		t.Fatalf("Load on empty dir: %v, want ErrNoManifest", err)
	}
}

// nextDay builds the Day record that extends d contiguously by one
// calendar day.
func nextDay(d *etl.VehicleDataset, hours float64) Day {
	ch := make(map[string]float64, len(d.Channels))
	for name := range d.Channels {
		ch[name] = hours / 2
	}
	return Day{
		Date:     d.Date(d.Len()-1).AddDate(0, 0, 1),
		Hours:    hours,
		Observed: true,
		Channels: ch,
	}
}

func TestAppendReplay(t *testing.T) {
	datasets := genDatasets(t, 2, 80, 13)
	dir, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dir.Save(datasets); err != nil {
		t.Fatal(err)
	}

	// Log three incremental days for vehicle 0 and one for vehicle 1,
	// mirroring them onto the in-memory copies.
	want0, want1 := datasets[0], datasets[1]
	for i := 0; i < 3; i++ {
		day := nextDay(want0, float64(i)+1)
		if err := dir.Append(want0.VehicleID, day); err != nil {
			t.Fatal(err)
		}
		if err := ApplyDays(want0, day); err != nil {
			t.Fatal(err)
		}
	}
	day := nextDay(want1, 4.5)
	if err := dir.Append(want1.VehicleID, day); err != nil {
		t.Fatal(err)
	}
	if err := ApplyDays(want1, day); err != nil {
		t.Fatal(err)
	}

	dir2, err := Open(dir.Path())
	if err != nil {
		t.Fatal(err)
	}
	loaded, _, err := dir2.Load()
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []*etl.VehicleDataset{want0, want1} {
		got := loaded[i]
		if got.VehicleID != want.VehicleID {
			// Load sorts by ID; map instead of assuming order.
			for _, l := range loaded {
				if l.VehicleID == want.VehicleID {
					got = l
				}
			}
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: snapshot+log replay does not reproduce the live dataset", want.VehicleID)
		}
	}
}

func TestSaveCompactsLog(t *testing.T) {
	datasets := genDatasets(t, 1, 70, 17)
	dir, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dir.Save(datasets); err != nil {
		t.Fatal(err)
	}
	day := nextDay(datasets[0], 2.5)
	if err := dir.Append(datasets[0].VehicleID, day); err != nil {
		t.Fatal(err)
	}
	if err := ApplyDays(datasets[0], day); err != nil {
		t.Fatal(err)
	}
	// Save again with the appended state: the log must be gone and the
	// reload must still see the appended day, exactly once.
	if _, err := dir.Save(datasets); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir.Path(), logName)); !os.IsNotExist(err) {
		t.Errorf("append log survived compaction: %v", err)
	}
	loaded, _, err := dir.Load()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(datasets[0], loaded[0]) {
		t.Error("compacted state differs from live dataset")
	}
}

func TestSaveVehicleMarksLogApplied(t *testing.T) {
	datasets := genDatasets(t, 2, 60, 19)
	dir, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dir.Save(datasets); err != nil {
		t.Fatal(err)
	}
	day := nextDay(datasets[0], 3.25)
	if err := dir.Append(datasets[0].VehicleID, day); err != nil {
		t.Fatal(err)
	}
	if err := ApplyDays(datasets[0], day); err != nil {
		t.Fatal(err)
	}
	// Snapshot the appended vehicle: its manifest entry now marks the
	// log record as applied, so replay must not double-append it.
	if err := dir.SaveVehicle(datasets[0]); err != nil {
		t.Fatal(err)
	}
	dir2, err := Open(dir.Path())
	if err != nil {
		t.Fatal(err)
	}
	loaded, _, err := dir2.Load()
	if err != nil {
		t.Fatal(err)
	}
	for _, got := range loaded {
		for _, want := range datasets {
			if want.VehicleID == got.VehicleID && !reflect.DeepEqual(want, got) {
				t.Errorf("%s: SaveVehicle + replay diverged from live dataset (double-applied record?)", got.VehicleID)
			}
		}
	}
}

func TestApplyDaysRejectsChannelDrift(t *testing.T) {
	d := genDatasets(t, 1, 50, 23)[0]
	day := nextDay(d, 1)
	day.Channels["bogus_channel"] = 1
	if err := ApplyDays(d, day); !errors.Is(err, ErrMismatch) {
		t.Fatalf("channel-set drift: %v, want ErrMismatch", err)
	}
}

func TestApplyDaysNonContiguousMaterializesDates(t *testing.T) {
	d := genDatasets(t, 1, 40, 29)[0]
	if d.Dates != nil {
		t.Fatal("generated dataset unexpectedly has explicit dates")
	}
	day := nextDay(d, 1)
	day.Date = day.Date.AddDate(0, 0, 5) // skip five days
	if err := ApplyDays(d, day); err != nil {
		t.Fatal(err)
	}
	if d.Dates == nil {
		t.Fatal("gap append must materialize explicit dates")
	}
	if got := d.Date(d.Len() - 1); !got.Equal(day.Date) {
		t.Errorf("last date %v, want %v", got, day.Date)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

// freshContexts re-derives every day's Context of a copy of d from
// scratch.
func freshContexts(d *etl.VehicleDataset) []etl.Context {
	c := d.Clone()
	c.Enrich()
	return c.Context
}

// TestIncrementalContextsMatchFullEnrich: ApplyDays and the replay of
// pending log records derive only the appended days' contexts; the
// result must equal a full Enrich, across a year boundary and after an
// out-of-step day has turned the series' dates explicit.
func TestIncrementalContextsMatchFullEnrich(t *testing.T) {
	d := genDatasets(t, 1, 360, 37)[0] // 2015-01-01 … 2015-12-26
	dir, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dir.Save([]*etl.VehicleDataset{d}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		day := nextDay(d, float64(i%5))
		if i == 10 {
			day.Date = day.Date.AddDate(0, 0, 40) // out of step
		}
		if err := dir.Append(d.VehicleID, day); err != nil {
			t.Fatal(err)
		}
		if err := ApplyDays(d, day); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(d.Context, freshContexts(d)) {
			t.Fatalf("append %d (%s): incremental contexts differ from a full Enrich", i, day.Date.Format("2006-01-02"))
		}
	}
	if d.Dates == nil {
		t.Fatal("out-of-step append did not materialize explicit dates")
	}
	cold, err := Open(dir.Path())
	if err != nil {
		t.Fatal(err)
	}
	got, err := cold.LoadVehicle(d.VehicleID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Context, freshContexts(got)) {
		t.Error("replayed contexts differ from a full Enrich")
	}
	if !reflect.DeepEqual(got, d) {
		t.Error("snapshot + replay does not reproduce the live dataset")
	}
}

func TestSnapshotFileNameSafety(t *testing.T) {
	cases := map[string]string{
		"veh-0001":   "veh-0001.vds",
		"a/b":        "a%2Fb.vds",
		"..":         "...vds", // dots are safe: the name never becomes a path traversal on its own
		"x y%":       "x%20y%25.vds",
		"veh_1.2-3Z": "veh_1.2-3Z.vds",
	}
	for id, want := range cases {
		if got := snapshotFileName(id); got != want {
			t.Errorf("snapshotFileName(%q) = %q, want %q", id, got, want)
		}
	}
}

func TestManifestFingerprintParse(t *testing.T) {
	m := &Manifest{Vehicles: []ManifestEntry{{ID: "v", Fingerprint: "00000000deadbeef"}}}
	fp, ok := m.FingerprintOf("v")
	if !ok || fp != 0xdeadbeef {
		t.Fatalf("FingerprintOf = %x, %v", fp, ok)
	}
	if _, ok := m.FingerprintOf("missing"); ok {
		t.Fatal("FingerprintOf on missing vehicle returned ok")
	}
}
