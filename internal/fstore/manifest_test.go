package fstore

import "testing"

// checkManifestIndex holds every lookup of m to a scan of its entries:
// each listed ID finds its entry, and an unlisted one finds nothing.
func checkManifestIndex(t *testing.T, m *Manifest, wantLen int) {
	t.Helper()
	if m.byID == nil {
		t.Fatal("manifest is not indexed")
	}
	if len(m.Vehicles) != wantLen {
		t.Fatalf("manifest lists %d vehicles, want %d", len(m.Vehicles), wantLen)
	}
	for _, want := range m.Vehicles {
		got, ok := m.Entry(want.ID)
		if !ok || got != want {
			t.Errorf("Entry(%q) = %+v, %v; manifest lists %+v", want.ID, got, ok, want)
		}
	}
	if e, ok := m.Entry("no-such-vehicle"); ok {
		t.Errorf("Entry of an unlisted ID = %+v", e)
	}
}

// TestManifestIndexAfterRewrites checks the manifest's ID index after
// each way a manifest is written or read: Save, SaveVehicle of a
// listed and of a new vehicle, a reopen, and a version-1 migration.
func TestManifestIndexAfterRewrites(t *testing.T) {
	datasets := genDatasets(t, 3, 40, 31)
	dir, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer dir.Close()
	if _, err := dir.Save(datasets[1:]); err != nil {
		t.Fatal(err)
	}
	checkManifestIndex(t, dir.Manifest(), 2)

	day := nextDay(datasets[1], 2.5)
	if err := ApplyDays(datasets[1], day); err != nil {
		t.Fatal(err)
	}
	if err := dir.SaveVehicle(datasets[1]); err != nil {
		t.Fatal(err)
	}
	checkManifestIndex(t, dir.Manifest(), 2)
	if e, _ := dir.Manifest().Entry(datasets[1].VehicleID); e.Days != datasets[1].Len() {
		t.Errorf("re-saved vehicle's entry has %d days, want %d", e.Days, datasets[1].Len())
	}

	// A vehicle the manifest does not list is inserted in ID order.
	if err := dir.SaveVehicle(datasets[0]); err != nil {
		t.Fatal(err)
	}
	m := dir.Manifest()
	checkManifestIndex(t, m, 3)
	if m.Vehicles[0].ID != datasets[0].VehicleID {
		t.Errorf("new vehicle %q not first in %v", datasets[0].VehicleID, m.Vehicles)
	}
	if _, err := dir.LoadVehicle(datasets[0].VehicleID); err != nil {
		t.Fatal(err)
	}

	reopened, err := Open(dir.Path())
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	checkManifestIndex(t, reopened.Manifest(), 3)

	migrated, err := Open(copyV1Store(t))
	if err != nil {
		t.Fatal(err)
	}
	defer migrated.Close()
	checkManifestIndex(t, migrated.Manifest(), len(v1Fingerprints))
	for id, v1 := range v1Fingerprints {
		if e, ok := migrated.Manifest().Entry(id); !ok || e.Fingerprint == v1 {
			t.Errorf("%s: migrated entry %+v, %v still holds the version-1 fingerprint", id, e, ok)
		}
	}
}
