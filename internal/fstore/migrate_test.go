package fstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testdata/v1store is a fleet directory written by the format_version 1
// code: two 40-day vehicles saved with their FNV-1a fingerprints, and
// one pending append-log record (one day for veh-0000).
const v1Store = "testdata/v1store"

// v1Fingerprints are the fingerprints that store's manifest records.
var v1Fingerprints = map[string]string{"veh-0000": "6ec8fa78f43c50dd", "veh-0001": "2bac8df1ecb3b43d"}

// copyV1Store copies the committed version-1 store into a temp dir,
// so the migration never rewrites the fixture itself.
func copyV1Store(t *testing.T) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(v1Store)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(v1Store, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func readManifestFile(t *testing.T, dir string) Manifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMigrateV1Store(t *testing.T) {
	path := copyV1Store(t)
	if m := readManifestFile(t, path); m.FormatVersion != 1 {
		t.Fatalf("fixture manifest is format_version %d, want 1", m.FormatVersion)
	}
	d, err := Open(path)
	if err != nil {
		t.Fatalf("open version-1 store: %v", err)
	}
	defer d.Close()
	m := readManifestFile(t, path)
	if m.FormatVersion != manifestFormatVersion {
		t.Fatalf("migrated manifest is format_version %d, want %d", m.FormatVersion, manifestFormatVersion)
	}
	if len(m.Vehicles) != len(v1Fingerprints) {
		t.Fatalf("migrated manifest lists %d vehicles, want %d", len(m.Vehicles), len(v1Fingerprints))
	}
	for _, e := range m.Vehicles {
		// The snapshot is the one the version-1 manifest described...
		data, err := os.ReadFile(filepath.Join(path, e.File))
		if err != nil {
			t.Fatal(err)
		}
		snap, err := DecodeDataset(data)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%016x", fingerprintV1(snap)); got != v1Fingerprints[e.ID] {
			t.Errorf("%s: version-1 fingerprint %s, fixture says %s", e.ID, got, v1Fingerprints[e.ID])
		}
		// ...and the manifest now holds its current fingerprint.
		if fp, _ := m.FingerprintOf(e.ID); fp != snap.Fingerprint() {
			t.Errorf("%s: manifest fingerprint %016x, snapshot's is %016x", e.ID, fp, snap.Fingerprint())
		}
		ds, err := d.LoadVehicle(e.ID)
		if err != nil {
			t.Fatalf("%s: load after migration: %v", e.ID, err)
		}
		want := 40
		if e.ID == "veh-0000" {
			want = 41 // the pending log record replays
		}
		if ds.Len() != want {
			t.Errorf("%s: %d days after load, want %d", e.ID, ds.Len(), want)
		}
	}

	// The migration ran once: a second Open finds version 2 and leaves
	// the manifest bytes alone, and an eager Load verifies every file.
	before, err := os.ReadFile(filepath.Join(path, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if _, _, err := d2.Load(); err != nil {
		t.Fatalf("eager load after migration: %v", err)
	}
	after, err := os.ReadFile(filepath.Join(path, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Error("reopening a migrated store rewrote its manifest")
	}
}

func TestMigrateV1DriftFailsOpen(t *testing.T) {
	path := copyV1Store(t)
	manifest := filepath.Join(path, manifestName)
	data, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	drifted := strings.Replace(string(data), v1Fingerprints["veh-0001"], "2bac8df1ecb3b43e", 1)
	if drifted == string(data) {
		t.Fatal("fixture manifest does not hold veh-0001's fingerprint")
	}
	if err := os.WriteFile(manifest, []byte(drifted), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(path)
	if !errors.Is(err, ErrMismatch) {
		t.Fatalf("open with a drifted version-1 fingerprint: %v, want ErrMismatch", err)
	}
	var ce *CorruptError
	if !errors.As(err, &ce) || ce.File != filepath.Join(path, "veh-0001.vds") {
		t.Fatalf("error %v does not name veh-0001.vds", err)
	}
	if m := readManifestFile(t, path); m.FormatVersion != 1 {
		t.Errorf("failed migration left format_version %d on disk, want 1", m.FormatVersion)
	}
}
