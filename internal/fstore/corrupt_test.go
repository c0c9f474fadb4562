package fstore

// Failure-path coverage: every way a fleet directory can rot on disk
// must surface as a typed error naming the file and byte offset —
// never as a silently wrong dataset.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"vup/internal/relational"
)

// savedDir saves a small fleet and returns the directory path plus the
// snapshot file name of the first vehicle.
func savedDir(t *testing.T) (string, string) {
	t.Helper()
	datasets := genDatasets(t, 1, 60, 31)
	dir, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dir.Save(datasets); err != nil {
		t.Fatal(err)
	}
	return dir.Path(), snapshotFileName(datasets[0].VehicleID)
}

// loadErr re-opens the directory cold and returns the Load error.
func loadErr(t *testing.T, path string) error {
	t.Helper()
	dir, err := Open(path)
	if err != nil {
		return err
	}
	_, _, err = dir.Load()
	return err
}

// mustCorrupt asserts err is a *CorruptError of the given class whose
// File names file and returns it.
func mustCorrupt(t *testing.T, err, class error, file string) *CorruptError {
	t.Helper()
	if err == nil {
		t.Fatalf("want %v for %s, got nil", class, file)
	}
	if !errors.Is(err, class) {
		t.Fatalf("error %v is not class %v", err, class)
	}
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("error %v is not a *CorruptError", err)
	}
	if !strings.HasSuffix(ce.File, file) {
		t.Fatalf("error names file %q, want %q", ce.File, file)
	}
	return ce
}

func TestLoadTruncatedSnapshot(t *testing.T) {
	path, vds := savedDir(t)
	full, err := os.ReadFile(filepath.Join(path, vds))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(path, vds), full[:len(full)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	ce := mustCorrupt(t, loadErr(t, path), relational.ErrTruncated, vds)
	if ce.Offset <= 0 || ce.Offset > int64(len(full)/2) {
		t.Errorf("fault offset %d outside truncated input", ce.Offset)
	}
}

func TestLoadWrongSnapshotMagic(t *testing.T) {
	path, vds := savedDir(t)
	corruptByte(t, filepath.Join(path, vds), 0, 'X')
	ce := mustCorrupt(t, loadErr(t, path), relational.ErrBadMagic, vds)
	if ce.Offset != 0 {
		t.Errorf("offset = %d, want 0", ce.Offset)
	}
}

func TestLoadWrongSnapshotVersion(t *testing.T) {
	path, vds := savedDir(t)
	corruptByte(t, filepath.Join(path, vds), 4, 0x7F)
	ce := mustCorrupt(t, loadErr(t, path), relational.ErrBadVersion, vds)
	if ce.Offset != 4 {
		t.Errorf("offset = %d, want 4", ce.Offset)
	}
}

func TestLoadSnapshotChecksumMismatch(t *testing.T) {
	path, vds := savedDir(t)
	full, err := os.ReadFile(filepath.Join(path, vds))
	if err != nil {
		t.Fatal(err)
	}
	// Flip a bit deep in the column data: structure still parses, the
	// whole-file checksum must catch it.
	corruptByte(t, filepath.Join(path, vds), len(full)-20, full[len(full)-20]^0x01)
	mustCorrupt(t, loadErr(t, path), relational.ErrChecksum, vds)
}

func TestLoadFingerprintDrift(t *testing.T) {
	path, vds := savedDir(t)
	// Rewrite the manifest with a wrong fingerprint: the snapshot is
	// pristine, but it no longer means what the manifest promised.
	mpath := filepath.Join(path, manifestName)
	data, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	dir, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	fp := dir.Manifest().Vehicles[0].Fingerprint
	flipped := strings.Replace(string(data), fp, "0000000000000000", 1)
	if flipped == string(data) {
		t.Fatal("fingerprint not found in manifest")
	}
	if err := os.WriteFile(mpath, []byte(flipped), 0o644); err != nil {
		t.Fatal(err)
	}
	mustCorrupt(t, loadErr(t, path), ErrMismatch, vds)
}

// TestLoadShiftedContiguousDate: a snapshot flagged contiguous whose
// date column disagrees with Start + i days must be refused. Its
// checksum is valid, and its fingerprint still matches the manifest
// (a contiguous dataset's fingerprint covers Start, not the date
// column), so the contiguity check is the only thing that catches it.
func TestLoadShiftedContiguousDate(t *testing.T) {
	path, vds := savedDir(t)
	file := filepath.Join(path, vds)
	saved, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	d, err := DecodeDataset(saved)
	if err != nil {
		t.Fatal(err)
	}
	// Encode with explicit dates, optionally one shifted by a day, then
	// clear the explicit-dates flag and reseal the checksum.
	craft := func(shift bool) []byte {
		c := d.Clone()
		c.Dates = make([]time.Time, c.Len())
		for i := range c.Dates {
			c.Dates[i] = d.Date(i)
		}
		if shift {
			c.Dates[17] = c.Dates[17].AddDate(0, 0, 1)
		}
		enc, err := EncodeDataset(c)
		if err != nil {
			t.Fatal(err)
		}
		flagOff := 4 + 2 + (2 + len(c.VehicleID)) + (2 + len(c.ModelID)) + (2 + len(c.Country)) + 2 + 12
		if enc[flagOff] != flagExplicitDates {
			t.Fatalf("flag byte at %d is %#x, want %#x", flagOff, enc[flagOff], flagExplicitDates)
		}
		enc[flagOff] = 0
		binary.LittleEndian.PutUint32(enc[len(enc)-4:], crc32.Checksum(enc[:len(enc)-4], castagnoli))
		return enc
	}
	if !bytes.Equal(craft(false), saved) {
		t.Fatal("unshifted craft does not reproduce the saved snapshot")
	}
	if err := os.WriteFile(file, craft(true), 0o644); err != nil {
		t.Fatal(err)
	}
	mustCorrupt(t, loadErr(t, path), ErrMismatch, vds)
}

func TestLoadTornLogTail(t *testing.T) {
	path, _ := savedDir(t)
	dir, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	datasets, _, err := dir.Load()
	if err != nil {
		t.Fatal(err)
	}
	if err := dir.Append(datasets[0].VehicleID, nextDay(datasets[0], 1)); err != nil {
		t.Fatal(err)
	}
	if err := dir.Append(datasets[0].VehicleID, Day{
		Date: datasets[0].Date(datasets[0].Len()-1).AddDate(0, 0, 2), Hours: 2, Observed: true,
		Channels: nextDay(datasets[0], 2).Channels,
	}); err != nil {
		t.Fatal(err)
	}
	if err := dir.Close(); err != nil {
		t.Fatal(err)
	}
	// Crash mid-write of the second record: cut into its payload.
	lpath := filepath.Join(path, logName)
	full, err := os.ReadFile(lpath)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := parseLog(full)
	if err != nil {
		t.Fatal(err)
	}
	cut := int(recs[1].offset) + 10
	if err := os.WriteFile(lpath, full[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	ce := mustCorrupt(t, loadErr(t, path), relational.ErrTruncated, logName)
	if ce.Offset < recs[1].offset || ce.Offset > int64(cut) {
		t.Errorf("torn-tail offset %d, want within the torn record [%d, %d]", ce.Offset, recs[1].offset, cut)
	}
}

func TestLoadLogRecordChecksumMismatch(t *testing.T) {
	path, _ := savedDir(t)
	dir, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	datasets, _, err := dir.Load()
	if err != nil {
		t.Fatal(err)
	}
	if err := dir.Append(datasets[0].VehicleID, nextDay(datasets[0], 1)); err != nil {
		t.Fatal(err)
	}
	if err := dir.Close(); err != nil {
		t.Fatal(err)
	}
	lpath := filepath.Join(path, logName)
	full, err := os.ReadFile(lpath)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload bit; the record CRC must catch it.
	corruptByte(t, lpath, len(full)-1, full[len(full)-1]^0x01)
	ce := mustCorrupt(t, loadErr(t, path), relational.ErrChecksum, logName)
	if ce.Offset != 4 {
		t.Errorf("offset = %d, want 4 (record CRC position)", ce.Offset)
	}
}

func TestLoadLogUnknownVehicle(t *testing.T) {
	path, _ := savedDir(t)
	dir, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	datasets, _, err := dir.Load()
	if err != nil {
		t.Fatal(err)
	}
	if err := dir.Append("ghost-vehicle", nextDay(datasets[0], 1)); err != nil {
		t.Fatal(err)
	}
	if err := dir.Close(); err != nil {
		t.Fatal(err)
	}
	mustCorrupt(t, loadErr(t, path), ErrMismatch, logName)
}

func TestLoadManifestGarbage(t *testing.T) {
	path, _ := savedDir(t)
	if err := os.WriteFile(filepath.Join(path, manifestName), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	mustCorrupt(t, loadErr(t, path), relational.ErrCorrupt, manifestName)
}

func corruptByte(t *testing.T, path string, off int, val byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[off] = val
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}
