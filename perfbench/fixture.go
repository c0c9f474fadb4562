package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"vup"
	"vup/internal/etl"
	"vup/internal/fstore"
)

// A fixture is a fleet store generated once and reused by every run in
// the same checkout: fleet generation is not part of any measured phase.
// Fixtures live under <work>/fixtures/<key>, where key hashes the Go
// sources that generate and encode them, so a source change regenerates
// them instead of serving a stale store.
type fixture struct {
	name  string
	fleet vup.FleetConfig
}

var (
	smallFixture = fixture{name: "small", fleet: vup.SmallFleet()} // 60 vehicles x 730 days
	studyFixture = fixture{name: "study", fleet: vup.StudyFleet()} // 2 239 vehicles x 1 369 days
)

// stampEntry records one vehicle file as generated; verify compares the
// manifest and the files on disk against it before every run.
type stampEntry struct {
	ID          string `json:"id"`
	Fingerprint string `json:"fingerprint"`
	Days        int    `json:"days"`
	File        string `json:"file"`
	Size        int64  `json:"size"`
}

const stampName = "perfbench-stamp.json"

// sourceKey hashes go.mod and every non-test Go file of the module
// outside the benchmark's own directory and hidden directories (the
// build directory among them).
func sourceKey(root string) (string, error) {
	var paths []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		if d.IsDir() {
			if rel == "perfbench" || strings.HasPrefix(d.Name(), ".") && rel != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if rel == "go.mod" || strings.HasSuffix(rel, ".go") && !strings.HasSuffix(rel, "_test.go") {
			paths = append(paths, rel)
		}
		return nil
	})
	if err != nil {
		return "", fmt.Errorf("hash sources: %w", err)
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, rel := range paths {
		data, err := os.ReadFile(filepath.Join(root, rel))
		if err != nil {
			return "", fmt.Errorf("hash sources: %w", err)
		}
		fmt.Fprintf(h, "%s %d\n", rel, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// ensureFixtures returns the directory holding both fixture stores,
// generating whichever is missing, and verifies both.
func ensureFixtures(root, work string) (string, error) {
	key, err := sourceKey(root)
	if err != nil {
		return "", err
	}
	base := filepath.Join(work, "fixtures")
	dir := filepath.Join(base, key)
	if entries, err := os.ReadDir(base); err == nil {
		for _, e := range entries {
			if e.Name() != key {
				_ = os.RemoveAll(filepath.Join(base, e.Name())) // stale generation; best effort
			}
		}
	}
	for _, fx := range []fixture{smallFixture, studyFixture} {
		path := filepath.Join(dir, fx.name)
		if _, err := os.Stat(filepath.Join(path, stampName)); err != nil {
			if err := generate(fx, path); err != nil {
				return "", err
			}
		}
		if err := verify(path); err != nil {
			return "", fmt.Errorf("fixture %s: %w", fx.name, err)
		}
	}
	return dir, nil
}

// generate builds the fleet with the same generator and seeds vup-server
// uses, saves it through fstore, and writes the stamp last, so a
// half-written fixture is never taken for a finished one.
func generate(fx fixture, path string) error {
	logf("generating fixture %s (%d vehicles x %d days)", fx.name, fx.fleet.Units, fx.fleet.Days)
	if err := os.RemoveAll(path); err != nil {
		return err
	}
	datasets, err := vup.GenerateDatasets(fx.fleet, fx.fleet.Seed+1)
	if err != nil {
		return fmt.Errorf("generate %s: %w", fx.name, err)
	}
	dir, err := fstore.Open(path)
	if err != nil {
		return err
	}
	man, err := dir.Save(datasets)
	if err != nil {
		return fmt.Errorf("save %s: %w", fx.name, err)
	}
	if err := dir.Close(); err != nil {
		return err
	}
	byID := make(map[string]*etl.VehicleDataset, len(datasets))
	for _, d := range datasets {
		byID[d.VehicleID] = d
	}
	stamp := make([]stampEntry, 0, len(man.Vehicles))
	for _, e := range man.Vehicles {
		d := byID[e.ID]
		if d == nil {
			return fmt.Errorf("save %s: manifest lists unknown vehicle %q", fx.name, e.ID)
		}
		st, err := os.Stat(filepath.Join(path, e.File))
		if err != nil {
			return err
		}
		stamp = append(stamp, stampEntry{ID: e.ID, Fingerprint: fmt.Sprintf("%016x", d.Fingerprint()), Days: d.Len(), File: e.File, Size: st.Size()})
	}
	data, err := json.Marshal(stamp)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(path, stampName), data, 0o644)
}

// verify checks that the store's manifest lists exactly the generated
// vehicles with the fingerprints computed from the in-memory datasets at
// generation time, and that every vehicle file is present at its
// generated size. The server's own load path re-checks each file's
// decoded fingerprint against the manifest.
func verify(path string) error {
	data, err := os.ReadFile(filepath.Join(path, stampName))
	if err != nil {
		return err
	}
	var stamp []stampEntry
	if err := json.Unmarshal(data, &stamp); err != nil {
		return fmt.Errorf("stamp: %w", err)
	}
	dir, err := fstore.Open(path)
	if err != nil {
		return err
	}
	defer dir.Close()
	man := dir.Manifest()
	if man == nil || len(man.Vehicles) != len(stamp) {
		return fmt.Errorf("manifest does not match the generated fleet")
	}
	for i, e := range man.Vehicles {
		want := stamp[i]
		if e.ID != want.ID || e.Fingerprint != want.Fingerprint || e.Days != want.Days || e.File != want.File || e.AppliedSeq != 0 {
			return fmt.Errorf("manifest entry %q does not match the generated fleet", e.ID)
		}
		st, err := os.Stat(filepath.Join(path, e.File))
		if err != nil {
			return err
		}
		if st.Size() != want.Size {
			return fmt.Errorf("vehicle file %s changed size", e.File)
		}
	}
	if _, err := os.Stat(filepath.Join(path, "append.log")); err == nil {
		return fmt.Errorf("fixture has an append log; it was written to")
	}
	return nil
}

// copyStore copies a fixture store (without its stamp) to dst, for a
// server that may write to its store.
func copyStore(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() || e.Name() == stampName {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
