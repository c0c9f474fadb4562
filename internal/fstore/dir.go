package fstore

// The fleet directory: one VUPD snapshot per vehicle, a JSON manifest
// binding IDs to files and dataset fingerprints, and the append log.
// Dir is the handle the server and the generators hold; all methods
// are safe for concurrent use.

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"vup/internal/etl"
	"vup/internal/relational"
)

// Filenames inside a fleet directory.
const (
	manifestName = "manifest.json"
	logName      = "append.log"
	snapshotExt  = ".vds"
)

// manifestFormatVersion is the current manifest.json version. It moves
// independently of DatasetFormatVersion: version 2 changed only what
// the fingerprint field means (see migrate.go), not the snapshots.
const manifestFormatVersion = 2

// ErrNoManifest is returned by Load on a directory that has never been
// saved to — the caller's signal to generate or ingest a fleet and
// Save it.
var ErrNoManifest = errors.New("fstore: no manifest in directory")

// ErrUnknownVehicle is returned by LoadVehicle for an ID the manifest
// does not list.
var ErrUnknownVehicle = errors.New("fstore: unknown vehicle")

// CorruptError is the file-level decode failure: which file, at which
// byte offset, and why. The wrapped error carries the failure class
// (relational.ErrChecksum, relational.ErrTruncated, ErrMismatch, ...)
// for errors.Is.
type CorruptError struct {
	File   string
	Offset int64
	Err    error
}

// Error implements error.
func (e *CorruptError) Error() string {
	return fmt.Sprintf("fstore: %s: offset %d: %v", e.File, e.Offset, e.Err)
}

// Unwrap exposes the underlying fault to errors.Is / errors.As.
func (e *CorruptError) Unwrap() error { return e.Err }

// corruptErr wraps a decode failure with its file; if the underlying
// error is a *relational.FormatError the fault offset is lifted out.
func corruptErr(file string, err error) error {
	ce := &CorruptError{File: file, Err: err}
	var fe *relational.FormatError
	if errors.As(err, &fe) {
		ce.Offset = fe.Offset
	}
	return ce
}

// ManifestEntry describes one vehicle snapshot.
type ManifestEntry struct {
	ID   string `json:"id"`
	File string `json:"file"`
	// Fingerprint is the snapshot dataset's etl fingerprint
	// (etl.VehicleDataset.Fingerprint, before any pending log record is
	// replayed) as 16 hex digits — the data half of forecast-cache
	// keys. Every load recomputes it from the decoded snapshot and
	// fails loudly on drift, which is what makes a fingerprint read
	// from the manifest trustworthy for cache warm-starting. A
	// format_version 1 manifest holds the older FNV-1a fingerprint and
	// is migrated once, by Open (migrate.go).
	Fingerprint string `json:"fingerprint"`
	Days        int    `json:"days"`
	// AppliedSeq is the highest append-log sequence number already
	// folded into this snapshot; replay skips records at or below it.
	AppliedSeq uint64 `json:"applied_seq"`
}

// Manifest indexes a fleet directory.
type Manifest struct {
	FormatVersion int             `json:"format_version"`
	Vehicles      []ManifestEntry `json:"vehicles"`

	byID map[string]int // position in Vehicles of each ID's first entry
}

// indexed builds m's ID index and returns m. Dir indexes every
// manifest it reads or writes before sharing it, and never changes
// one afterwards.
func (m *Manifest) indexed() *Manifest {
	m.byID = make(map[string]int, len(m.Vehicles))
	for i, e := range m.Vehicles {
		if _, dup := m.byID[e.ID]; !dup {
			m.byID[e.ID] = i
		}
	}
	return m
}

// Entry returns the manifest entry for one vehicle ID: a map lookup
// on a manifest Dir read or wrote, a scan on one built elsewhere.
func (m *Manifest) Entry(id string) (ManifestEntry, bool) {
	if m.byID != nil {
		i, ok := m.byID[id]
		if !ok {
			return ManifestEntry{}, false
		}
		return m.Vehicles[i], true
	}
	for _, e := range m.Vehicles {
		if e.ID == id {
			return e, true
		}
	}
	return ManifestEntry{}, false
}

// FingerprintOf returns one vehicle's recorded dataset fingerprint.
func (m *Manifest) FingerprintOf(id string) (uint64, bool) {
	e, ok := m.Entry(id)
	if !ok {
		return 0, false
	}
	fp, err := strconv.ParseUint(e.Fingerprint, 16, 64)
	if err != nil {
		return 0, false
	}
	return fp, true
}

// Dir is an open fleet directory.
type Dir struct {
	path string

	mu       sync.Mutex
	manifest *Manifest // last manifest read or written; nil before first Save/Load
	log      *os.File  // append handle, opened on first Append
	lastSeq  uint64    // highest sequence number present in the log
	logSize  int64     // byte length of the log file, for record offsets
	// pending indexes, per vehicle, the append-log records not yet
	// folded into that vehicle's snapshot (seq > AppliedSeq). Open and
	// Load rebuild it from disk; Append extends it; SaveVehicle drops
	// one vehicle's slice; Save drops it all. LoadVehicle replays from
	// this index instead of re-parsing the whole log per vehicle.
	pending map[string][]logRecord
}

// Open prepares a fleet directory for use, creating it if needed. An
// existing manifest and append log are indexed (the log is fully
// parsed so appends continue the sequence and per-vehicle lazy loads
// replay without rescanning); a torn or corrupt log — or a log record
// naming a vehicle the manifest does not list — fails here, loudly,
// rather than at the first append. A format_version 1 manifest is
// migrated to version 2 here, once: every snapshot is verified under
// the old fingerprint definition, and one that fails fails Open with a
// *CorruptError naming its file.
func Open(path string) (*Dir, error) {
	if err := os.MkdirAll(path, 0o755); err != nil {
		return nil, fmt.Errorf("fstore: open %s: %w", path, err)
	}
	d := &Dir{path: path}
	m, err := d.readManifest()
	if err != nil && !errors.Is(err, ErrNoManifest) {
		return nil, err
	}
	d.manifest = m
	if err := d.indexLogLocked(m); err != nil {
		return nil, err
	}
	return d, nil
}

// indexLogLocked re-reads the append log from disk and rebuilds the
// per-vehicle pending index against manifest m: records at or below a
// vehicle's AppliedSeq are already in its snapshot and are dropped; a
// record naming a vehicle outside the manifest is corruption (with a
// nil manifest — a directory never saved to — every record is kept).
// Caller holds d.mu (or is constructing d).
func (d *Dir) indexLogLocked(m *Manifest) error {
	logPath := filepath.Join(d.path, logName)
	d.pending = make(map[string][]logRecord)
	d.lastSeq = 0
	d.logSize = 0
	data, err := os.ReadFile(logPath)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("fstore: open %s: %w", logPath, err)
	}
	if len(data) == 0 {
		return nil
	}
	recs, err := parseLog(data)
	if err != nil {
		return corruptErr(logPath, err)
	}
	for _, rec := range recs {
		var applied uint64
		if m != nil {
			e, ok := m.Entry(rec.vehicleID)
			if !ok {
				return &CorruptError{File: logPath, Offset: rec.offset,
					Err: fmt.Errorf("%w: log record %d names unknown vehicle %q", ErrMismatch, rec.seq, rec.vehicleID)}
			}
			applied = e.AppliedSeq
		}
		if rec.seq > applied {
			d.pending[rec.vehicleID] = append(d.pending[rec.vehicleID], rec)
		}
	}
	d.lastSeq = recs[len(recs)-1].seq
	d.logSize = int64(len(data))
	return nil
}

// Path returns the directory path.
func (d *Dir) Path() string { return d.path }

// Close releases the append-log handle, if open.
func (d *Dir) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.log == nil {
		return nil
	}
	err := d.log.Close()
	d.log = nil
	return err
}

// snapshotFileName maps a vehicle ID to its snapshot file name:
// filesystem-safe bytes pass through, everything else is %XX
// percent-encoded (injective, so distinct IDs never collide).
func snapshotFileName(id string) string {
	var b strings.Builder
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_', c == '.':
			b.WriteByte(c)
		default:
			fmt.Fprintf(&b, "%%%02X", c)
		}
	}
	return b.String() + snapshotExt
}

// writeFileSync writes data to path atomically (temp file + rename)
// and fsyncs both the file and the directory.
func writeFileSync(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		_ = tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(dir)
}

func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

// Save writes a full snapshot: one VUPD file per dataset, a fresh
// manifest, and an emptied append log (everything logged so far is,
// by contract, already reflected in the datasets — Save IS the log
// compaction). Snapshot files not referenced by the new manifest are
// removed. Not atomic across files: a crash mid-Save leaves a
// manifest/snapshot fingerprint disagreement that the next Load
// reports loudly instead of serving.
func (d *Dir) Save(datasets []*etl.VehicleDataset) (*Manifest, error) {
	start := time.Now()
	d.mu.Lock()
	defer d.mu.Unlock()

	sorted := append([]*etl.VehicleDataset(nil), datasets...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].VehicleID < sorted[j].VehicleID })

	m := &Manifest{FormatVersion: manifestFormatVersion}
	var bytesWritten int
	seen := map[string]bool{}
	for _, ds := range sorted {
		if seen[ds.VehicleID] {
			return nil, fmt.Errorf("%w: duplicate vehicle %q in Save", ErrMismatch, ds.VehicleID)
		}
		seen[ds.VehicleID] = true
		data, err := EncodeDataset(ds)
		if err != nil {
			return nil, err
		}
		name := snapshotFileName(ds.VehicleID)
		if err := writeFileSync(filepath.Join(d.path, name), data); err != nil {
			return nil, fmt.Errorf("fstore: save %q: %w", ds.VehicleID, err)
		}
		bytesWritten += len(data)
		m.Vehicles = append(m.Vehicles, ManifestEntry{
			ID:          ds.VehicleID,
			File:        name,
			Fingerprint: fmt.Sprintf("%016x", ds.Fingerprint()),
			Days:        ds.Len(),
		})
	}
	n, err := d.writeManifestLocked(m)
	if err != nil {
		return nil, err
	}
	bytesWritten += n
	m.indexed()

	// The new snapshots embody every logged day: drop the log and any
	// snapshot file the manifest no longer references.
	if d.log != nil {
		_ = d.log.Close()
		d.log = nil
	}
	if err := os.Remove(filepath.Join(d.path, logName)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("fstore: truncate log: %w", err)
	}
	d.lastSeq = 0
	d.logSize = 0
	d.pending = make(map[string][]logRecord)
	entries, err := os.ReadDir(d.path)
	if err != nil {
		return nil, fmt.Errorf("fstore: sweep %s: %w", d.path, err)
	}
	referenced := map[string]bool{}
	for _, e := range m.Vehicles {
		referenced[e.File] = true
	}
	for _, e := range entries {
		if name := e.Name(); strings.HasSuffix(name, snapshotExt) && !referenced[name] {
			if err := os.Remove(filepath.Join(d.path, name)); err != nil {
				return nil, fmt.Errorf("fstore: sweep %s: %w", name, err)
			}
		}
	}

	d.manifest = m
	snapshotBytes.With().Add(uint64(bytesWritten))
	snapshotSeconds.With().ObserveSince(start)
	return m, nil
}

// SaveVehicle snapshots a single vehicle — the Store.Put hook — and
// updates its manifest entry, marking every log record up to the
// current sequence as applied for that vehicle (the dataset being
// saved is the caller's live, fully-appended state).
func (d *Dir) SaveVehicle(ds *etl.VehicleDataset) error {
	start := time.Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.manifest == nil {
		return fmt.Errorf("%w (run Save first)", ErrNoManifest)
	}
	data, err := EncodeDataset(ds)
	if err != nil {
		return err
	}
	name := snapshotFileName(ds.VehicleID)
	if err := writeFileSync(filepath.Join(d.path, name), data); err != nil {
		return fmt.Errorf("fstore: save %q: %w", ds.VehicleID, err)
	}
	entry := ManifestEntry{
		ID:          ds.VehicleID,
		File:        name,
		Fingerprint: fmt.Sprintf("%016x", ds.Fingerprint()),
		Days:        ds.Len(),
		AppliedSeq:  d.lastSeq,
	}
	m := &Manifest{FormatVersion: manifestFormatVersion}
	m.Vehicles = append(make([]ManifestEntry, 0, len(d.manifest.Vehicles)+1), d.manifest.Vehicles...)
	if i, ok := d.manifest.byID[ds.VehicleID]; ok {
		m.Vehicles[i] = entry
	} else {
		m.Vehicles = append(m.Vehicles, entry)
		sort.Slice(m.Vehicles, func(i, j int) bool { return m.Vehicles[i].ID < m.Vehicles[j].ID })
	}
	n, err := d.writeManifestLocked(m)
	if err != nil {
		return err
	}
	d.manifest = m.indexed()
	// The snapshot embodies every record logged so far for this
	// vehicle (AppliedSeq = lastSeq): its pending slice is spent.
	delete(d.pending, ds.VehicleID)
	snapshotBytes.With().Add(uint64(len(data) + n))
	snapshotSeconds.With().ObserveSince(start)
	return nil
}

func (d *Dir) writeManifestLocked(m *Manifest) (int, error) {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return 0, fmt.Errorf("fstore: encode manifest: %w", err)
	}
	data = append(data, '\n')
	if err := writeFileSync(filepath.Join(d.path, manifestName), data); err != nil {
		return 0, fmt.Errorf("fstore: write manifest: %w", err)
	}
	return len(data), nil
}

// readManifest reads manifest.json, migrating a version-1 manifest in
// place. Caller holds d.mu (or is constructing d).
func (d *Dir) readManifest() (*Manifest, error) {
	path := filepath.Join(d.path, manifestName)
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w: %s", ErrNoManifest, d.path)
	}
	if err != nil {
		return nil, fmt.Errorf("fstore: read manifest: %w", err)
	}
	m := &Manifest{}
	if err := json.Unmarshal(data, m); err != nil {
		return nil, corruptErr(path, fmt.Errorf("%w: manifest: %v", relational.ErrCorrupt, err))
	}
	switch m.FormatVersion {
	case manifestFormatVersion:
		return m.indexed(), nil
	case manifestV1:
		if m, err = d.migrateV1(m); err != nil {
			return nil, err
		}
		return m.indexed(), nil
	}
	return nil, corruptErr(path, fmt.Errorf("%w: manifest format_version %d, want %d", relational.ErrBadVersion, m.FormatVersion, manifestFormatVersion))
}

// Manifest returns the directory's current manifest (nil before the
// first Save or Load).
func (d *Dir) Manifest() *Manifest {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.manifest
}

// decodeVehicleFile decodes one vehicle's snapshot and verifies it
// against its manifest entry: the embedded vehicle ID, the day count
// and the recomputed dataset fingerprint (so a fingerprint read from
// the manifest is proof the bytes on disk still mean what they meant
// when cached artifacts were keyed on them). It touches only the one
// file, so concurrent callers need no Dir lock.
func decodeVehicleFile(dirPath string, e ManifestEntry) (*etl.VehicleDataset, error) {
	ds, path, err := readVehicleFile(dirPath, e)
	if err != nil {
		return nil, err
	}
	if got := fmt.Sprintf("%016x", ds.Fingerprint()); got != e.Fingerprint {
		return nil, corruptErr(path, fmt.Errorf("%w: dataset fingerprint %s, manifest says %s", ErrMismatch, got, e.Fingerprint))
	}
	return ds, nil
}

// readVehicleFile decodes one vehicle's snapshot and checks its vehicle
// ID and day count against the manifest entry; it returns the file's
// path for error reports.
func readVehicleFile(dirPath string, e ManifestEntry) (*etl.VehicleDataset, string, error) {
	path := filepath.Join(dirPath, e.File)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, path, fmt.Errorf("fstore: load %q: %w", e.ID, err)
	}
	ds, err := DecodeDataset(data)
	if err != nil {
		return nil, path, corruptErr(path, err)
	}
	if ds.VehicleID != e.ID {
		return nil, path, corruptErr(path, fmt.Errorf("%w: snapshot is for vehicle %q, manifest says %q", ErrMismatch, ds.VehicleID, e.ID))
	}
	if ds.Len() != e.Days {
		return nil, path, corruptErr(path, fmt.Errorf("%w: snapshot has %d days, manifest says %d", ErrMismatch, ds.Len(), e.Days))
	}
	return ds, path, nil
}

// replayPending folds a vehicle's unapplied log records into its
// freshly decoded snapshot and derives the contexts of the replayed
// days; the decode already derived the snapshot's own. recs must be
// that vehicle's pending slice (already filtered to seq > AppliedSeq).
func (d *Dir) replayPending(ds *etl.VehicleDataset, recs []logRecord) (int, error) {
	from := ds.Len()
	replayed := 0
	for _, rec := range recs {
		if err := applyDays(ds, rec.days); err != nil {
			return replayed, &CorruptError{File: filepath.Join(d.path, logName), Offset: rec.offset, Err: err}
		}
		replayed++
	}
	if replayed > 0 {
		ds.EnrichFrom(from)
		if err := ds.Validate(); err != nil {
			return replayed, fmt.Errorf("fstore: replayed dataset %q: %w", ds.VehicleID, err)
		}
	}
	return replayed, nil
}

// VehicleIDs returns every vehicle ID the manifest lists, sorted —
// the fleet roster a lazy boot starts from without decoding a single
// snapshot. It is nil before the first Save or Load on a fresh
// directory.
func (d *Dir) VehicleIDs() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.manifest == nil {
		return nil
	}
	out := make([]string, 0, len(d.manifest.Vehicles))
	for _, e := range d.manifest.Vehicles {
		out = append(out, e.ID)
	}
	sort.Strings(out)
	return out
}

// PendingRecords reports how many append-log records are waiting to be
// folded into one vehicle's snapshot — the quantity a compaction
// threshold is measured against.
func (d *Dir) PendingRecords(id string) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.pending[id])
}

// LoadVehicle loads exactly one vehicle: decode its snapshot, verify
// it against the manifest, replay only its pending append-log records.
// The decode and replay run outside the Dir lock, so concurrent lazy
// loads of different vehicles proceed in parallel. A missing manifest
// entry is ErrUnknownVehicle; a rotten file fails only this vehicle,
// never the directory — the corrupt-isolation property lazy boot
// depends on.
func (d *Dir) LoadVehicle(id string) (*etl.VehicleDataset, error) {
	d.mu.Lock()
	if d.manifest == nil {
		d.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrNoManifest, d.path)
	}
	e, ok := d.manifest.Entry(id)
	if !ok {
		d.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrUnknownVehicle, id)
	}
	recs := append([]logRecord(nil), d.pending[id]...)
	d.mu.Unlock()

	ds, err := decodeVehicleFile(d.path, e)
	if err != nil {
		return nil, err
	}
	replayed, err := d.replayPending(ds, recs)
	if err != nil {
		return nil, err
	}
	lazyLoads.With().Inc()
	logReplayed.With().Add(uint64(replayed))
	return ds, nil
}

// Load cold-boots the fleet eagerly: reads the manifest, re-indexes
// the append log, then runs the LoadVehicle path for every manifest
// entry. Datasets come back sorted by vehicle ID.
func (d *Dir) Load() ([]*etl.VehicleDataset, *Manifest, error) {
	start := time.Now()
	d.mu.Lock()
	defer d.mu.Unlock()

	m, err := d.readManifest()
	if err != nil {
		return nil, nil, err
	}
	// Re-read the log too: Load must see the directory as a fresh
	// handle would (the pending index also picks up records this
	// handle appended since Open).
	if err := d.indexLogLocked(m); err != nil {
		return nil, nil, err
	}
	datasets := make([]*etl.VehicleDataset, 0, len(m.Vehicles))
	seen := make(map[string]bool, len(m.Vehicles))
	replayed := 0
	for _, e := range m.Vehicles {
		if seen[e.ID] {
			return nil, nil, corruptErr(filepath.Join(d.path, manifestName), fmt.Errorf("%w: duplicate manifest entry %q", ErrMismatch, e.ID))
		}
		seen[e.ID] = true
		ds, err := decodeVehicleFile(d.path, e)
		if err != nil {
			return nil, nil, err
		}
		n, err := d.replayPending(ds, d.pending[e.ID])
		if err != nil {
			return nil, nil, err
		}
		replayed += n
		datasets = append(datasets, ds)
	}

	sort.Slice(datasets, func(i, j int) bool { return datasets[i].VehicleID < datasets[j].VehicleID })
	d.manifest = m
	logReplayed.With().Add(uint64(replayed))
	loadSeconds.With().ObserveSince(start)
	return datasets, m, nil
}

// MaybeCompact folds one vehicle's append-log backlog into its
// snapshot when it has reached threshold records: ds (the caller's
// live, fully-appended state) is snapshotted via SaveVehicle, which
// marks the backlog applied, so the next load of this vehicle replays
// nothing. The log file itself only shrinks at the next full Save;
// what compaction bounds is per-vehicle replay work and the pending
// index. A threshold <= 0 disables compaction. Callers serializing
// writes per vehicle (the server's Append path) get an exact count.
func (d *Dir) MaybeCompact(ds *etl.VehicleDataset, threshold int) (bool, error) {
	if threshold <= 0 || d.PendingRecords(ds.VehicleID) < threshold {
		return false, nil
	}
	if err := d.SaveVehicle(ds); err != nil {
		return false, err
	}
	compactions.With().Inc()
	return true, nil
}

// Append durably logs incremental days for one vehicle: one framed,
// checksummed record, fsynced before return. The in-memory dataset is
// the caller's to update (ApplyDays); the next Load folds the record
// in, and the next Save compacts it away.
func (d *Dir) Append(vehicleID string, days ...Day) error {
	if vehicleID == "" {
		return fmt.Errorf("%w: empty vehicle id", ErrMismatch)
	}
	if len(days) == 0 {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.log == nil {
		f, err := os.OpenFile(filepath.Join(d.path, logName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("fstore: open log: %w", err)
		}
		d.log = f
	}
	rec := encodeLogRecord(d.lastSeq+1, vehicleID, days)
	if _, err := d.log.Write(rec); err != nil {
		return fmt.Errorf("fstore: append: %w", err)
	}
	if err := d.log.Sync(); err != nil {
		return fmt.Errorf("fstore: append sync: %w", err)
	}
	d.lastSeq++
	// Mirror the durable record into the pending index so a LoadVehicle
	// through this handle replays it without rescanning the log. The
	// days slice is copied; the Day values (and their channel maps) are
	// owned by the index from here on — callers must not mutate them.
	if d.pending == nil {
		d.pending = make(map[string][]logRecord)
	}
	d.pending[vehicleID] = append(d.pending[vehicleID],
		logRecord{seq: d.lastSeq, vehicleID: vehicleID, days: append([]Day(nil), days...), offset: d.logSize})
	d.logSize += int64(len(rec))
	logBytes.With().Add(uint64(len(rec)))
	return nil
}
