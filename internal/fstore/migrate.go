package fstore

// The one-time manifest migration from format_version 1 to 2. Version
// 1 manifests record each snapshot's fingerprint under the original
// byte-serial FNV-1a definition; version 2 records etl's word-at-a-time
// fingerprint. The snapshot files themselves are unchanged. A version-1
// manifest is verified under the old definition once, here, and then
// rewritten, so every later path uses the one current definition.

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"vup/internal/etl"
)

// manifestV1 is the manifest format version whose fingerprints are
// fingerprintV1 values.
const manifestV1 = 1

// migrateV1 checks every snapshot m lists against its manifest entry
// (vehicle ID, day count and version-1 fingerprint), replaces each
// fingerprint with the current definition, and durably rewrites the
// manifest as version 2. A snapshot that does not decode or does not
// match its entry fails the migration with a *CorruptError naming its
// file, and the manifest on disk stays as it was. Caller holds d.mu
// (or is constructing d).
func (d *Dir) migrateV1(m *Manifest) (*Manifest, error) {
	out := &Manifest{FormatVersion: manifestFormatVersion, Vehicles: make([]ManifestEntry, len(m.Vehicles))}
	for i, e := range m.Vehicles {
		ds, path, err := readVehicleFile(d.path, e)
		if err != nil {
			return nil, err
		}
		if got := fmt.Sprintf("%016x", fingerprintV1(ds)); got != e.Fingerprint {
			return nil, corruptErr(path, fmt.Errorf("%w: version-1 dataset fingerprint %s, manifest says %s", ErrMismatch, got, e.Fingerprint))
		}
		e.Fingerprint = fmt.Sprintf("%016x", ds.Fingerprint())
		out.Vehicles[i] = e
	}
	if _, err := d.writeManifestLocked(out); err != nil {
		return nil, err
	}
	return out, nil
}

// fingerprintV1 is the version-1 manifest fingerprint: FNV-1a over the
// identity strings (each NUL-terminated), type, start, day count, the
// hours, each channel in sorted-name order (name NUL-terminated, then
// its values), the observed flags one byte each and any explicit
// dates. Integers and float bits are written little-endian.
func fingerprintV1(d *etl.VehicleDataset) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	writeU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	writeStr := func(s string) {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	writeStr(d.VehicleID)
	writeStr(d.ModelID)
	writeStr(d.Country)
	writeU64(uint64(d.Type))
	writeU64(uint64(d.Start.Unix()))
	writeU64(uint64(len(d.Hours)))
	for _, v := range d.Hours {
		writeU64(math.Float64bits(v))
	}
	for _, name := range d.ChannelNames() {
		writeStr(name)
		for _, v := range d.Channels[name] {
			writeU64(math.Float64bits(v))
		}
	}
	for _, o := range d.Observed {
		if o {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	for _, t := range d.Dates {
		writeU64(uint64(t.Unix()))
	}
	return h.Sum64()
}
