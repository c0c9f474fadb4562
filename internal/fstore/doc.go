// Package fstore persists fleets of per-vehicle daily datasets
// (etl.VehicleDataset) on disk, so a serving process survives restarts
// and fleet size is no longer capped by what fits in RAM at boot.
//
// A fleet directory contains:
//
//   - one snapshot file per vehicle (<id>.vds), a VUPD container whose
//     payload is a relational.Table in the VUPT binary columnar format
//     (see FORMAT.md in this directory — the normative byte-level
//     spec);
//   - manifest.json, listing every vehicle with its snapshot file,
//     day count and dataset fingerprint (etl.VehicleDataset.
//     Fingerprint), the value forecast-cache keys are derived from —
//     equal fingerprints across a restart mean every previously
//     computed cache key is still valid, which is what lets the server
//     warm-start without refitting or invalidation (Open migrates a
//     format_version 1 manifest, whose fingerprints use an older
//     definition, once);
//   - append.log, a replayable record log of incremental days
//     (per-vehicle appends land here between snapshots and are folded
//     into the dataset at load; Save compacts the log away).
//
// The decoder side is strict: wrong magic, unsupported versions,
// truncated files, checksum mismatches and torn log records all fail
// loudly with a *CorruptError naming the file and byte offset — a
// fleet directory never deserializes into garbage.
//
// Typical use:
//
//	dir, _ := fstore.Open(path)
//	datasets, _, err := dir.Load()        // cold boot (ErrNoManifest when empty)
//	...
//	_ = dir.Append(id, fstore.Day{...})   // incremental day, logged durably
//	_ = dir.Save(datasets)                // full snapshot, compacts the log
package fstore
