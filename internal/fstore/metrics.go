package fstore

import "vup/internal/obs"

// Persistence telemetry, registered on the process-wide registry so
// vup-server's GET /metrics exposes it next to the serving and span
// metrics. Counters measure durable bytes and replay volume;
// the histograms time the two operator-visible paths (snapshot write,
// cold-boot load). A lazy single-vehicle load is timed by the server's
// store.load span.
var (
	snapshotBytes = obs.Default.Counter(
		"fstore_snapshot_bytes_total",
		"Bytes written to vehicle snapshot files and the manifest.")
	logBytes = obs.Default.Counter(
		"fstore_log_bytes_total",
		"Bytes appended to the incremental-day log.")
	snapshotSeconds = obs.Default.Histogram(
		"fstore_snapshot_seconds",
		"Wall-clock time of snapshot writes (full Save or one-vehicle).",
		obs.DurationBuckets)
	loadSeconds = obs.Default.Histogram(
		"fstore_load_seconds",
		"Wall-clock time of fleet-directory loads (cold boot).",
		obs.DurationBuckets)
	logReplayed = obs.Default.Counter(
		"fstore_log_records_replayed_total",
		"Append-log records folded into datasets during Load.")
	lazyLoads = obs.Default.Counter(
		"fstore_lazy_loads_total",
		"Single-vehicle snapshot loads via LoadVehicle (lazy faults).")
	compactions = obs.Default.Counter(
		"fstore_compactions_total",
		"Per-vehicle append-log backlogs folded into snapshots by MaybeCompact.")
)
