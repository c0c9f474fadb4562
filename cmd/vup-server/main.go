// Command vup-server serves the prediction pipeline over HTTP for a
// generated synthetic fleet: vehicle listing, per-vehicle forecasts,
// hold-out evaluations and Prometheus metrics.
//
// Usage:
//
//	vup-server -addr :8080 -units 30 -days 600 [-cache-size 256] [-data-dir /var/lib/vup] [-debug-addr :6060]
//
// Forecast and evaluation responses are served from a bounded LRU
// cache of trained artifacts with request coalescing; -cache-size 0
// restores train-per-request.
//
// With -data-dir, the fleet persists across restarts in the on-disk
// store (internal/fstore). A fleet is generated only into a directory
// that has no manifest yet, and saved there; every boot then serves
// what the directory holds, an empty saved fleet included. Every Put
// snapshots the changed vehicle, and graceful shutdown writes a full
// compacting snapshot. Dataset fingerprints survive the round-trip
// bit-for-bit, so forecast-cache keys computed before a restart stay
// valid after it (warm start). A corrupt store is a startup error
// naming the file and byte offset — delete or restore the directory to
// recover.
//
// With -lazy-load the boot reads only the manifest: vehicle snapshots
// decode on first request (single-flighted per vehicle), and under
// -resident-budget cold datasets evict LRU so resident memory is
// bounded by the budget, not the fleet. A corrupt vehicle file then
// fails only that vehicle's requests, not the boot. Shutdown
// re-snapshots only dirty residents.
//
// Endpoints:
//
//	GET /healthz
//	GET /metrics                                  Prometheus text format
//	GET /v1/vehicles
//	GET /v1/vehicles/{id}
//	GET /v1/vehicles/{id}/forecast?alg=SVR&scenario=next-working-day&w=140&k=20
//	GET /v1/vehicles/{id}/forecast?horizon=7        iterated multi-step forecast
//	GET /v1/vehicles/{id}/forecast?interval=0.8     residual-calibrated band
//	GET /v1/vehicles/{id}/evaluation?alg=Lasso&stride=10
//	POST /v1/vehicles/{id}/ingest                   raw 10-minute report batches
//
// Ingested reports are summarized into whole days, repaired with
// -ingest-policy, appended durably (one fsynced append-log record per
// batch under -data-dir) and become forecast-visible with a
// per-vehicle generation bump — other vehicles' cached artifacts are
// untouched. At most -ingest-concurrency batches are in flight;
// beyond that the server sheds with 503 + Retry-After. See cmd/vup-ingest
// for a replay driver.
//
// A horizon request is derived from the same cached trained artifact
// as the plain forecast, so it never retrains a cached model; horizon
// and interval cannot be combined.
//
// Every API request runs under a root trace span whose ID is echoed in
// the X-Trace-Id response header; completed traces pass a tail sampler
// (errors and slow requests always kept, the rest at -trace-sample) and
// land in a bounded ring buffer. -trace-buffer 0 disables tracing, at
// which point the span API is an allocation-free no-op.
//
// With -debug-addr set, a second listener serves Go runtime
// diagnostics (opt-in, keep it off public interfaces):
//
//	GET /debug/pprof/       profiles (heap, goroutine, CPU via ?seconds=N)
//	GET /debug/vars         expvar JSON (memstats, cmdline)
//	GET /debug/traces       stored traces, newest first (JSON)
//	GET /debug/traces/{id}  one trace as a text waterfall (?format=json for data)
package main

import (
	"context"
	"expvar"
	"flag"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"vup"
	"vup/internal/canbus"
	"vup/internal/etl"
	"vup/internal/fstore"
	"vup/internal/obs"
	"vup/internal/obs/trace"
	"vup/internal/regress"
	"vup/internal/server"
)

func main() {
	var (
		addr           = flag.String("addr", ":8080", "listen address")
		debugAddr      = flag.String("debug-addr", "", "optional listen address for pprof, expvar and trace endpoints (e.g. :6060); disabled when empty")
		units          = flag.Int("units", 30, "fleet size to generate")
		days           = flag.Int("days", 600, "observation days")
		seed           = flag.Int64("seed", 1, "generation seed")
		cacheSize      = flag.Int("cache-size", 256, "trained-forecast cache capacity in entries; 0 disables caching and request coalescing")
		dataDir        = flag.String("data-dir", "", "fleet store directory; loads the saved fleet on boot (generating and saving one on first run) and persists changes; empty keeps the fleet in memory only")
		lazyLoad       = flag.Bool("lazy-load", false, "with -data-dir: boot from the manifest alone and load vehicle snapshots on first request instead of decoding the whole fleet")
		residentBudget = flag.Int64("resident-budget", 0, "with -lazy-load: evict cold vehicle datasets once their estimated resident bytes exceed this budget; 0 keeps everything loaded so far")
		compactEvery   = flag.Int("compact-threshold", 64, "with -data-dir: fold a vehicle's append-log backlog into its snapshot once it reaches this many records; 0 disables compaction")
		ingestPolicy   = flag.String("ingest-policy", "forward-fill", "missing-day repair for ingested gap days: zero, forward-fill or interpolate")
		ingestConc     = flag.Int("ingest-concurrency", 4, "concurrent ingest batches admitted before shedding with 503")
		traceBuffer    = flag.Int("trace-buffer", 256, "stored-trace ring buffer capacity behind /debug/traces; 0 disables tracing")
		traceSample    = flag.Float64("trace-sample", 0.1, "tail-sampling keep probability for fast, clean traces (errors and slow requests are always kept; >=1 keeps everything)")
		traceSlow      = flag.Duration("trace-slow", 100*time.Millisecond, "root latency at or above which a trace is always kept")
		verbose        = flag.Bool("v", false, "log at debug level")
	)
	flag.Parse()

	level := obs.LevelInfo
	if *verbose {
		level = obs.LevelDebug
	}
	logg := obs.NewLogger(os.Stderr, level).With("component", "vup-server")

	if *lazyLoad && *dataDir == "" {
		logg.Error("-lazy-load requires -data-dir")
		os.Exit(1)
	}
	if *residentBudget > 0 && !*lazyLoad {
		logg.Error("-resident-budget requires -lazy-load")
		os.Exit(1)
	}
	var (
		dir      *fstore.Dir
		datasets []*etl.VehicleDataset
		store    *server.Store
		err      error
	)
	if *dataDir != "" {
		dir, err = fstore.Open(*dataDir)
		if err != nil {
			logg.Error("fleet store open failed", "dir", *dataDir, "error", err)
			os.Exit(1)
		}
	}
	// Generate a fleet only without a directory or into one never
	// saved to. A saved fleet, even an empty one, is what gets served.
	if dir == nil || dir.Manifest() == nil {
		fc := vup.SmallFleet()
		fc.Units = *units
		fc.Days = *days
		fc.Seed = *seed
		logg.Info("generating fleet", "units", *units, "days", *days, "seed", *seed)
		start := time.Now()
		datasets, err = vup.GenerateDatasets(fc, *seed+1)
		if err != nil {
			logg.Error("generation failed", "error", err)
			os.Exit(1)
		}
		logg.Info("fleet ready", "vehicles", len(datasets), "took", time.Since(start).Round(time.Millisecond))
		if dir != nil {
			if _, err := dir.Save(datasets); err != nil {
				logg.Error("fleet store save failed", "dir", *dataDir, "error", err)
				os.Exit(1)
			}
			logg.Info("fleet saved to store", "dir", *dataDir, "vehicles", len(datasets))
		}
	}

	base := vup.DefaultConfig()
	base.Algorithm = regress.AlgLasso // responsive default; override per request
	base.W = 120
	base.K = 12
	base.MaxLag = 28
	base.Stride = 5
	base.Channels = []string{canbus.ChanFuelRate, canbus.ChanEngineSpeed}

	start := time.Now()
	switch {
	case *lazyLoad:
		// Manifest-only boot: the roster comes from Open's manifest
		// read; no snapshot is decoded until a request asks for its
		// vehicle.
		store, err = server.NewLazyStore(dir.VehicleIDs(), dir.LoadVehicle, *residentBudget)
	case dir != nil:
		// A corrupt store stops the boot rather than falling back to a
		// regenerated fleet with different fingerprints.
		if datasets, _, err = dir.Load(); err == nil {
			store, err = server.NewStore(datasets)
		}
	default:
		store, err = server.NewStore(datasets)
	}
	if err != nil {
		logg.Error("store boot failed", "dir", *dataDir, "error", err)
		os.Exit(1)
	}
	logg.Info("store ready", "vehicles", store.Len(), "lazy", store.Lazy(), "resident_budget", *residentBudget, "took", time.Since(start).Round(time.Millisecond))
	if dir != nil {
		// Every Put snapshots the changed vehicle before it becomes
		// visible; a full compacting snapshot runs at shutdown. Ingested
		// batches take the cheaper path: one fsynced append-log record
		// per batch, replayed over the snapshot at the next boot — and
		// folded into the vehicle's snapshot once the backlog passes
		// -compact-threshold, so a long-ingesting vehicle never replays
		// an unbounded log.
		store.SetPersister(dir.SaveVehicle)
		store.SetAppender(dir.Append)
		if *compactEvery > 0 {
			threshold := *compactEvery
			store.SetCompactor(func(d *etl.VehicleDataset) (bool, error) {
				return dir.MaybeCompact(d, threshold)
			})
		}
	}
	api := server.New(store, base)
	api.Cache = server.NewForecastCache(*cacheSize)
	switch *ingestPolicy {
	case "zero":
		api.IngestPolicy = etl.MissingZero
	case "forward-fill":
		api.IngestPolicy = etl.MissingForwardFill
	case "interpolate":
		api.IngestPolicy = etl.MissingInterpolate
	default:
		logg.Error("unknown -ingest-policy", "policy", *ingestPolicy)
		os.Exit(1)
	}
	api.IngestConcurrency = *ingestConc
	logg.Info("forecast cache", "capacity", *cacheSize, "enabled", api.Cache.Enabled())
	if *traceBuffer > 0 {
		api.Traces = trace.NewCollector(trace.Options{
			Capacity:      *traceBuffer,
			SampleRate:    *traceSample,
			SlowThreshold: *traceSlow,
			Seed:          *seed,
		})
		logg.Info("request tracing", "buffer", *traceBuffer, "sample", *traceSample, "slow", *traceSlow)
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           api.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		// Evaluations retrain per window and can legitimately run for
		// minutes at stride 1; the write timeout bounds a wedged
		// client, not a slow handler.
		WriteTimeout: 5 * time.Minute,
		IdleTimeout:  2 * time.Minute,
	}

	var dbg *http.Server
	if *debugAddr != "" {
		dbg = newDebugServer(*debugAddr, api.Traces)
		go func() {
			logg.Info("debug endpoints listening", "addr", *debugAddr)
			if err := dbg.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				logg.Error("debug listener failed", "error", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() {
		logg.Info("listening", "addr", *addr)
		errCh <- srv.ListenAndServe()
	}()
	select {
	case err := <-errCh:
		if err != nil && err != http.ErrServerClosed {
			logg.Error("serve failed", "error", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		logg.Info("shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			logg.Error("shutdown failed", "error", err)
			os.Exit(1)
		}
		// The debug listener shares the process lifetime: shut it down
		// too instead of leaking it past the API server.
		if dbg != nil {
			if err := dbg.Shutdown(shutdownCtx); err != nil {
				logg.Error("debug shutdown failed", "error", err)
			}
		}
		if dir != nil {
			start := time.Now()
			if store.Lazy() {
				// A full Save would shrink the manifest to whatever
				// happens to be resident. Re-snapshot only the dirty
				// residents; every other vehicle's state is already
				// durable in its snapshot plus the append log.
				dirty := store.DirtyResidents()
				for _, d := range dirty {
					if err := dir.SaveVehicle(d); err != nil {
						logg.Error("shutdown snapshot failed", "vehicle", d.VehicleID, "error", err)
						os.Exit(1)
					}
				}
				logg.Info("dirty residents snapshotted", "dir", *dataDir, "vehicles", len(dirty), "took", time.Since(start).Round(time.Millisecond))
			} else {
				if _, err := dir.Save(store.Snapshot()); err != nil {
					logg.Error("shutdown snapshot failed", "dir", *dataDir, "error", err)
					os.Exit(1)
				}
				logg.Info("fleet snapshot written", "dir", *dataDir, "took", time.Since(start).Round(time.Millisecond))
			}
			if err := dir.Close(); err != nil {
				logg.Error("fleet store close failed", "dir", *dataDir, "error", err)
				os.Exit(1)
			}
		}
	}
}

// newDebugServer exposes the Go diagnostics endpoints — and, when
// tracing is enabled, the stored request traces — on their own
// listener so they never ride on the public API address.
func newDebugServer(addr string, traces *trace.Collector) *http.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	mux.Handle("GET /debug/vars", expvar.Handler())
	if traces != nil {
		mux.Handle("GET /debug/traces", traces.Handler())
		mux.Handle("GET /debug/traces/{id}", traces.Handler())
	}
	return &http.Server{
		Addr:              addr,
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		// CPU profiles stream for ?seconds=N; leave write headroom.
		WriteTimeout: 2 * time.Minute,
		IdleTimeout:  2 * time.Minute,
	}
}
