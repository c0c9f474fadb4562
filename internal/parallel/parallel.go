package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"vup/internal/obs"
)

// Pool telemetry: every job executed through ForEach/Map lands in
// these families, labeled by the caller-supplied stage (an experiment
// id such as "fig5b", or a pipeline stage such as "fleet_simulate").
// The per-stage wall-clock histogram is the raw material for the
// Section 4.5 speedup column: sum(sweep_job_seconds) over a stage is
// the sequential cost, the observed wall-clock is the parallel cost.
var (
	jobsInFlight = obs.Default.Gauge(
		"sweep_jobs_in_flight",
		"Jobs currently executing in bounded worker pools, by stage.",
		"stage")
	jobSeconds = obs.Default.Histogram(
		"sweep_job_seconds",
		"Per-job wall-clock time in bounded worker pools, by stage.",
		obs.DurationBuckets, "stage")
)

// Options bounds and labels one fan-out.
type Options struct {
	// Workers caps the number of concurrently executing jobs. Values
	// <= 0 select runtime.GOMAXPROCS(0): more workers than that could
	// never run at the same time. Workers=1 degenerates to a strictly
	// sequential in-order loop, which is the reference the determinism
	// tests compare parallel runs against.
	Workers int
	// Stage labels the pool's telemetry (sweep_jobs_in_flight,
	// sweep_job_seconds). Empty defaults to "pool".
	Stage string
}

// WorkerCount returns the number of workers ForEach starts for n
// jobs: Workers (or GOMAXPROCS when Workers <= 0), capped at n.
func (o Options) WorkerCount(n int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	return w
}

func (o Options) stage() string {
	if o.Stage == "" {
		return "pool"
	}
	return o.Stage
}

// ForEach runs fn(ctx, i) for every i in [0, n) on a bounded worker
// pool and blocks until all started jobs have returned.
//
// Contract:
//
//   - Jobs are handed out in index order; with Workers=1 the execution
//     order is exactly 0..n-1.
//   - fn must write any output it produces into pre-sized storage at
//     index i (never append from inside fn): results then assemble in
//     index order regardless of completion order, which is what keeps
//     Workers=1 and Workers=N byte-identical downstream.
//   - Any source of randomness must be derived (e.g. randx.Split) in a
//     fixed order before calling ForEach and passed in by index; fn
//     must not draw from a shared RNG.
//   - The first job error (lowest index among jobs that ran) cancels
//     the pool's context and is returned; jobs not yet started are
//     skipped. Errors that should not abort the fan-out (e.g. a
//     vehicle with too little data) must be recorded by index and nil
//     returned.
//   - A cancelled ctx stops the hand-out and returns ctx.Err() if no
//     job error occurred first.
func ForEach(ctx context.Context, n int, opts Options, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return nil
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	workers := opts.WorkerCount(n)
	stage := opts.stage()
	inFlight := jobsInFlight.With(stage)
	seconds := jobSeconds.With(stage)

	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || ctx.Err() != nil {
					return
				}
				inFlight.Inc()
				start := time.Now()
				err := fn(ctx, i)
				seconds.Observe(time.Since(start).Seconds())
				inFlight.Dec()
				if err != nil {
					errs[i] = err
					failed.Store(true)
					cancel()
				}
			}
		}()
	}
	wg.Wait()

	if failed.Load() {
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
	}
	return ctx.Err()
}

// Map runs fn(ctx, i) for every i in [0, n) on a bounded worker pool
// and returns the results in index order. The ForEach contract applies;
// on error the partial results are discarded.
func Map[T any](ctx context.Context, n int, opts Options, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEach(ctx, n, opts, func(ctx context.Context, i int) error {
		v, err := fn(ctx, i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
