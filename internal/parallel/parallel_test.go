package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"vup/internal/obs"
)

func TestForEachRunsEveryIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		n := 100
		seen := make([]int32, n)
		err := ForEach(context.Background(), n, Options{Workers: workers}, func(_ context.Context, i int) error {
			atomic.AddInt32(&seen[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	if err := ForEach(context.Background(), 0, Options{}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestForEachBoundsConcurrency(t *testing.T) {
	const workers = 3
	var inFlight, peak atomic.Int32
	err := ForEach(context.Background(), 50, Options{Workers: workers}, func(_ context.Context, i int) error {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		inFlight.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("peak concurrency %d > workers %d", p, workers)
	}
}

func TestForEachSequentialOrder(t *testing.T) {
	var order []int
	err := ForEach(context.Background(), 20, Options{Workers: 1}, func(_ context.Context, i int) error {
		order = append(order, i) // safe: Workers=1 is a sequential loop
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("sequential order broken: %v", order)
		}
	}
}

func TestForEachErrorCancels(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int32
	err := ForEach(context.Background(), 1000, Options{Workers: 2}, func(_ context.Context, i int) error {
		ran.Add(1)
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if n := ran.Load(); n >= 1000 {
		t.Errorf("error did not cancel the hand-out: %d jobs ran", n)
	}
}

func TestForEachFirstErrorByIndex(t *testing.T) {
	// With a sequential pool the error surfaced must be the lowest
	// failing index, regardless of how many jobs fail.
	err := ForEach(context.Background(), 10, Options{Workers: 1}, func(_ context.Context, i int) error {
		if i >= 4 {
			return fmt.Errorf("job %d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "job 4" {
		t.Fatalf("err = %v, want job 4", err)
	}
}

func TestForEachContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	err := ForEach(ctx, 1000, Options{Workers: 2}, func(_ context.Context, i int) error {
		if ran.Add(1) == 5 {
			cancel()
		}
		time.Sleep(100 * time.Microsecond)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n >= 1000 {
		t.Errorf("cancellation did not stop the hand-out: %d jobs ran", n)
	}
}

func TestMapOrderPreserved(t *testing.T) {
	for _, workers := range []int{1, 4, 0} {
		out, err := Map(context.Background(), 64, Options{Workers: workers}, func(_ context.Context, i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestMapError(t *testing.T) {
	boom := errors.New("boom")
	out, err := Map(context.Background(), 8, Options{Workers: 2}, func(_ context.Context, i int) (int, error) {
		if i == 2 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) || out != nil {
		t.Fatalf("out = %v, err = %v", out, err)
	}
}

func TestDefaultWorkers(t *testing.T) {
	o := Options{}
	procs := runtime.GOMAXPROCS(0)
	if got := o.WorkerCount(1 << 30); got != procs {
		t.Errorf("default workers = %d, want GOMAXPROCS %d", got, procs)
	}
	if got := o.WorkerCount(2); got != min(2, procs) {
		t.Errorf("workers not capped by n: %d", got)
	}
	o.Workers = 5
	if got := o.WorkerCount(100); got != 5 {
		t.Errorf("explicit workers = %d", got)
	}
}

// TestDefaultWorkersFollowGOMAXPROCS pins the default pool to the
// procs that can run Go code at once, not the host's CPU count: at
// GOMAXPROCS 1 the default pool is one worker running jobs in order,
// even when each job blocks and would let a second worker in.
func TestDefaultWorkersFollowGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if got := (Options{}).WorkerCount(8); got != 1 {
		t.Fatalf("WorkerCount(8) at GOMAXPROCS 1 = %d, want 1", got)
	}
	var inFlight, peak atomic.Int32
	order := make([]int, 0, 8)
	err := ForEach(context.Background(), 8, Options{}, func(_ context.Context, i int) error {
		cur := inFlight.Add(1)
		if cur > peak.Load() {
			peak.Store(cur)
		}
		order = append(order, i) // safe only if one worker runs
		time.Sleep(time.Millisecond)
		inFlight.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p != 1 {
		t.Errorf("peak concurrency %d, want 1 worker", p)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("jobs ran out of order: %v", order)
		}
	}
}

func TestPoolMetrics(t *testing.T) {
	const stage = "parallel_test_metrics"
	// The registry is process-wide and -cpu/-count rerun this test in
	// the same process, so the job count is checked as a delta.
	label := obs.Label{Name: "stage", Value: stage}
	before, _ := obs.FindSample(obs.Default.Gather(), "sweep_job_seconds", label)
	err := ForEach(context.Background(), 17, Options{Workers: 4, Stage: stage}, func(_ context.Context, i int) error {
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	families := obs.Default.Gather()
	s, ok := obs.FindSample(families, "sweep_job_seconds", label)
	if !ok {
		t.Fatal("sweep_job_seconds sample missing")
	}
	if got := s.Count - before.Count; got != 17 {
		t.Errorf("job count = %d, want 17", got)
	}
	g, ok := obs.FindSample(families, "sweep_jobs_in_flight", label)
	if !ok {
		t.Fatal("sweep_jobs_in_flight sample missing")
	}
	if g.Value != 0 {
		t.Errorf("jobs in flight after pool drained = %v", g.Value)
	}
}
