package experiments

import (
	"context"
	"testing"
)

// The sweep benchmark pair anchors the parallel-engine perf
// trajectory: fig5b is the heaviest registered sweep shape (six
// algorithms × EvalVehicles vehicles, each a full rolling-window
// evaluation), run once sequentially and once at full width. On an
// N-core runner the parallel case should approach N× until the fleet
// is exhausted; BENCH_sweep.json holds the committed baseline.
func benchmarkSweep(b *testing.B, workers int) {
	cfg := Tiny()
	cfg.Workers = workers
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunContext(context.Background(), "fig5b", cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSweepSequential(b *testing.B) { benchmarkSweep(b, 1) }

func BenchmarkSweepParallel(b *testing.B) { benchmarkSweep(b, 0) }
