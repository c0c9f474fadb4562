package trace

import (
	"context"
	"testing"
)

// TestSpanDisabledAllocFree is the merge gate behind
// BenchmarkSpanDisabled: with no active trace, the span API must not
// allocate at all — the serving and evaluation hot paths call it
// unconditionally.
func TestSpanDisabledAllocFree(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		ctx2, sp := Start(ctx, "disabled")
		sp.SetAttr("k", "v")
		sp.SetError(nil)
		sp.End()
		_ = ctx2
	})
	if allocs != 0 {
		t.Fatalf("disabled span path allocates %.1f allocs/op, want 0", allocs)
	}
}

// BenchmarkSpanDisabled measures the untraced path: a Start that
// finds no active span and reads the clock, the no-op setters, and an
// End that reads the clock again and observes span_seconds.
// BENCH_trace.json records the result; TestSpanDisabledAllocFree keeps
// it at 0 allocs/op.
func BenchmarkSpanDisabled(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ctx2, sp := Start(ctx, "disabled")
		sp.SetAttr("k", "v")
		sp.End()
		_ = ctx2
	}
}

// BenchmarkSpanEnabled is the honest counterpart: one minimal trace
// (root + attributed child) per iteration, dropped by the sampler so
// the ring buffer stays out of the measurement.
func BenchmarkSpanEnabled(b *testing.B) {
	c := NewCollector(Options{SampleRate: -1, Capacity: 1})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ctx, root := c.StartTrace(context.Background(), "bench")
		_, sp := Start(ctx, "child")
		sp.SetAttr("k", "v")
		sp.End()
		root.End()
	}
}
