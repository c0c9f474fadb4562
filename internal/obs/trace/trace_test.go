package trace

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"vup/internal/obs"
)

// keepAll returns a collector that stores every completed trace.
func keepAll(t *testing.T) *Collector {
	t.Helper()
	return NewCollector(Options{SampleRate: 1, Seed: 1})
}

func TestStartWithoutTraceIsNoOp(t *testing.T) {
	ctx := context.Background()
	ctx2, sp := Start(ctx, "orphan")
	if sp.TraceID() != "" {
		t.Fatal("Start without an active trace returned a traced span")
	}
	if ctx2 != ctx {
		t.Fatal("Start without an active trace derived a new context")
	}
	// Every method of an untraced span must be callable.
	sp.SetAttr("k", "v")
	sp.SetAttrInt("n", 1)
	sp.SetError(errors.New("boom"))
	sp.End()
	if id := sp.TraceID(); id != "" {
		t.Fatalf("untraced span TraceID = %q", id)
	}
}

func TestSpanNesting(t *testing.T) {
	c := keepAll(t)
	ctx, root := c.StartTrace(context.Background(), "request")
	ctx1, child := Start(ctx, "cache")
	_, grand := Start(ctx1, "fit")
	grand.SetAttr("algorithm", "SVR")
	grand.End()
	child.End()
	_, sibling := Start(ctx, "predict")
	sibling.End()
	root.End()

	td, ok := c.Get(root.TraceID())
	if !ok {
		t.Fatal("trace not stored")
	}
	if td.Root != "request" || len(td.Spans) != 4 {
		t.Fatalf("root %q, %d spans; want request, 4", td.Root, len(td.Spans))
	}
	byName := map[string]SpanData{}
	for _, sd := range td.Spans {
		byName[sd.Name] = sd
	}
	if byName["request"].ParentID != "" {
		t.Errorf("root has parent %q", byName["request"].ParentID)
	}
	if byName["cache"].ParentID != byName["request"].SpanID {
		t.Errorf("cache parent = %q, want root %q", byName["cache"].ParentID, byName["request"].SpanID)
	}
	if byName["fit"].ParentID != byName["cache"].SpanID {
		t.Errorf("fit parent = %q, want cache %q", byName["fit"].ParentID, byName["cache"].SpanID)
	}
	if byName["predict"].ParentID != byName["request"].SpanID {
		t.Errorf("predict parent = %q, want root %q", byName["predict"].ParentID, byName["request"].SpanID)
	}
	if got := byName["fit"].Attrs; len(got) != 1 || got[0] != (Attr{Key: "algorithm", Value: "SVR"}) {
		t.Errorf("fit attrs = %v", got)
	}
	for _, sd := range td.Spans {
		if sd.Duration < 0 || sd.Offset < 0 {
			t.Errorf("span %s has negative timing: offset %v duration %v", sd.Name, sd.Offset, sd.Duration)
		}
	}
	if td.Duration < byName["fit"].Duration {
		t.Errorf("root duration %v shorter than child %v", td.Duration, byName["fit"].Duration)
	}
}

func TestTraceIDsDeterministicUnderSeed(t *testing.T) {
	ids := func(seed int64) []string {
		c := NewCollector(Options{SampleRate: 1, Seed: seed})
		var out []string
		for i := 0; i < 5; i++ {
			_, root := c.StartTrace(context.Background(), "r")
			out = append(out, root.TraceID())
			root.End()
		}
		return out
	}
	a, b := ids(42), ids(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace ID %d differs across equally seeded collectors: %s vs %s", i, a[i], b[i])
		}
	}
	other := ids(43)
	if a[0] == other[0] {
		t.Fatalf("different seeds produced the same first trace ID %s", a[0])
	}
	for _, id := range a {
		if len(id) != 16 {
			t.Fatalf("trace ID %q is not 16 hex digits", id)
		}
	}
}

func TestTailSamplingPolicy(t *testing.T) {
	// Negative rate: only errors and slow traces survive.
	c := NewCollector(Options{SampleRate: -1, SlowThreshold: 50 * time.Millisecond})

	_, fast := c.StartTrace(context.Background(), "fast-clean")
	fast.End()
	if _, ok := c.Get(fast.TraceID()); ok {
		t.Fatal("fast, clean trace kept despite negative sample rate")
	}

	ctx, errRoot := c.StartTrace(context.Background(), "errored")
	_, child := Start(ctx, "inner")
	child.SetError(errors.New("fit failed"))
	child.End()
	errRoot.End()
	td, ok := c.Get(errRoot.TraceID())
	if !ok {
		t.Fatal("errored trace dropped; errors must always be kept")
	}
	if td.Decision != DecisionError || td.Err != "fit failed" {
		t.Fatalf("decision %q err %q, want error/fit failed", td.Decision, td.Err)
	}

	_, slow := c.StartTrace(context.Background(), "slow")
	time.Sleep(60 * time.Millisecond)
	slow.End()
	td, ok = c.Get(slow.TraceID())
	if !ok {
		t.Fatal("slow trace dropped; traces over the threshold must always be kept")
	}
	if td.Decision != DecisionSlow {
		t.Fatalf("decision %q, want slow", td.Decision)
	}

	// Rate 1: everything is kept, fast and clean included.
	keep := NewCollector(Options{SampleRate: 1})
	_, r := keep.StartTrace(context.Background(), "fast-clean")
	r.End()
	td, ok = keep.Get(r.TraceID())
	if !ok {
		t.Fatal("trace dropped at sample rate 1")
	}
	if td.Decision != DecisionSampled {
		t.Fatalf("decision %q, want sampled", td.Decision)
	}
}

func TestRingBufferEvictionOrder(t *testing.T) {
	c := NewCollector(Options{Capacity: 3, SampleRate: 1})
	var ids []string
	for i := 0; i < 5; i++ {
		_, root := c.StartTrace(context.Background(), fmt.Sprintf("t%d", i))
		ids = append(ids, root.TraceID())
		root.End()
	}
	if c.Len() != 3 {
		t.Fatalf("stored %d traces, capacity 3", c.Len())
	}
	for _, old := range ids[:2] {
		if _, ok := c.Get(old); ok {
			t.Errorf("oldest trace %s survived eviction", old)
		}
	}
	got := c.Traces()
	if len(got) != 3 {
		t.Fatalf("Traces returned %d entries", len(got))
	}
	// Newest first: t4, t3, t2.
	for i, want := range []string{"t4", "t3", "t2"} {
		if got[i].Root != want {
			t.Errorf("Traces()[%d] = %s, want %s", i, got[i].Root, want)
		}
	}
}

func TestConcurrentSpans(t *testing.T) {
	c := keepAll(t)
	ctx, root := c.StartTrace(context.Background(), "fanout")
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				ctx2, sp := Start(ctx, "job")
				sp.SetAttrInt("worker", w)
				_, leaf := Start(ctx2, "leaf")
				leaf.End()
				sp.End()
			}
		}(w)
	}
	wg.Wait()
	root.End()
	td, ok := c.Get(root.TraceID())
	if !ok {
		t.Fatal("trace not stored")
	}
	if want := 1 + workers*50*2; len(td.Spans) != want {
		t.Fatalf("stored %d spans, want %d", len(td.Spans), want)
	}
	seen := map[string]bool{}
	for _, sd := range td.Spans {
		if seen[sd.SpanID] {
			t.Fatalf("duplicate span ID %s", sd.SpanID)
		}
		seen[sd.SpanID] = true
	}
}

func TestSpanAfterRootEndIsDropped(t *testing.T) {
	c := keepAll(t)
	ctx, root := c.StartTrace(context.Background(), "r")
	_, late := Start(ctx, "late")
	root.End()
	late.End() // after finalization: must not panic, must not mutate the stored trace
	td, ok := c.Get(root.TraceID())
	if !ok {
		t.Fatal("trace not stored")
	}
	if len(td.Spans) != 1 {
		t.Fatalf("late span leaked into the finalized trace: %d spans", len(td.Spans))
	}
}

func TestEndIdempotent(t *testing.T) {
	c := keepAll(t)
	_, root := c.StartTrace(context.Background(), "r")
	root.End()
	root.End()
	if c.Len() != 1 {
		t.Fatalf("double End stored %d traces", c.Len())
	}
}

func TestWaterfallRendering(t *testing.T) {
	c := keepAll(t)
	ctx, root := c.StartTrace(context.Background(), "GET /v1/vehicles/{id}/forecast")
	ctx1, lookup := Start(ctx, "cache.lookup")
	lookup.SetAttr("outcome", "miss")
	_, fit := Start(ctx1, "model.fit")
	fit.SetError(errors.New("singular matrix"))
	fit.End()
	lookup.End()
	root.End()

	td, _ := c.Get(root.TraceID())
	w := Waterfall(td)
	for _, want := range []string{
		"trace " + root.TraceID(),
		"kept: error",
		"cache.lookup outcome=miss",
		"model.fit",
		`!error="singular matrix"`,
		"3 spans",
	} {
		if !strings.Contains(w, want) {
			t.Errorf("waterfall missing %q:\n%s", want, w)
		}
	}
	// Depth indentation: model.fit sits two levels under the root.
	for _, line := range strings.Split(w, "\n") {
		if strings.Contains(line, "model.fit") && !strings.Contains(line, "    model.fit") {
			t.Errorf("model.fit not indented to depth 2: %q", line)
		}
	}
}

func TestNilCollector(t *testing.T) {
	var c *Collector
	ctx, sp := c.StartTrace(context.Background(), "r")
	if sp.TraceID() != "" {
		t.Fatal("nil collector produced a traced span")
	}
	if c.Len() != 0 || c.Traces() != nil {
		t.Fatal("nil collector holds traces")
	}
	if _, ok := c.Get("x"); ok {
		t.Fatal("nil collector resolved a trace")
	}
	_ = ctx
}

// spanSample reads span_seconds{name} from the process-wide registry.
func spanSample(name string) obs.Sample {
	s, _ := obs.FindSample(obs.Default.Gather(), "span_seconds", obs.Label{Name: "name", Value: name})
	return s
}

// TestSpanSeconds checks that spans time themselves into
// span_seconds{name} with or without a collector, that a traced span's
// bucket carries its trace ID as exemplar, and that a repeated End
// counts once in either mode.
func TestSpanSeconds(t *testing.T) {
	before := spanSample("test.untraced").Count
	_, sp := Start(context.Background(), "test.untraced")
	sp.End()
	if got := spanSample("test.untraced").Count - before; got != 1 {
		t.Fatalf("untraced span: span_seconds count +%d, want +1", got)
	}
	sp.End()
	if got := spanSample("test.untraced").Count - before; got != 1 {
		t.Fatalf("second End of an untraced span: count +%d, want +1", got)
	}

	c := keepAll(t)
	before = spanSample("test.traced").Count
	ctx, root := c.StartTrace(context.Background(), "test.root")
	_, child := Start(ctx, "test.traced")
	child.End()
	child.End()
	root.End()
	s := spanSample("test.traced")
	if got := s.Count - before; got != 1 {
		t.Fatalf("traced span ended twice: span_seconds count +%d, want +1", got)
	}
	var found bool
	for _, b := range s.Buckets {
		found = found || (b.Exemplar != nil && b.Exemplar.TraceID == root.TraceID())
	}
	if !found {
		t.Fatalf("no span_seconds{name=\"test.traced\"} bucket carries exemplar %s", root.TraceID())
	}
	if td, ok := c.Get(root.TraceID()); !ok || len(td.Spans) != 2 {
		t.Fatalf("trace stored %v with a double-ended child, want 2 spans", ok)
	}
}
