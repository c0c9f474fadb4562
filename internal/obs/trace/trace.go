// Package trace is the request-scoped counterpart of package obs: a
// zero-dependency tracing subsystem whose spans propagate through
// context.Context, nest parent→child, carry attributes and errors, and
// measure monotonic durations. Completed traces land in a Collector —
// a bounded ring buffer behind a tail sampler that always keeps
// errored and slow traces — and are served as JSON summaries and text
// waterfalls at GET /debug/traces.
//
// Spans are also the process's only stage timer. Every span times
// itself whether or not a trace is being collected, and End records
// the duration into the span_seconds{name} histogram on obs.Default,
// with the trace ID as the bucket's exemplar when the span is traced.
// The histogram answers "are fits slow"; a trace answers "which
// vehicle, which window, which config". Trace IDs are drawn from
// internal/randx, so a seeded Collector emits a reproducible ID stream
// and tests can assert on exact IDs.
//
// When no trace is active — no Collector configured, or the request
// was not started under Collector.StartTrace — a span is a small value
// holding its name and start time: Start returns its context unchanged,
// the attribute and error setters are no-ops, and End reads the clock
// and observes the histogram without allocating.
// TestSpanDisabledAllocFree pins this at 0 allocs/op.
package trace

import (
	"context"
	"maps"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"vup/internal/obs"
)

// Attr is one span attribute: a low-cardinality key with a
// request-specific value (vehicle ID, algorithm, cache outcome).
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// SpanData is one completed span as stored in a trace: identity,
// position in the tree, offset from the trace start and monotonic
// duration.
type SpanData struct {
	SpanID   string        `json:"span_id"`
	ParentID string        `json:"parent_id,omitempty"`
	Name     string        `json:"name"`
	Offset   time.Duration `json:"offset_ns"`
	Duration time.Duration `json:"duration_ns"`
	Attrs    []Attr        `json:"attrs,omitempty"`
	Err      string        `json:"error,omitempty"`
}

// epoch anchors the span clock. time.Since on a reading that carries
// the monotonic clock reads only that clock, about half the cost of
// time.Now, so spans keep their start as an offset from epoch.
var epoch = time.Now()

// monotonic returns the time elapsed since epoch.
func monotonic() time.Duration { return time.Since(epoch) }

// spanSeconds times every ended span by name. Span names are fixed
// strings at their call sites (the root span's is "METHOD route"), so
// the label stays low-cardinality.
var spanSeconds = obs.Default.HistogramWithExemplars(
	"span_seconds",
	"Span durations by span name, traced or not; a bucket's exemplar is the trace ID of its last traced span.",
	obs.DurationBuckets, "name")

// spanHists caches the span_seconds child of each name seen so far, so
// End resolves its histogram with one atomic load and a map read. A
// new name copies the map under spanHistsMu.
var (
	spanHists   atomic.Pointer[map[string]*obs.Histogram]
	spanHistsMu sync.Mutex
)

func init() { spanHists.Store(&map[string]*obs.Histogram{}) }

// histogramFor returns span_seconds{name}.
func histogramFor(name string) *obs.Histogram {
	if h, ok := (*spanHists.Load())[name]; ok {
		return h
	}
	spanHistsMu.Lock()
	defer spanHistsMu.Unlock()
	next := maps.Clone(*spanHists.Load())
	h, ok := next[name]
	if !ok {
		h = spanSeconds.With(name)
		next[name] = h
		spanHists.Store(&next)
	}
	return h
}

// spanKey carries the active traced span through a context.
type spanKey struct{}

// Start opens a span named name and, when the context carries a traced
// span, makes it that span's child and returns a derived context
// carrying it. Without an active trace (tracing disabled, or the caller
// is not under StartTrace) it returns ctx unchanged and an untraced
// span that only times itself, without allocating — the instrumented
// code needs no enabled-check of its own.
func Start(ctx context.Context, name string) (context.Context, Span) {
	sp := Span{name: name, start: monotonic()}
	parent, _ := ctx.Value(spanKey{}).(*span)
	if parent == nil {
		return ctx, sp
	}
	sp.t = &span{tr: parent.tr, spanID: parent.tr.nextSpanID(), parentID: parent.spanID}
	return context.WithValue(ctx, spanKey{}, sp.t), sp
}

// Span is one in-progress operation, handed out by value. End belongs
// to the goroutine that started the span; the setters of a traced span
// are safe for concurrent use.
type Span struct {
	t     *span // the traced half; nil when no trace is collected
	name  string
	start time.Duration // monotonic() at Start
	ended bool
}

// span is the traced half of a Span: its place in the tree and what it
// records into the trace.
type span struct {
	tr       *activeTrace
	spanID   string
	parentID string

	mu    sync.Mutex
	attrs []Attr
	err   string
	ended bool
}

// TraceID returns the ID of the trace this span belongs to, "" on an
// untraced span.
func (s *Span) TraceID() string {
	if s.t == nil {
		return ""
	}
	return s.t.tr.traceID
}

// SetAttr attaches a key/value attribute to a traced span. Later
// values for the same key append rather than replace; the waterfall
// prints them in order.
func (s *Span) SetAttr(key, value string) {
	if s.t == nil {
		return
	}
	s.t.mu.Lock()
	if !s.t.ended {
		s.t.attrs = append(s.t.attrs, Attr{Key: key, Value: value})
	}
	s.t.mu.Unlock()
}

// SetAttrInt attaches an integer attribute to a traced span.
func (s *Span) SetAttrInt(key string, value int) {
	if s.t == nil {
		return
	}
	s.SetAttr(key, strconv.Itoa(value))
}

// SetError marks a traced span failed. A nil err is ignored, so call
// sites can record unconditionally. An errored span forces its whole
// trace through the tail sampler's always-keep path.
func (s *Span) SetError(err error) {
	if s.t == nil || err == nil {
		return
	}
	s.t.mu.Lock()
	if !s.t.ended && s.t.err == "" {
		s.t.err = err.Error()
	}
	s.t.mu.Unlock()
}

// End completes the span: its monotonic duration goes into
// span_seconds{name} and, when traced, into the trace. Ending the root
// span finalizes the trace and submits it to the collector's tail
// sampler; spans ended after their root are dropped from the trace.
// End is idempotent.
func (s *Span) End() {
	if s.ended {
		return
	}
	s.ended = true
	dur := monotonic() - s.start
	traceID := ""
	if t := s.t; t != nil {
		traceID = t.tr.traceID
		t.mu.Lock()
		t.ended = true
		attrs, errMsg := t.attrs, t.err
		t.mu.Unlock()
		t.tr.finish(SpanData{
			SpanID:   t.spanID,
			ParentID: t.parentID,
			Name:     s.name,
			Offset:   s.start - t.tr.start,
			Duration: dur,
			Attrs:    attrs,
			Err:      errMsg,
		}, t.parentID == "")
	}
	histogramFor(s.name).ObserveExemplar(dur.Seconds(), traceID)
}

// activeTrace accumulates the finished spans of one trace until its
// root span ends. Spans may finish concurrently (fleet fan-outs end
// per-vehicle spans on pool workers), so the accumulator is locked.
type activeTrace struct {
	c       *Collector
	traceID string
	start   time.Duration // monotonic() at the root's start, anchors span offsets
	wall    time.Time     // wall-clock start for display
	nextID  atomic.Uint64

	mu    sync.Mutex
	spans []SpanData
	err   string // first span error, drives the keep-errors policy
	done  bool
}

// nextSpanID hands out span IDs from a per-trace counter: cheap,
// lock-free and unique within the trace. Assignment order under
// concurrency follows scheduling, which is why determinism is claimed
// for trace IDs (drawn from the seeded collector stream), not span
// IDs.
func (a *activeTrace) nextSpanID() string {
	return strconv.FormatUint(a.nextID.Add(1), 10)
}

func (a *activeTrace) finish(sd SpanData, root bool) {
	a.mu.Lock()
	if a.done {
		a.mu.Unlock()
		return
	}
	a.spans = append(a.spans, sd)
	if sd.Err != "" && a.err == "" {
		a.err = sd.Err
	}
	if !root {
		a.mu.Unlock()
		return
	}
	a.done = true
	spans, errMsg := a.spans, a.err
	a.mu.Unlock()
	a.c.submit(a, sd.Name, spans, sd.Duration, errMsg)
}
