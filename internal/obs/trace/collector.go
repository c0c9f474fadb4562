package trace

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"vup/internal/obs"
	"vup/internal/randx"
)

// Tail-sampler telemetry on the process-wide registry, next to the
// metrics the traces explain.
var (
	tracesKept = obs.Default.Counter(
		"traces_kept_total",
		"Completed traces kept by the tail sampler, by decision (error, slow, sampled).",
		"decision")
	tracesDropped = obs.Default.Counter(
		"traces_dropped_total",
		"Completed traces dropped by the tail sampler.")
	traceStoreEntries = obs.Default.Gauge(
		"trace_store_entries",
		"Traces currently held in the ring buffer behind /debug/traces.")
)

// The tail sampler's keep decisions, recorded on each stored trace.
const (
	DecisionError   = "error"   // a span recorded an error
	DecisionSlow    = "slow"    // root duration reached SlowThreshold
	DecisionSampled = "sampled" // probabilistic keep of a fast, clean trace
)

// TraceData is one completed, stored trace.
type TraceData struct {
	TraceID string `json:"trace_id"`
	// Root is the root span's name (e.g. "GET /v1/vehicles/{id}/forecast").
	Root string `json:"root"`
	// Start is the wall-clock trace start; span offsets and Duration
	// are monotonic.
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	// Err is the first error any span recorded, "" when clean.
	Err string `json:"error,omitempty"`
	// Decision is why the tail sampler kept this trace.
	Decision string `json:"decision"`
	// Spans are sorted by offset (ties by span ID), root first.
	Spans []SpanData `json:"spans"`
}

// Options configures a Collector. Zero fields take the documented
// defaults; to keep every trace set SampleRate to 1, to keep only
// errored and slow traces set it negative.
type Options struct {
	// Capacity bounds the ring buffer of stored traces (default 128).
	Capacity int
	// SlowThreshold is the root latency at or above which a trace is
	// always kept (default 100ms).
	SlowThreshold time.Duration
	// SampleRate is the probability of keeping a fast, error-free
	// trace (default 0.1; values >= 1 keep everything, negative values
	// keep nothing beyond errors and slow traces).
	SampleRate float64
	// Seed seeds the randx stream behind trace IDs and sampling
	// decisions (default 1). Equal seeds give identical ID sequences.
	Seed int64
}

// Collector owns ID generation, the tail-sampling policy and the
// bounded ring buffer of kept traces. All methods are safe for
// concurrent use; a nil *Collector collects no traces, and its spans
// only time themselves.
type Collector struct {
	slow time.Duration
	rate float64

	mu    sync.Mutex
	rng   *randx.RNG // trace IDs + sampling draws
	buf   []*TraceData
	head  int // index of the oldest stored trace
	count int
}

// NewCollector builds a collector with the given options.
func NewCollector(o Options) *Collector {
	if o.Capacity <= 0 {
		o.Capacity = 128
	}
	if o.SlowThreshold == 0 {
		o.SlowThreshold = 100 * time.Millisecond
	}
	if o.SampleRate == 0 {
		o.SampleRate = 0.1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return &Collector{
		slow: o.SlowThreshold,
		rate: o.SampleRate,
		rng:  randx.New(o.Seed),
		buf:  make([]*TraceData, o.Capacity),
	}
}

// StartTrace opens a root span and returns a context carrying it;
// Start calls below that context create its children. On a nil
// collector it returns ctx unchanged and an untraced span, which still
// times itself into span_seconds.
func (c *Collector) StartTrace(ctx context.Context, name string) (context.Context, Span) {
	sp := Span{name: name, start: monotonic()}
	if c == nil {
		return ctx, sp
	}
	tr := &activeTrace{c: c, traceID: c.newTraceID(), start: sp.start, wall: time.Now()}
	sp.t = &span{tr: tr, spanID: tr.nextSpanID()}
	return context.WithValue(ctx, spanKey{}, sp.t), sp
}

// newTraceID draws a 64-bit ID from the seeded stream, rendered as 16
// hex digits.
func (c *Collector) newTraceID() string {
	c.mu.Lock()
	id := c.rng.Int63()
	c.mu.Unlock()
	return fmt.Sprintf("%016x", uint64(id))
}

// submit runs the tail-sampling policy on one completed trace and
// stores it in the ring buffer when kept: errors always, slow roots
// always, the rest with probability SampleRate.
func (c *Collector) submit(a *activeTrace, root string, spans []SpanData, dur time.Duration, errMsg string) {
	c.mu.Lock()
	decision := ""
	switch {
	case errMsg != "":
		decision = DecisionError
	case dur >= c.slow:
		decision = DecisionSlow
	case c.rng.Float64() < c.rate:
		decision = DecisionSampled
	}
	if decision == "" {
		c.mu.Unlock()
		tracesDropped.With().Inc()
		return
	}
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Offset < spans[j].Offset })
	td := &TraceData{
		TraceID:  a.traceID,
		Root:     root,
		Start:    a.wall,
		Duration: dur,
		Err:      errMsg,
		Decision: decision,
		Spans:    spans,
	}
	if c.count < len(c.buf) {
		c.buf[(c.head+c.count)%len(c.buf)] = td
		c.count++
	} else {
		// Full: overwrite the oldest and advance the ring.
		c.buf[c.head] = td
		c.head = (c.head + 1) % len(c.buf)
	}
	entries := c.count
	c.mu.Unlock()
	tracesKept.With(decision).Inc()
	traceStoreEntries.With().Set(float64(entries))
}

// Traces snapshots the stored traces, newest first.
func (c *Collector) Traces() []*TraceData {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*TraceData, 0, c.count)
	for i := c.count - 1; i >= 0; i-- {
		out = append(out, c.buf[(c.head+i)%len(c.buf)])
	}
	return out
}

// Get returns the stored trace with the given ID.
func (c *Collector) Get(traceID string) (*TraceData, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := 0; i < c.count; i++ {
		if td := c.buf[(c.head+i)%len(c.buf)]; td.TraceID == traceID {
			return td, true
		}
	}
	return nil, false
}

// Len returns the number of stored traces.
func (c *Collector) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.count
}
