package obs

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Exemplar links one histogram observation to the trace that produced
// it, so a slow bucket on a dashboard resolves to a concrete stored
// trace at /debug/traces/{trace_id}.
type Exemplar struct {
	TraceID string
	Value   float64
}

// Histogram counts observations into fixed buckets. Observe is
// lock-free: one atomic add into the containing bucket, one into the
// total count and a CAS loop on the float64 sum. Snapshots taken
// concurrently with observations are not a consistent cut (count, sum
// and buckets may be a few observations apart), which is the standard
// scrape-time trade-off and fine for monitoring.
//
// Families registered with HistogramWithExemplars additionally retain
// one exemplar per bucket, set by ObserveExemplar (one atomic pointer
// swap; last-writer-wins is the standard exemplar semantics).
type Histogram struct {
	upper     []float64       // sorted finite upper bounds
	counts    []atomic.Uint64 // len(upper)+1; the last is the +Inf bucket
	exemplars []atomic.Pointer[Exemplar]
	count     atomic.Uint64
	sumBits   atomic.Uint64
}

func newHistogram(upper []float64, exemplars bool) *Histogram {
	h := &Histogram{
		upper:  upper,
		counts: make([]atomic.Uint64, len(upper)+1),
	}
	if exemplars {
		h.exemplars = make([]atomic.Pointer[Exemplar], len(upper)+1)
	}
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// First bucket whose upper bound is >= v; falls through to +Inf.
	i := sort.SearchFloat64s(h.upper, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveExemplar makes trace traceID the exemplar of the bucket v
// falls in, when the family was registered with HistogramWithExemplars
// and traceID is non-empty. It does not count v: the observation
// itself is recorded by Observe, and the exemplar is attached only once
// the trace it names is known to be kept, so that every exemplar
// resolves to a stored trace.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	if h.exemplars == nil || traceID == "" {
		return
	}
	i := sort.SearchFloat64s(h.upper, v)
	h.exemplars[i].Store(&Exemplar{TraceID: traceID, Value: v})
}

// ObserveSince records the seconds elapsed since start — the standard
// stage-timer idiom: defer h.ObserveSince(time.Now()) does not work
// (the argument is evaluated immediately), so call sites capture start
// first.
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(time.Since(start).Seconds())
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// snapshot returns the cumulative bucket view used by Gather.
func (h *Histogram) snapshot() (count uint64, sum float64, buckets []Bucket) {
	buckets = make([]Bucket, len(h.counts))
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		upper := math.Inf(1)
		if i < len(h.upper) {
			upper = h.upper[i]
		}
		buckets[i] = Bucket{Upper: upper, Count: cum}
		if h.exemplars != nil {
			buckets[i].Exemplar = h.exemplars[i].Load()
		}
	}
	return h.count.Load(), h.Sum(), buckets
}
