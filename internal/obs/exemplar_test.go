package obs

import (
	"strings"
	"testing"
)

func TestHistogramExemplars(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramWithExemplars("latency_seconds", "Latency.", []float64{0.1, 1}, "route")
	series := h.With("/v1/vehicles")
	for _, o := range []struct {
		v     float64
		trace string
	}{
		{0.05, "00000000000000aa"},
		{0.5, "00000000000000bb"},
		{0.7, "00000000000000cc"}, // same bucket: last writer wins
	} {
		series.Observe(o.v)
		series.ObserveExemplar(o.v, o.trace)
	}
	series.Observe(5) // +Inf bucket, no exemplar

	fams := r.Gather()
	s, ok := FindSample(fams, "latency_seconds", Label{Name: "route", Value: "/v1/vehicles"})
	if !ok {
		t.Fatal("sample not found")
	}
	if len(s.Buckets) != 3 {
		t.Fatalf("bucket count %d", len(s.Buckets))
	}
	if e := s.Buckets[0].Exemplar; e == nil || e.TraceID != "00000000000000aa" || e.Value != 0.05 {
		t.Errorf("bucket 0 exemplar = %+v", e)
	}
	if e := s.Buckets[1].Exemplar; e == nil || e.TraceID != "00000000000000cc" {
		t.Errorf("bucket 1 exemplar = %+v, want last writer cc", e)
	}
	if e := s.Buckets[2].Exemplar; e != nil {
		t.Errorf("+Inf bucket has exemplar %+v without an observation", e)
	}

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`latency_seconds_bucket{route="/v1/vehicles",le="0.1"} 1 # {trace_id="00000000000000aa"} 0.05`,
		`latency_seconds_bucket{route="/v1/vehicles",le="1"} 3 # {trace_id="00000000000000cc"} 0.7`,
		`latency_seconds_bucket{route="/v1/vehicles",le="+Inf"} 4` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

// TestExemplarOnlySetsExemplar pins ObserveExemplar as a pure setter:
// it counts nothing, and an empty trace ID stores nothing.
func TestExemplarOnlySetsExemplar(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramWithExemplars("latency_seconds", "Latency.", []float64{1}).With()
	h.ObserveExemplar(0.5, "00000000000000aa")
	h.ObserveExemplar(0.5, "")
	if h.Count() != 0 {
		t.Fatalf("count %d, want 0: ObserveExemplar must not count", h.Count())
	}
	_, _, buckets := h.snapshot()
	if e := buckets[0].Exemplar; e == nil || e.TraceID != "00000000000000aa" {
		t.Fatalf("bucket 0 exemplar = %+v, want aa (an empty trace ID replaces nothing)", e)
	}
	if buckets[1].Exemplar != nil {
		t.Fatalf("+Inf bucket has exemplar %+v", buckets[1].Exemplar)
	}
}

func TestPlainHistogramIgnoresExemplars(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("latency_seconds", "Latency.", []float64{1}).With()
	h.Observe(0.5)
	h.ObserveExemplar(0.5, "00000000000000aa") // family registered without exemplars
	if h.Count() != 1 {
		t.Fatalf("count %d", h.Count())
	}
	_, _, buckets := h.snapshot()
	for _, b := range buckets {
		if b.Exemplar != nil {
			t.Fatalf("plain histogram stored exemplar %+v", b.Exemplar)
		}
	}
}

func TestExemplarMismatchedReregistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Histogram("latency_seconds", "Latency.", []float64{1})
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering with exemplars did not panic")
		}
	}()
	r.HistogramWithExemplars("latency_seconds", "Latency.", []float64{1})
}
