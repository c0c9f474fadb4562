package server

import (
	"bufio"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"

	"vup/internal/core"
	"vup/internal/obs"
)

// requestsDelta snapshots http_requests_total for one route/status
// pair; tests on the shared Default registry assert deltas.
func requestsSample(route, status string) uint64 {
	s, _ := obs.FindSample(obs.Default.Gather(), "http_requests_total",
		obs.Label{Name: "route", Value: route},
		obs.Label{Name: "status", Value: status})
	return uint64(s.Value)
}

// sampleLine matches one Prometheus text-format sample line, with an
// optional OpenMetrics exemplar suffix on histogram buckets.
var sampleLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? ` +
		`(NaN|[+-]?Inf|[+-]?[0-9.eE+-]+)( # \{trace_id="[^"]*"\} (NaN|[+-]?Inf|[+-]?[0-9.eE+-]+))?$`)

func TestMetricsEndpoint(t *testing.T) {
	_, srv := testAPI(t)
	// Generate traffic in each status class first.
	for _, url := range []string{
		srv.URL + "/healthz",                                 // 200
		srv.URL + "/v1/vehicles/ZZZ",                         // 404
		srv.URL + "/v1/vehicles/veh-0000/forecast?alg=bogus", // 400
		srv.URL + "/v1/vehicles/veh-0000/forecast",           // 200, fits a model
	} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Errorf("content type %q, want %q", ct, obs.ContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)

	// Every line must be a comment or a parseable sample.
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !sampleLine.MatchString(line) {
			t.Errorf("unparseable exposition line: %q", line)
		}
	}
	for _, want := range []string{
		`http_requests_total{route="/healthz",status="2xx"}`,
		`http_requests_total{route="/v1/vehicles/{id}",status="4xx"}`,
		`http_requests_total{route="/v1/vehicles/{id}/forecast",status="4xx"}`,
		`span_seconds_bucket{name="GET /healthz",le="+Inf"}`,
		"http_requests_in_flight",
		"server_write_errors_total",
		`span_seconds_bucket{name="model.fit",le="+Inf"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestStatusClassLabels(t *testing.T) {
	_, srv := testAPI(t)
	cases := []struct {
		path   string
		status int
		route  string
		class  string
	}{
		{"/healthz", http.StatusOK, "/healthz", "2xx"},
		{"/v1/vehicles/veh-0000/forecast?alg=bogus", http.StatusBadRequest, "/v1/vehicles/{id}/forecast", "4xx"},
		{"/v1/vehicles/no-such-vehicle", http.StatusNotFound, "/v1/vehicles/{id}", "4xx"},
	}
	for _, tc := range cases {
		before := requestsSample(tc.route, tc.class)
		resp, err := http.Get(srv.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Fatalf("GET %s: status %d, want %d", tc.path, resp.StatusCode, tc.status)
		}
		if got := requestsSample(tc.route, tc.class); got != before+1 {
			t.Errorf("GET %s: counter{route=%q,status=%q} went %d -> %d, want +1",
				tc.path, tc.route, tc.class, before, got)
		}
	}
}

func TestStatusClass(t *testing.T) {
	cases := map[int]string{200: "2xx", 204: "2xx", 301: "3xx", 404: "4xx", 500: "5xx", 42: "other"}
	for code, want := range cases {
		if got := statusClass(code); got != want {
			t.Errorf("statusClass(%d) = %q, want %q", code, got, want)
		}
	}
}

// TestMiddlewareConcurrent hammers an instrumented route from many
// goroutines; with -race this also proves the registry hot path is
// data-race free end to end.
func TestMiddlewareConcurrent(t *testing.T) {
	_, srv := testAPI(t)
	const workers, per = 10, 10
	before := requestsSample("/healthz", "2xx")
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				resp, err := http.Get(srv.URL + "/healthz")
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	if got := requestsSample("/healthz", "2xx"); got != before+workers*per {
		t.Errorf("counter went %d -> %d, want +%d", before, got, workers*per)
	}
	hist, ok := obs.FindSample(obs.Default.Gather(), "span_seconds",
		obs.Label{Name: "name", Value: "GET /healthz"})
	if !ok || hist.Count < workers*per {
		t.Errorf("latency histogram count %d, want >= %d", hist.Count, workers*per)
	}
	if inflight, _ := obs.FindSample(obs.Default.Gather(), "http_requests_in_flight"); inflight.Value != 0 {
		t.Errorf("in-flight gauge stuck at %v after drain", inflight.Value)
	}
}

// BenchmarkMiddleware measures the pure instrumentation overhead per
// request: the wrapped handler is a no-op, so everything measured is
// the middleware: its counters and the root span's clock reads and
// histogram observe.
func BenchmarkMiddleware(b *testing.B) {
	a := New(&Store{}, core.DefaultConfig())
	h := a.instrument("/bench", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	req := httptest.NewRequest("GET", "/bench", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(httptest.NewRecorder(), req)
	}
}
