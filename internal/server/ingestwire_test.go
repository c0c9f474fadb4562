package server

// The ingest scanner against its reference: every body must be refused
// by both the scanner and encoding/json, or decoded by both into the
// same reports and summarized into the same days, bit for bit.

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"maps"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"testing"
	"time"

	"vup/internal/canbus"
	"vup/internal/etl"
	"vup/internal/fleet"
	"vup/internal/randx"
	"vup/internal/telematics"
)

// scanIngest runs the scanner the way the handler does, under the cap.
func scanIngest(d *etl.VehicleDataset, body []byte) (*ingestBatch, error) {
	return decodeIngest(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), maxIngestBody), d)
}

// decodeBoth fails t unless the scanner and refDecodeIngest agree on
// body. It returns the accepted report count, or -1 for a body the
// handler answers with 400.
func decodeBoth(t testing.TB, d *etl.VehicleDataset, body []byte) int {
	t.Helper()
	ref, refErr := refDecodeIngest(bytes.NewReader(body))
	b, err := scanIngest(d, body)
	if (err != nil) != (refErr != nil) {
		t.Fatalf("scanner error %v, encoding/json error %v, body %q", err, refErr, clip(body))
	}
	if err != nil {
		return -1
	}
	defer b.release()
	if b.n != len(ref) {
		t.Fatalf("scanner decoded %d reports, encoding/json %d, body %q", b.n, len(ref), clip(body))
	}
	for i, want := range ref {
		got := b.reports[i]
		if !got.start.Equal(want.Start) || math.Float64bits(got.engineOn) != math.Float64bits(want.EngineOnSeconds) {
			t.Fatalf("report %d: scanner start %v engine-on %v, encoding/json %v %v, body %q",
				i, got.start, got.engineOn, want.Start, want.EngineOnSeconds, clip(body))
		}
		for j, name := range b.names {
			var ch batchChannel
			if got.chans >= 0 {
				ch = b.chans[got.chans+j]
			}
			w := want.Channels[name]
			if ch.samples != w.Samples || math.Float64bits(ch.mean) != math.Float64bits(w.Mean) {
				t.Fatalf("report %d channel %s: scanner %+v, encoding/json %+v, body %q", i, name, ch, w, clip(body))
			}
		}
	}
	if b.n == 0 {
		return -1 // "ingest body has no reports"
	}
	days, span, accepted, reasons := summarizeReports(d, b)
	wantDays, wantSpan, wantAccepted, wantReasons := refSummarize(d, ref)
	if span != wantSpan || accepted != wantAccepted || !maps.Equal(reasons, wantReasons) || len(days) != len(wantDays) {
		t.Fatalf("scanner span %d accepted %d %v, %d days; reference span %d accepted %d %v, %d days; body %q",
			span, accepted, reasons, len(days), wantSpan, wantAccepted, wantReasons, len(wantDays), clip(body))
	}
	for k, want := range wantDays {
		got := days[k]
		same := got.Date.Equal(want.Date) && got.Observed == want.Observed &&
			math.Float64bits(got.Hours) == math.Float64bits(want.Hours) && len(got.Channels) == len(want.Channels)
		for name, v := range want.Channels {
			g, ok := got.Channels[name]
			same = same && ok && math.Float64bits(g) == math.Float64bits(v)
		}
		if !same {
			t.Fatalf("day %d: scanner %+v, reference %+v, body %q", k, got, want, clip(body))
		}
	}
	return accepted
}

func clip(body []byte) []byte {
	if len(body) > 300 {
		return body[:300]
	}
	return body
}

// quirkCase is one wire rule: a body and the reports it gets accepted,
// or -1 for a 400.
type quirkCase struct {
	name string
	body string
	want int
}

// quirkCases covers every rule the scanner shares with encoding/json.
// In the bodies $T and $T2 stand for report starts on the first and
// second day after d's series, $C for one of d's channels, $FF for a
// byte of invalid UTF-8, $999 and $000 for 308 nines or zeros, $0001
// for 308 zeros and a one.
func quirkCases(d *etl.VehicleDataset) []quirkCase {
	next := d.Date(d.Len()-1).AddDate(0, 0, 1)
	ch := canbus.ChanFuelRate
	r := strings.NewReplacer(
		"$T2", next.Add(24*time.Hour+8*time.Hour).Format(time.RFC3339),
		"$T", next.Add(8*time.Hour).Format(time.RFC3339),
		"$CU", strings.ToUpper(ch),
		"$Cesc", strings.ReplaceAll(ch, "_", `\u005f`),
		"$C", ch,
		"$FF", "\xff",
		"$999", strings.Repeat("9", 308),
		"$000", strings.Repeat("0", 308),
		"$0001", strings.Repeat("0", 308)+"1")
	cases := []quirkCase{
		{"plain", `{"reports":[{"start":"$T","engine_on_seconds":600,"channels":{"$C":{"samples":60,"mean":5,"min":1,"max":9}}}]}`, 1},
		{"whitespace", " \t\r\n{ \"reports\" : [ { \"start\" : \"$T\" , \"channels\" : { \"$C\" : { \"samples\" : 6 } } } ] } ", 1},
		{"field names fold case", `{"REPORTS":[{"Start":"$T","ENGINE_ON_SECONDS":600,"Channels":{"$C":{"SAMPLES":60,"Mean":5}}}]}`, 1},
		{"field names fold long s", `{"reports":[{"ſtart":"$T","engine_on_ſeconds":600,"channelſ":{"$C":{"ſamples":60,"mean":5}}}]}`, 1},
		{"channel names are exact", `{"reports":[{"start":"$T","channels":{"$CU":{"samples":60,"mean":5}}}]}`, 1},
		{"escaped keys", `{"report\u0073":[{"\u0073tart":"$T","channels":{"$Cesc":{"samples":60,"mean":5}}}]}`, 1},
		{"invalid UTF-8 and lone surrogates in keys", `{"reports":[{"start":"$T","channels":{"$C$FF":{"samples":1},"$C\ud800":{"samples":2},"\udc00\ud800$C":{"samples":3}}}]}`, 1},
		{"unknown fields skipped", `{"v":1,"reports":[{"start":"$T","x":{"y":[1,-2.5e+3,true,false,null,"s\n\"\\\/\b\f\r\té$FF",{}]},"channels":{"$C":{"samples":6,"unit":"l/h"}}}],"z":[]}`, 1},
		{"unknown field syntax checked", `{"reports":[{"start":"$T"}],"z":[1,]}`, -1},
		{"unknown field bad escape", `{"reports":[{"start":"$T"}],"z":"\x"}`, -1},
		{"unknown field short unicode escape", `{"reports":[{"start":"$T"}],"z":"\u12"}`, -1},
		{"unknown field control character", "{\"reports\":[{\"start\":\"$T\"}],\"z\":\"a\x01\"}", -1},
		{"unknown field bad literal", `{"reports":[{"start":"$T"}],"z":nul}`, -1},
		{"duplicate scalar last wins", `{"reports":[{"start":"2001-01-01T00:00:00Z","start":"$T","engine_on_seconds":100,"engine_on_seconds":200}]}`, 1},
		{"duplicate channels merge", `{"reports":[{"start":"$T","channels":{"$C":{"samples":60,"mean":5}},"channels":{"other":{"samples":1}}}]}`, 1},
		{"duplicate channel name replaces whole", `{"reports":[{"start":"$T","channels":{"$C":{"samples":60,"mean":5},"$C":{"mean":7}}}]}`, 1},
		{"duplicate reports decode in place", `{"reports":[{"start":"$T","engine_on_seconds":100},{"start":"$T"}],"reports":[{"engine_on_seconds":300}]}`, 1},
		{"cut-off report comes back", `{"reports":[{"start":"$T"},{"start":"$T2","engine_on_seconds":60}],"reports":[{}],"reports":[null,null,{}]}`, 2},
		{"null reports clears", `{"reports":[{"start":"$T"}],"reports":null}`, -1},
		{"empty reports clears", `{"reports":[{"start":"$T"},{"start":"$T"}],"reports":[],"reports":[null,null]}`, 0},
		{"null body", `null`, -1},
		{"empty body object", `{}`, -1},
		{"null report is a zero report", `{"reports":[null,{"start":"$T"}]}`, 1},
		{"null fields are no-ops", `{"reports":[{"start":"$T","start":null,"engine_on_seconds":60,"engine_on_seconds":null,"channels":{"$C":{"samples":60,"mean":5,"samples":null,"mean":null,"min":null}}}]}`, 1},
		{"null channels clears", `{"reports":[{"start":"$T","channels":{"$C":{"samples":60,"mean":5}},"channels":null}]}`, 1},
		{"null channel value is zero", `{"reports":[{"start":"$T","channels":{"$C":{"samples":60,"mean":5},"$C":null}}]}`, 1},
		{"samples negative zero", `{"reports":[{"start":"$T","channels":{"$C":{"samples":-0,"mean":5}}}]}`, 1},
		{"samples past 32 bits", `{"reports":[{"start":"$T","channels":{"$C":{"samples":3000000000,"mean":5}}}]}`, 1},
		{"samples with fraction", `{"reports":[{"start":"$T","channels":{"$C":{"samples":60.0}}}]}`, -1},
		{"samples with exponent", `{"reports":[{"start":"$T","channels":{"$C":{"samples":6e1}}}]}`, -1},
		{"samples out of range", `{"reports":[{"start":"$T","channels":{"$C":{"samples":99999999999999999999}}}]}`, -1},
		{"samples on an unused channel still checked", `{"reports":[{"start":"$T","channels":{"other":{"samples":1.5}}}]}`, -1},
		{"mean out of range", `{"reports":[{"start":"$T","channels":{"$C":{"samples":1,"mean":1e400}}}]}`, -1},
		{"max out of range", `{"reports":[{"start":"$T","channels":{"$C":{"max":-1e309}}}]}`, -1},
		{"max of 308 digits", `{"reports":[{"start":"$T","channels":{"$C":{"max":$999}}}]}`, 1},
		{"max 1e308 written out", `{"reports":[{"start":"$T","channels":{"$C":{"max":1$000}}}]}`, 1},
		{"max 1e309 written out", `{"reports":[{"start":"$T","channels":{"$C":{"max":-10$000}}}]}`, -1},
		{"min with a long fraction", `{"reports":[{"start":"$T","channels":{"$C":{"min":0.$0001}}}]}`, 1},
		{"mean underflows to zero", `{"reports":[{"start":"$T","channels":{"$C":{"samples":1,"mean":1e-400}}}]}`, 1},
		{"engine-on out of range", `{"reports":[{"start":"$T","engine_on_seconds":2e308}]}`, -1},
		{"leading zero", `{"reports":[{"start":"$T","engine_on_seconds":01}]}`, -1},
		{"bare minus", `{"reports":[{"start":"$T","engine_on_seconds":-}]}`, -1},
		{"empty fraction", `{"reports":[{"start":"$T","engine_on_seconds":1.}]}`, -1},
		{"empty exponent", `{"reports":[{"start":"$T","engine_on_seconds":1e+}]}`, -1},
		{"plus sign", `{"reports":[{"start":"$T","engine_on_seconds":+1}]}`, -1},
		{"start not RFC 3339", `{"reports":[{"start":"2015-13-01T00:00:00Z"}]}`, -1},
		{"start with escapes", `{"reports":[{"start":"2015\u002d01-01T00:00:00Z"}]}`, -1},
		{"start a number", `{"reports":[{"start":20150101}]}`, -1},
		{"start an object", `{"reports":[{"start":{}}]}`, -1},
		{"reports an object", `{"reports":{}}`, -1},
		{"report a string", `{"reports":["x"]}`, -1},
		{"channels an array", `{"reports":[{"start":"$T","channels":[]}]}`, -1},
		{"channel a number", `{"reports":[{"start":"$T","channels":{"$C":1}}]}`, -1},
		{"engine-on a string", `{"reports":[{"start":"$T","engine_on_seconds":"600"}]}`, -1},
		{"body an array", `[]`, -1},
		{"body a string", `"reports"`, -1},
		{"trailing bytes ignored", `{"reports":[{"start":"$T"}]} trailing garbage {`, 1},
		{"second value ignored", `{"reports":[{"start":"$T"}]}{"reports":[}`, 1},
		{"incomplete", `{"reports":[{"start":"$T"}]`, -1},
		{"incomplete string", `{"reports":[{"start":"$T`, -1},
		{"trailing comma", `{"reports":[{"start":"$T"},]}`, -1},
		{"missing colon", `{"reports" [{"start":"$T"}]}`, -1},
		{"empty", ``, -1},
		{"whitespace only", " \n", -1},
		{"byte order mark", "\ufeff{\"reports\":[{\"start\":\"$T\"}]}", -1},
	}
	for i := range cases {
		cases[i].body = r.Replace(cases[i].body)
	}
	return cases
}

// TestIngestDecodeQuirks pins every wire rule, each checked against
// encoding/json as well as against its expected outcome.
func TestIngestDecodeQuirks(t *testing.T) {
	d := persistDatasets(t)[0]
	for _, c := range quirkCases(d) {
		t.Run(c.name, func(t *testing.T) {
			if got := decodeBoth(t, d, []byte(c.body)); got != c.want {
				t.Errorf("accepted %d reports, want %d (-1: 400)", got, c.want)
			}
		})
	}
}

// TestIngestDecodeDepth: a value nested inside 10 000 arrays and objects
// is accepted, one more level is refused, as in encoding/json.
func TestIngestDecodeDepth(t *testing.T) {
	d := persistDatasets(t)[0]
	start := d.Date(d.Len()-1).AddDate(0, 0, 1).Format(time.RFC3339)
	nested := func(arrays int) []byte {
		// The body object is one level.
		return []byte(`{"reports":[{"start":"` + start + `"}],"x":` +
			strings.Repeat("[", arrays) + strings.Repeat("]", arrays) + `}`)
	}
	if got := decodeBoth(t, d, nested(maxJSONDepth-1)); got != 1 {
		t.Errorf("depth %d: accepted %d, want 1", maxJSONDepth, got)
	}
	if got := decodeBoth(t, d, nested(maxJSONDepth)); got != -1 {
		t.Errorf("depth %d: accepted %d, want a 400", maxJSONDepth+1, got)
	}
}

// TestIngestDecodeBodyCap: a first value complete within the 8 MiB cap
// is accepted whatever follows it; one still open at the cap is refused.
func TestIngestDecodeBodyCap(t *testing.T) {
	d := persistDatasets(t)[0]
	start := d.Date(d.Len()-1).AddDate(0, 0, 1).Format(time.RFC3339)
	value := `{"reports":[{"start":"` + start + `"}]}`
	pad := strings.Repeat(" ", maxIngestBody)
	if got := decodeBoth(t, d, []byte(value+pad)); got != 1 {
		t.Errorf("complete value before %d trailing bytes: accepted %d, want 1", len(pad), got)
	}
	open := value[:len(value)-1] + pad + "}"
	if got := decodeBoth(t, d, []byte(open)); got != -1 {
		t.Errorf("value closing past the cap: accepted %d, want a 400", got)
	}
	b, err := scanIngest(d, []byte(open))
	if err == nil {
		b.release()
	}
	var tooLarge *http.MaxBytesError
	if !errors.As(err, &tooLarge) {
		t.Errorf("value closing past the cap: error %v, want the cap's", err)
	}
}

// wireBatches are ingest bodies shaped like real uploads: vup-ingest's
// day batches from a simulated device, and the same reports through
// the internal/telematics uplink's outages and as an at-least-once
// retry that repeats them.
func wireBatches(t testing.TB, d *etl.VehicleDataset) [][]byte {
	t.Helper()
	f, err := fleet.Generate(fleet.Config{Units: 1, Days: 10, Seed: 3, Start: fleet.StudyStart})
	if err != nil {
		t.Fatal(err)
	}
	rng := randx.New(4)
	dev := telematics.NewDevice(f.Units[0].Vehicle, rng.Split())
	uplink := telematics.NewUplink(0.3, 0.6, rng.Split())
	marshal := func(reports []canbus.Report) []byte {
		req := ingestRequest{}
		for _, r := range reports {
			wr := ingestReport{Start: r.Start, EngineOnSeconds: r.EngineOnSeconds, Channels: map[string]ingestChannel{}}
			for name, cs := range r.Channels {
				wr.Channels[name] = ingestChannel{Samples: cs.Samples, Mean: cs.Mean, Min: cs.Min, Max: cs.Max}
			}
			req.Reports = append(req.Reports, wr)
		}
		raw, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	var out [][]byte
	var twoDays []canbus.Report
	for k := 1; k <= 3; k += 2 { // a gap day between the two
		reports, err := dev.SimulateDay(d.Date(d.Len()-1).AddDate(0, 0, k), 3, time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		reports = reports[:min(len(reports), 8)]
		out = append(out, marshal(reports))
		twoDays = append(twoDays, reports...)
	}
	out = append(out,
		marshal(twoDays),
		marshal(uplink.Transmit(twoDays)),
		marshal(append(append([]canbus.Report(nil), twoDays...), twoDays[:5]...)))
	return out
}

// FuzzIngestDecode: on any body the scanner and encoding/json agree.
// Plain go test runs the seeds: the wire batches and every quirk case.
func FuzzIngestDecode(f *testing.F) {
	d := persistDatasets(f)[0]
	for _, body := range wireBatches(f, d) {
		f.Add(body)
	}
	for _, c := range quirkCases(d) {
		f.Add([]byte(c.body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		decodeBoth(t, d, body)
	})
}

// perfbenchBatch is a body shaped like perfbench's ingest-visible
// batches: 36 ten-minute reports from 06:00, each carrying every channel
// of d with samples, mean, min and max.
func perfbenchBatch(tb testing.TB, d *etl.VehicleDataset) []byte {
	tb.Helper()
	r := rand.New(rand.NewSource(7))
	start := d.Date(d.Len()-1).AddDate(0, 0, 1).Add(6 * time.Hour)
	req := ingestRequest{}
	for i := 0; i < 36; i++ {
		rep := ingestReport{
			Start:           start.Add(time.Duration(i) * canbus.ReportInterval),
			EngineOnSeconds: float64(300 + r.Intn(301)),
			Channels:        make(map[string]ingestChannel, len(d.Channels)),
		}
		for name := range d.Channels {
			mean := 40 * (0.8 + 0.4*r.Float64())
			rep.Channels[name] = ingestChannel{Samples: 60, Mean: mean, Min: 0.5 * mean, Max: 1.5 * mean}
		}
		req.Reports = append(req.Reports, rep)
	}
	raw, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// BenchmarkIngestDecode decodes one perfbench-shaped batch: ref with
// encoding/json into the wire structs, scan with the scanner into a
// pooled batch. Recorded in BENCH_ingest.json.
func BenchmarkIngestDecode(b *testing.B) {
	d := persistDatasets(b)[0]
	body := perfbenchBatch(b, d)
	b.Run("ref", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			reports, err := refDecodeIngest(bytes.NewReader(body))
			if err != nil || len(reports) != 36 {
				b.Fatal(len(reports), err)
			}
		}
	})
	b.Run("scan", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			batch, err := scanIngest(d, body)
			if err != nil || batch.n != 36 {
				b.Fatal(err)
			}
			batch.release()
		}
	})
}
