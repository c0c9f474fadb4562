package fstore

// Spec conformance: the worked examples in FORMAT.md §6 are normative.
// Each ```hex spec:<label>``` block must decode with the reference
// implementation, and re-encoding the decoded value must reproduce the
// documented bytes exactly. If the format changes, FORMAT.md must
// change with it — this test is the tripwire.

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"vup/internal/relational"
)

// specBlocks parses FORMAT.md and returns label → text for every
// fenced block opened with "```<kind> spec:<label>", with the block's
// lines joined by spaces.
func specBlocks(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open("FORMAT.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	var label string
	var text strings.Builder
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case label == "" && strings.HasPrefix(line, "```") && strings.Contains(line, " spec:"):
			_, label, _ = strings.Cut(line, " spec:")
			text.Reset()
		case label != "" && strings.HasPrefix(line, "```"):
			if _, dup := out[label]; dup {
				t.Fatalf("duplicate spec block %q", label)
			}
			out[label] = text.String()
			label = ""
		case label != "":
			text.WriteString(line)
			text.WriteString(" ")
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if label != "" {
		t.Fatalf("unterminated spec block %q", label)
	}
	return out
}

// specExamples returns label → bytes for every "```hex spec:<label>"
// block of FORMAT.md. Whitespace inside a block is insignificant.
func specExamples(t *testing.T) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for label, text := range specBlocks(t) {
		if label == "fingerprint" {
			continue // words, not bytes: TestSpecExampleFingerprint
		}
		data, err := hex.DecodeString(strings.Join(strings.Fields(text), ""))
		if err != nil {
			t.Fatalf("block %q: bad hex: %v", label, err)
		}
		out[label] = data
	}
	return out
}

func TestSpecExampleTable(t *testing.T) {
	data, ok := specExamples(t)["vupt-table"]
	if !ok {
		t.Fatal("FORMAT.md has no spec:vupt-table block")
	}
	tab, err := relational.DecodeTable(data)
	if err != nil {
		t.Fatalf("documented table bytes do not decode: %v", err)
	}
	if got := tab.Rows(); got != 2 {
		t.Errorf("rows = %d, want 2", got)
	}
	h, err := tab.FloatCol("h")
	if err != nil {
		t.Fatal(err)
	}
	if h[0] != 1.5 || h[1] != 8.0 {
		t.Errorf("column h = %v, want [1.5 8]", h)
	}
	reenc := relational.EncodeTable(tab)
	if !bytes.Equal(reenc, data) {
		t.Errorf("re-encoding the documented table drifts from FORMAT.md §6.1")
	}
}

func TestSpecExampleDataset(t *testing.T) {
	data, ok := specExamples(t)["vupd-dataset"]
	if !ok {
		t.Fatal("FORMAT.md has no spec:vupd-dataset block")
	}
	d, err := DecodeDataset(data)
	if err != nil {
		t.Fatalf("documented snapshot bytes do not decode: %v", err)
	}
	if d.VehicleID != "v1" || d.ModelID != "m1" || d.Country != "IT" {
		t.Errorf("identity = %q/%q/%q, want v1/m1/IT", d.VehicleID, d.ModelID, d.Country)
	}
	want := time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC)
	if !d.Start.Equal(want) {
		t.Errorf("start = %v, want %v", d.Start, want)
	}
	if d.Len() != 2 || d.Hours[0] != 1.5 || d.Hours[1] != 8 {
		t.Errorf("hours = %v, want [1.5 8]", d.Hours)
	}
	if rpm := d.Channels["rpm"]; len(rpm) != 2 || rpm[0] != 900 || rpm[1] != 1250 {
		t.Errorf("rpm = %v, want [900 1250]", d.Channels["rpm"])
	}
	if d.Dates != nil {
		t.Error("contiguous example decoded with explicit Dates")
	}
	reenc, err := EncodeDataset(d)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reenc, data) {
		t.Errorf("re-encoding the documented snapshot drifts from FORMAT.md §6.2")
	}
}

func TestSpecExampleLogRecord(t *testing.T) {
	data, ok := specExamples(t)["log-record"]
	if !ok {
		t.Fatal("FORMAT.md has no spec:log-record block")
	}
	recs, err := parseLog(data)
	if err != nil {
		t.Fatalf("documented log record does not parse: %v", err)
	}
	if len(recs) != 1 {
		t.Fatalf("parsed %d records, want 1", len(recs))
	}
	rec := recs[0]
	if rec.seq != 3 || rec.vehicleID != "v1" || len(rec.days) != 1 {
		t.Fatalf("record = seq %d vehicle %q days %d, want 3/v1/1", rec.seq, rec.vehicleID, len(rec.days))
	}
	day := rec.days[0]
	wantDate := time.Date(2017, 1, 3, 0, 0, 0, 0, time.UTC)
	if !day.Date.Equal(wantDate) || day.Hours != 4.25 || !day.Observed {
		t.Errorf("day = %+v, want %v, 4.25h, observed", day, wantDate)
	}
	if day.Channels["rpm"] != 1100 {
		t.Errorf("rpm = %v, want 1100", day.Channels["rpm"])
	}
	reenc := encodeLogRecord(rec.seq, rec.vehicleID, rec.days)
	if !bytes.Equal(reenc, data) {
		t.Errorf("re-encoding the documented record drifts from FORMAT.md §6.3")
	}
}

// TestSpecExampleFingerprint recomputes FORMAT.md §6.4: the documented
// words, folded by the §3.1 rules with the documented constants, give
// the documented fingerprint, and so does etl's Fingerprint of the
// §6.2 dataset.
func TestSpecExampleFingerprint(t *testing.T) {
	text, ok := specBlocks(t)["fingerprint"]
	if !ok {
		t.Fatal("FORMAT.md has no spec:fingerprint block")
	}
	const seed, mul = 0x9e3779b97f4a7c15, 0xbf58476d1ce4e5b9
	mix := func(h, w uint64) uint64 {
		x := (h ^ w) * mul
		return x ^ x>>32
	}
	fields := strings.Fields(text)
	h, r := uint64(seed), uint64(0)
	inRow := false
	var want uint64
	for i := 0; i < len(fields); i++ {
		switch tok := fields[i]; tok {
		case "header", "row", "fingerprint":
			if inRow {
				h = mix(h, r)
			}
			inRow, r = tok == "row", seed
			if tok == "fingerprint" {
				i++
				want = parseHexWord(t, fields[i])
			}
		default:
			w := parseHexWord(t, tok)
			if inRow {
				r = mix(r, w)
			} else {
				h = mix(h, w)
			}
		}
	}
	if h != want {
		t.Errorf("documented words fold to %016x, FORMAT.md §6.4 says %016x", h, want)
	}
	d, err := DecodeDataset(specExamples(t)["vupd-dataset"])
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Fingerprint(); got != want {
		t.Errorf("Fingerprint of the §6.2 dataset is %016x, FORMAT.md §6.4 says %016x", got, want)
	}
	if got := fingerprintV1(d); got != 0xfb400cec4c982227 {
		t.Errorf("version 1 fingerprint of the §6.2 dataset is %016x, FORMAT.md §6.4 says fb400cec4c982227", got)
	}
}

func parseHexWord(t *testing.T, s string) uint64 {
	t.Helper()
	w, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		t.Fatalf("spec:fingerprint word %q: %v", s, err)
	}
	return w
}
