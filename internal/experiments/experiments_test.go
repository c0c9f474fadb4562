package experiments

import (
	"bytes"
	"context"
	"strconv"
	"strings"
	"testing"
)

func run(t *testing.T, id string) *Report {
	t.Helper()
	rep, err := RunContext(context.Background(), id, Tiny())
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if rep.ID != id || rep.Text == "" || len(rep.Tables) == 0 {
		t.Fatalf("%s: incomplete report %+v", id, rep)
	}
	return rep
}

func cell(t *testing.T, tab Table, row int, col string) string {
	t.Helper()
	for j, name := range tab.Header {
		if name == col {
			return tab.Rows[row][j]
		}
	}
	t.Fatalf("table %s has no column %q", tab.Name, col)
	return ""
}

func cellF(t *testing.T, tab Table, row int, col string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell(t, tab, row, col), 64)
	if err != nil {
		t.Fatalf("table %s row %d col %s: %v", tab.Name, row, col, err)
	}
	return v
}

func TestRegistry(t *testing.T) {
	ids := IDs()
	want := []string{"by-type", "ext-levels", "ext-weather", "fig1a", "fig1b", "fig1c", "fig1d", "fig2", "fig3", "fig4", "fig5a", "fig5b", "fig6a", "fig6b", "timing", "tuning"}
	if len(ids) != len(want) {
		t.Fatalf("ids = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("ids = %v, want %v", ids, want)
		}
	}
	for _, id := range ids {
		if Title(id) == "" {
			t.Errorf("no title for %s", id)
		}
	}
	if _, err := RunContext(context.Background(), "bogus", Tiny()); err == nil {
		t.Error("unknown experiment accepted")
	}
	bad := Tiny()
	bad.Units = 0
	if _, err := RunContext(context.Background(), "fig1a", bad); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestFig1aShape(t *testing.T) {
	rep := run(t, "fig1a")
	tab := rep.Tables[0]
	medians := map[string]float64{}
	for i := range tab.Rows {
		medians[cell(t, tab, i, "type")] = cellF(t, tab, i, "median")
	}
	// The published ordering: graders and refuse compactors high,
	// coring machines lowest (when present in the tiny fleet).
	rc, okRC := medians["refuse compactor"]
	if !okRC {
		t.Fatal("no refuse compactor row")
	}
	if rc < 3 {
		t.Errorf("refuse compactor median = %v, want high", rc)
	}
	if coring, ok := medians["coring machine"]; ok && coring >= rc {
		t.Errorf("coring machine median %v >= refuse compactor %v", coring, rc)
	}
	// All quantiles within [0, 24].
	for i := range tab.Rows {
		if m := cellF(t, tab, i, "max"); m > 24 || m <= 0 {
			t.Errorf("row %d max = %v", i, m)
		}
	}
}

func TestFig1bSortedByMedian(t *testing.T) {
	rep := run(t, "fig1b")
	tab := rep.Tables[0]
	prev := -1.0
	for i := range tab.Rows {
		m := cellF(t, tab, i, "median")
		if m < prev {
			t.Fatalf("medians not ascending at row %d", i)
		}
		prev = m
		if !strings.HasPrefix(cell(t, tab, i, "label"), "RC-") {
			t.Fatalf("non-refuse-compactor label %q", cell(t, tab, i, "label"))
		}
	}
}

func TestFig1cSingleModel(t *testing.T) {
	rep := run(t, "fig1c")
	tab := rep.Tables[0]
	if len(tab.Rows) == 0 {
		t.Fatal("no units")
	}
	for i := range tab.Rows {
		if !strings.HasPrefix(cell(t, tab, i, "label"), "veh-") {
			t.Fatalf("label %q is not a unit", cell(t, tab, i, "label"))
		}
	}
}

func TestFig1dWeeklySeries(t *testing.T) {
	rep := run(t, "fig1d")
	tab := rep.Tables[0]
	vehicles := map[string]int{}
	for i := range tab.Rows {
		vehicles[cell(t, tab, i, "vehicle")]++
		if h := cellF(t, tab, i, "hours"); h < 0 || h > 7*24 {
			t.Fatalf("weekly hours out of range: %v", h)
		}
	}
	if len(vehicles) == 0 || len(vehicles) > 5 {
		t.Errorf("vehicles = %v", vehicles)
	}
	// Every vehicle has the same number of weeks.
	want := -1
	for _, n := range vehicles {
		if want == -1 {
			want = n
		}
		if n != want {
			t.Errorf("ragged weekly series: %v", vehicles)
		}
	}
}

func TestFig2WeeklyACF(t *testing.T) {
	rep := run(t, "fig2")
	tab := rep.Tables[0]
	if len(tab.Rows) != 21 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if lag0 := cellF(t, tab, 0, "acf"); lag0 != 1 {
		t.Errorf("acf(0) = %v", lag0)
	}
	lag7 := cellF(t, tab, 7, "acf")
	lag3 := cellF(t, tab, 3, "acf")
	if lag7 <= lag3 {
		t.Errorf("weekly structure missing: acf(7)=%v acf(3)=%v", lag7, lag3)
	}
	if cell(t, tab, 7, "significant") != "true" {
		t.Errorf("lag 7 not significant")
	}
}

func TestFig3Windows(t *testing.T) {
	rep := run(t, "fig3")
	tab := rep.Tables[0]
	for i := range tab.Rows {
		strat := cell(t, tab, i, "strategy")
		size := cellF(t, tab, i, "train_size")
		switch strat {
		case "sliding":
			if size != 5 {
				t.Errorf("sliding train size = %v", size)
			}
		case "expanding":
			if from := cellF(t, tab, i, "train_from"); from != 0 {
				t.Errorf("expanding from = %v", from)
			}
		default:
			t.Errorf("unknown strategy %q", strat)
		}
	}
	if !strings.Contains(rep.Text, "P") || !strings.Contains(rep.Text, "T") {
		t.Errorf("window sketch missing:\n%s", rep.Text)
	}
}

func TestFig4SweepShape(t *testing.T) {
	rep := run(t, "fig4")
	tab := rep.Tables[0]
	if len(tab.Rows) < 4 {
		t.Fatalf("sweep too small: %d rows", len(tab.Rows))
	}
	for i := range tab.Rows {
		pe := cellF(t, tab, i, "mean_pe")
		if pe <= 0 || pe > 500 {
			t.Errorf("row %d PE = %v", i, pe)
		}
	}
}

func TestFig5aMLBeatsBaselines(t *testing.T) {
	rep := run(t, "fig5a")
	tab := rep.Tables[0]
	pes := map[string]float64{}
	for i := range tab.Rows {
		pes[cell(t, tab, i, "algorithm")] = cellF(t, tab, i, "mean_pe")
	}
	if len(pes) != 6 {
		t.Fatalf("algorithms = %v", pes)
	}
	bestML := minOf(pes["LR"], pes["Lasso"], pes["SVR"], pes["GB"])
	worstBaseline := maxOf(pes["LV"], pes["MA"])
	if bestML >= worstBaseline {
		t.Errorf("best ML (%v) not better than worst baseline (%v): %v", bestML, worstBaseline, pes)
	}
}

func TestFig5bEasierThanFig5a(t *testing.T) {
	repA := run(t, "fig5a")
	repB := run(t, "fig5b")
	peOf := func(rep *Report, alg string) float64 {
		tab := rep.Tables[0]
		for i := range tab.Rows {
			if cell(t, tab, i, "algorithm") == alg {
				return cellF(t, tab, i, "mean_pe")
			}
		}
		t.Fatalf("no %s row", alg)
		return 0
	}
	// Section 4.4: the working-day scenario error is much lower; check
	// it for the learning models.
	for _, alg := range []string{"Lasso", "GB"} {
		nd, nwd := peOf(repA, alg), peOf(repB, alg)
		if nwd >= nd {
			t.Errorf("%s: NWD PE (%v) not below ND PE (%v)", alg, nwd, nd)
		}
	}
}

func TestFig6Series(t *testing.T) {
	for _, id := range []string{"fig6a", "fig6b"} {
		rep := run(t, id)
		tab := rep.Tables[0]
		if len(tab.Rows) < 5 {
			t.Fatalf("%s: only %d points", id, len(tab.Rows))
		}
		for i := range tab.Rows {
			a := cellF(t, tab, i, "actual_hours")
			p := cellF(t, tab, i, "predicted_hours")
			if a < 0 || a > 24 || p < 0 || p > 24 {
				t.Fatalf("%s row %d out of range: %v %v", id, i, a, p)
			}
		}
	}
}

func TestTimingOrdering(t *testing.T) {
	rep := run(t, "timing")
	tab := rep.Tables[0]
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	times := map[string]float64{}
	prev := -1.0
	for i := range tab.Rows {
		us := cellF(t, tab, i, "fit_microseconds")
		if us < prev {
			t.Fatalf("not ascending at row %d", i)
		}
		prev = us
		times[cell(t, tab, i, "algorithm")] = us
	}
	// Section 4.5: baselines and linear models are fast; GB is the
	// slowest family (an order of magnitude above single models).
	if times["GB"] < times["LV"] || times["GB"] < times["MA"] {
		t.Errorf("GB (%v µs) not slower than baselines (LV %v, MA %v)", times["GB"], times["LV"], times["MA"])
	}
	if times["GB"] < times["LR"] {
		t.Errorf("GB (%v µs) not slower than LR (%v µs)", times["GB"], times["LR"])
	}
}

func TestTableCSV(t *testing.T) {
	rep := run(t, "fig3")
	var buf bytes.Buffer
	if err := rep.Tables[0].WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(rep.Tables[0].Rows)+1 {
		t.Errorf("csv lines = %d", len(lines))
	}
	// Ragged tables are rejected.
	bad := Table{Name: "bad", Header: []string{"a", "b"}, Rows: [][]string{{"1"}}}
	if err := bad.WriteCSV(&buf); err == nil {
		t.Error("ragged table accepted")
	}
}

func TestRenderIncludesTitle(t *testing.T) {
	rep := run(t, "fig2")
	out := rep.Render()
	if !strings.Contains(out, "fig2") || !strings.Contains(out, rep.Title) {
		t.Errorf("render missing header:\n%s", out)
	}
}

func TestRenderMarkdown(t *testing.T) {
	rep := run(t, "fig3")
	md := rep.RenderMarkdown()
	if !strings.HasPrefix(md, "## fig3 — ") {
		t.Errorf("markdown header missing:\n%.80s", md)
	}
	if !strings.Contains(md, "```") {
		t.Error("code fence missing")
	}
	if !strings.Contains(md, "| strategy | test_day |") {
		t.Errorf("table header missing:\n%s", md[:300])
	}
	// One separator row per table.
	if !strings.Contains(md, "| --- |") {
		t.Error("table separator missing")
	}
	// Row count: header + separator + data rows for the windows table.
	lines := strings.Count(md, "\n")
	if lines < len(rep.Tables[0].Rows)+2 {
		t.Errorf("markdown too short: %d lines", lines)
	}
}

func TestDeterminism(t *testing.T) {
	a, err := RunContext(context.Background(), "fig1a", Tiny())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunContext(context.Background(), "fig1a", Tiny())
	if err != nil {
		t.Fatal(err)
	}
	if a.Text != b.Text {
		t.Error("fig1a not deterministic")
	}
}

func TestExtWeatherShape(t *testing.T) {
	cfg := Tiny()
	cfg.Units = 40 // enough weather-sensitive machines
	rep, err := RunContext(context.Background(), "ext-weather", cfg)
	if err != nil {
		t.Fatal(err)
	}
	tab := rep.Tables[0]
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	baseline := cellF(t, tab, 0, "mean_pe")
	enriched := cellF(t, tab, 1, "mean_pe")
	if cell(t, tab, 0, "features") != "baseline" || cell(t, tab, 1, "features") != "with-weather" {
		t.Fatalf("row order wrong: %+v", tab.Rows)
	}
	// At this scale (two vehicles, strided) the delta is noise; this
	// is a wiring smoke test. The quantitative comparison runs at
	// small scale (see EXPERIMENTS.md). Both variants must land in the
	// same regime.
	if enriched > baseline*1.2 || baseline > enriched*1.2 {
		t.Errorf("weather variant diverged: %.1f%% vs %.1f%%", baseline, enriched)
	}
}

func TestExtLevelsShape(t *testing.T) {
	rep := run(t, "ext-levels")
	tab := rep.Tables[0]
	accs := map[string]float64{}
	for i := range tab.Rows {
		key := cell(t, tab, i, "classifier") + "/" + cell(t, tab, i, "scenario")
		acc := cellF(t, tab, i, "mean_accuracy")
		if acc < 0 || acc > 1 {
			t.Fatalf("accuracy out of range: %v", acc)
		}
		accs[key] = acc
	}
	// The tree must beat the majority baseline in the next-day
	// scenario (where idle-vs-active is the signal).
	treeND, okT := accs["Tree/next-day"]
	majND, okM := accs["Majority/next-day"]
	if !okT || !okM {
		t.Fatalf("missing rows: %v", accs)
	}
	if treeND <= majND {
		t.Errorf("tree accuracy (%v) not above majority (%v)", treeND, majND)
	}
}

func TestByTypeShape(t *testing.T) {
	cfg := Tiny()
	cfg.Units = 60 // enough units to cover several types
	rep, err := RunContext(context.Background(), "by-type", cfg)
	if err != nil {
		t.Fatal(err)
	}
	tab := rep.Tables[0]
	if len(tab.Rows) < 3 {
		t.Fatalf("types covered = %d", len(tab.Rows))
	}
	evaluated := 0
	for i := range tab.Rows {
		if cell(t, tab, i, "mean_pe") == "" {
			continue // type failed at this scale, reported as such
		}
		evaluated++
		pe := cellF(t, tab, i, "mean_pe")
		if pe <= 0 || pe > 500 {
			t.Errorf("row %d PE = %v", i, pe)
		}
	}
	if evaluated == 0 {
		t.Fatal("no type evaluated")
	}
}

func TestTuningShape(t *testing.T) {
	rep := run(t, "tuning")
	tab := rep.Tables[0]
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for i := range tab.Rows {
		if cell(t, tab, i, "selected") == "" {
			t.Errorf("row %d has no selection", i)
		}
		mae := cellF(t, tab, i, "validation_mae")
		if mae <= 0 || mae > 24 {
			t.Errorf("row %d MAE = %v", i, mae)
		}
		if cellF(t, tab, i, "grid_size") < 2 {
			t.Errorf("row %d trivial grid", i)
		}
	}
}

func minOf(vs ...float64) float64 {
	m := vs[0]
	for _, v := range vs[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

func maxOf(vs ...float64) float64 {
	m := vs[0]
	for _, v := range vs[1:] {
		if v > m {
			m = v
		}
	}
	return m
}
