package featsel

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"vup/internal/etl"
	"vup/internal/randx"
)

// materializeDataset builds a synthetic dataset with distinctive
// per-channel values so any gather misalignment shows up as a value
// mismatch rather than a coincidental equality.
func materializeDataset(t *testing.T, n int) *etl.VehicleDataset {
	t.Helper()
	rng := randx.New(99)
	d := &etl.VehicleDataset{
		VehicleID: "mat-0",
		Country:   "IT",
		Start:     time.Date(2016, 3, 1, 0, 0, 0, 0, time.UTC),
		Hours:     make([]float64, n),
		Channels: map[string][]float64{
			"alpha": make([]float64, n),
			"beta":  make([]float64, n),
			"gamma": make([]float64, n),
		},
		Observed: make([]bool, n),
	}
	for i := 0; i < n; i++ {
		d.Hours[i] = 10 * rng.Float64()
		d.Channels["alpha"][i] = 100 + float64(i)
		d.Channels["beta"][i] = -float64(i) * 0.5
		d.Channels["gamma"][i] = rng.Normal(0, 1)
		d.Observed[i] = true
	}
	d.Enrich()
	return d
}

func TestMaterializedMatchesSpec(t *testing.T) {
	d := materializeDataset(t, 90)
	const maxLag = 14
	channels := []string{"alpha", "beta"}
	targets := []string{"gamma", "alpha"} // overlap with channels on purpose
	m, err := MaterializeContext(context.Background(), d, maxLag, channels, true, targets)
	if err != nil {
		t.Fatal(err)
	}
	lagSets := [][]int{{1}, {1, 7, 14}, {2, 3, 5, 8, 13}, {14}}
	for _, lags := range lagSets {
		spec := Spec{Lags: lags, Channels: channels, IncludeHours: true, IncludeContext: true, TargetChannels: targets}
		if w := m.RowWidth(lags); w != spec.Width() {
			t.Fatalf("lags %v: width %d != spec width %d", lags, w, spec.Width())
		}
		dst := make([]float64, m.RowWidth(lags))
		for day := 0; day < d.Len(); day++ {
			want, wantOK := spec.Row(d, day)
			gotOK := m.GatherRow(dst, day, lags)
			if gotOK != wantOK {
				t.Fatalf("lags %v day %d: ok %v != spec ok %v", lags, day, gotOK, wantOK)
			}
			if !gotOK {
				continue
			}
			for j := range want {
				if dst[j] != want[j] {
					t.Fatalf("lags %v day %d col %d: %v != %v", lags, day, j, dst[j], want[j])
				}
			}
		}
	}
}

func TestMaterializedMatrixMatchesSpec(t *testing.T) {
	d := materializeDataset(t, 80)
	lags := []int{1, 6, 12}
	channels := []string{"beta", "gamma"}
	m, err := MaterializeContext(context.Background(), d, 12, channels, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Lags: lags, Channels: channels, IncludeHours: true, IncludeContext: true}
	var sc Scratch
	for _, rg := range [][2]int{{0, 40}, {5, 20}, {40, 80}, {-3, 200}} {
		wx, wy, _, werr := spec.Matrix(d, rg[0], rg[1])
		gx, gy, gerr := m.MatrixInto(&sc, lags, rg[0], rg[1])
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("range %v: err %v vs %v", rg, gerr, werr)
		}
		if werr != nil {
			continue
		}
		if len(gx) != len(wx) {
			t.Fatalf("range %v: %d rows vs %d", rg, len(gx), len(wx))
		}
		for i := range wx {
			if gy[i] != wy[i] {
				t.Fatalf("range %v row %d: y %v vs %v", rg, i, gy[i], wy[i])
			}
			for j := range wx[i] {
				if gx[i][j] != wx[i][j] {
					t.Fatalf("range %v row %d col %d: %v vs %v", rg, i, j, gx[i][j], wx[i][j])
				}
			}
		}
	}
	// Empty range must reproduce Spec.Matrix's ErrNoRows.
	if _, _, err := m.MatrixInto(&sc, lags, 0, 3); !errors.Is(err, ErrNoRows) {
		t.Fatalf("want ErrNoRows, got %v", err)
	}
}

func TestMaterializedScratchReuse(t *testing.T) {
	// Two consecutive gathers with one scratch must not alias: the
	// second overwrites the first, which is exactly why callers copy
	// results they keep — but shapes shrink and grow safely.
	d := materializeDataset(t, 60)
	m, err := MaterializeContext(context.Background(), d, 10, []string{"alpha"}, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	var sc Scratch
	x1, y1, err := m.MatrixInto(&sc, []int{1, 2, 10}, 10, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(x1) != 40 || len(y1) != 40 {
		t.Fatalf("rows %d/%d", len(x1), len(y1))
	}
	x2, _, err := m.MatrixInto(&sc, []int{3}, 3, 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(x2) != 57 {
		t.Fatalf("second gather rows %d", len(x2))
	}
	spec := Spec{Lags: []int{3}, Channels: []string{"alpha"}, IncludeHours: true}
	want, _, _, err := spec.Matrix(d, 3, 60)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		for j := range want[i] {
			if x2[i][j] != want[i][j] {
				t.Fatalf("reused scratch row %d col %d: %v vs %v", i, j, x2[i][j], want[i][j])
			}
		}
	}
}

func TestMaterializedExtendedRow(t *testing.T) {
	// The phantom-day path must equal Spec.Row over a literally
	// extended dataset (the old appendPhantomDay construction).
	d := materializeDataset(t, 50)
	channels := []string{"alpha", "beta"}
	targets := []string{"gamma"}
	m, err := MaterializeContext(context.Background(), d, 9, channels, true, targets)
	if err != nil {
		t.Fatal(err)
	}
	lags := []int{1, 4, 9}
	n := d.Len()

	// Build the extension: two phantom days with predicted hours and a
	// target-channel override on the second.
	phantom := make([]etl.Context, 2)
	etl.ContextsFrom(d.Country, d.Date(n-1).AddDate(0, 0, 1), phantom)
	cols := map[string][]float64{
		"alpha": make([]float64, 2),
		"beta":  make([]float64, 2),
		"gamma": make([]float64, 2),
	}
	ext := &Extension{
		Hours: []float64{6.5, 0},
		Chans: [][]float64{cols["alpha"], cols["beta"]},
		Tgts:  [][]float64{cols["gamma"]},
		Ctx:   phantom,
	}
	cols["gamma"][1] = 42.0 // target override on step 1

	// Reference: clone the dataset with the same two phantom days.
	ref := &etl.VehicleDataset{
		VehicleID: d.VehicleID, Country: d.Country, Start: d.Start,
		Hours:    append(append([]float64(nil), d.Hours...), 6.5, 0),
		Channels: map[string][]float64{},
		Context:  append(append([]etl.Context(nil), d.Context...), phantom...),
		Observed: append(append([]bool(nil), d.Observed...), false, false),
	}
	for name, vals := range d.Channels {
		ref.Channels[name] = append(append([]float64(nil), vals...), 0, 0)
	}
	ref.Channels["gamma"][n+1] = 42.0

	spec := Spec{Lags: lags, Channels: channels, IncludeHours: true, IncludeContext: true, TargetChannels: targets}
	dst := make([]float64, m.RowWidth(lags))
	for step := 0; step < 2; step++ {
		want, ok := spec.Row(ref, n+step)
		if !ok {
			t.Fatalf("reference row %d not buildable", step)
		}
		if !m.ExtendedRow(dst, step, lags, ext) {
			t.Fatalf("extended row %d refused", step)
		}
		for j := range want {
			if dst[j] != want[j] {
				t.Fatalf("step %d col %d: %v != %v", step, j, dst[j], want[j])
			}
		}
	}
}

// growDataset appends k synthetic days to a copy-free view chain: it
// returns a dataset value sharing the first d.Len() entries with d and
// carrying k fresh days after them.
func growDataset(t *testing.T, d *etl.VehicleDataset, k int) *etl.VehicleDataset {
	t.Helper()
	out := &etl.VehicleDataset{
		VehicleID: d.VehicleID, Country: d.Country, Start: d.Start,
		Hours:    append(append([]float64(nil), d.Hours...), make([]float64, k)...),
		Channels: map[string][]float64{},
		Observed: append(append([]bool(nil), d.Observed...), make([]bool, k)...),
	}
	for name, vals := range d.Channels {
		out.Channels[name] = append(append([]float64(nil), vals...), make([]float64, k)...)
	}
	n := d.Len()
	for i := 0; i < k; i++ {
		out.Hours[n+i] = 3 + float64(i)
		out.Observed[n+i] = true
		out.Channels["alpha"][n+i] = 200 + float64(i)
		out.Channels["beta"][n+i] = -40 - float64(i)
		out.Channels["gamma"][n+i] = float64(i) * 0.25
	}
	out.Enrich()
	return out
}

// TestAppendDaysMatchesFreshMaterialize: the extended superset must be
// bitwise identical to materializing the grown dataset from scratch.
func TestAppendDaysMatchesFreshMaterialize(t *testing.T) {
	d := materializeDataset(t, 70)
	channels := []string{"alpha", "beta"}
	targets := []string{"gamma", "alpha"}
	m, err := MaterializeContext(context.Background(), d, 11, channels, true, targets)
	if err != nil {
		t.Fatal(err)
	}
	// Three successive appends of 1, 3 and 1 days exercise both the
	// realloc path (first append: materialize leaves no spare capacity)
	// and the in-place tail path (later appends inherit headroom).
	cur := m
	grown := d
	for _, k := range []int{1, 3, 1} {
		grown = growDataset(t, grown, k)
		next, err := cur.AppendDays(grown)
		if err != nil {
			t.Fatal(err)
		}
		if next.Len() != grown.Len() {
			t.Fatalf("extended len %d, want %d", next.Len(), grown.Len())
		}
		cur = next
	}
	fresh, err := MaterializeContext(context.Background(), grown, 11, channels, true, targets)
	if err != nil {
		t.Fatal(err)
	}
	if len(cur.data) != len(fresh.data) {
		t.Fatalf("data len %d vs fresh %d", len(cur.data), len(fresh.data))
	}
	for i := range fresh.data {
		if math.Float64bits(cur.data[i]) != math.Float64bits(fresh.data[i]) {
			t.Fatalf("superset drifted at flat index %d: %v vs %v", i, cur.data[i], fresh.data[i])
		}
	}
	// And the gather surface agrees end to end.
	lags := []int{1, 5, 11}
	a := make([]float64, cur.RowWidth(lags))
	b := make([]float64, fresh.RowWidth(lags))
	for day := 0; day < grown.Len(); day++ {
		if cur.GatherRow(a, day, lags) != fresh.GatherRow(b, day, lags) {
			t.Fatalf("day %d: gather availability differs", day)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("day %d col %d: %v vs %v", day, j, a[j], b[j])
			}
		}
	}
}

// TestAppendDaysForkSafety: two children extended from one parent must
// not trample each other — only one may claim the parent's tail in
// place; the other reallocates. The parent's own rows stay intact.
func TestAppendDaysForkSafety(t *testing.T) {
	d := materializeDataset(t, 50)
	m, err := MaterializeContext(context.Background(), d, 7, []string{"alpha"}, false, []string{"alpha"})
	if err != nil {
		t.Fatal(err)
	}
	// Give the parent spare capacity by extending once first.
	g1 := growDataset(t, d, 1)
	parent, err := m.AppendDays(g1)
	if err != nil {
		t.Fatal(err)
	}
	// Fork: two different continuations of the same parent.
	gA := growDataset(t, g1, 1)
	gB := growDataset(t, g1, 1)
	gB.Hours[gB.Len()-1] = 23.5
	gB.Channels["alpha"][gB.Len()-1] = -1
	childA, err := parent.AppendDays(gA)
	if err != nil {
		t.Fatal(err)
	}
	childB, err := parent.AppendDays(gB)
	if err != nil {
		t.Fatal(err)
	}
	lags := []int{1}
	rowA := make([]float64, childA.RowWidth(lags))
	rowB := make([]float64, childB.RowWidth(lags))
	last := gA.Len() - 1
	if !childA.GatherRow(rowA, last, lags) || !childB.GatherRow(rowB, last, lags) {
		t.Fatal("forked children refuse their own last day")
	}
	// The forked day's target-channel value differs by construction:
	// 200 on the A branch, the -1 override on B. childB was built after
	// childA, so if both had claimed the parent's tail in place, B's
	// write would have trampled A's row and this check would see -1.
	tA, tB := rowA[len(rowA)-1], rowB[len(rowB)-1]
	if tA != 200 || tB != -1 {
		t.Errorf("forked target columns = %v and %v, want 200 and -1", tA, tB)
	}
	if got := childB.Y(last); got != 23.5 {
		t.Errorf("child B target = %v, want 23.5", got)
	}
	// Parent unchanged: its last day is still g1's.
	if parent.Len() != g1.Len() || parent.Y(parent.Len()-1) != g1.Hours[g1.Len()-1] {
		t.Error("extending children mutated the parent's visible rows")
	}
}

func TestAppendDaysRefusals(t *testing.T) {
	d := materializeDataset(t, 40)
	m, err := MaterializeContext(context.Background(), d, 6, []string{"alpha"}, true, []string{"beta"})
	if err != nil {
		t.Fatal(err)
	}
	// Shrunk dataset.
	smaller, err := d.Subset([]int{0, 1, 2, 3, 4, 5, 6, 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.AppendDays(smaller); err == nil {
		t.Error("shrunk dataset accepted")
	}
	// Rewritten lag window.
	g := growDataset(t, d, 1)
	g.Hours[d.Len()-1] += 0.5
	if _, err := m.AppendDays(g); err == nil {
		t.Error("rewritten lag-window hours accepted")
	}
	g2 := growDataset(t, d, 1)
	g2.Channels["alpha"][d.Len()-2] += 1
	if _, err := m.AppendDays(g2); err == nil {
		t.Error("rewritten lag-window channel accepted")
	}
	g3 := growDataset(t, d, 1)
	g3.Channels["beta"][d.Len()-1] += 1
	if _, err := m.AppendDays(g3); err == nil {
		t.Error("rewritten lag-window target channel accepted")
	}
	// Missing channel.
	g4 := growDataset(t, d, 1)
	delete(g4.Channels, "alpha")
	if _, err := m.AppendDays(g4); err == nil {
		t.Error("missing channel accepted")
	}
	// Same length: shares rows, re-points columns.
	same := growDataset(t, d, 0)
	s, err := m.AppendDays(same)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != m.Len() || &s.data[0] != &m.data[0] {
		t.Error("no-op append should share the parent's rows")
	}
}

// BenchmarkAppendDays measures the single-day append at several base
// lengths; the per-day cost must be flat in n (the acceptance
// criterion recorded in BENCH_ingest.json).
func BenchmarkAppendDays(b *testing.B) {
	for _, n := range []int{500, 2000, 8000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			full := benchDataset(n + b.N + 1)
			view := benchView(full, n)
			m, err := MaterializeContext(context.Background(), view, 28, []string{"alpha", "beta"}, true, []string{"gamma"})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				next, err := m.AppendDays(benchView(full, n+i+1))
				if err != nil {
					b.Fatal(err)
				}
				m = next
			}
		})
	}
}

// BenchmarkMaterializeFull is the rebuild baseline AppendDays replaces.
func BenchmarkMaterializeFull(b *testing.B) {
	for _, n := range []int{500, 2000, 8000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			full := benchDataset(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := MaterializeContext(context.Background(), full, 28, []string{"alpha", "beta"}, true, []string{"gamma"}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchDataset(n int) *etl.VehicleDataset {
	rng := randx.New(7)
	d := &etl.VehicleDataset{
		VehicleID: "bench-0",
		Country:   "IT",
		Start:     time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC),
		Hours:     make([]float64, n),
		Channels: map[string][]float64{
			"alpha": make([]float64, n),
			"beta":  make([]float64, n),
			"gamma": make([]float64, n),
		},
		Observed: make([]bool, n),
	}
	for i := 0; i < n; i++ {
		d.Hours[i] = 12 * rng.Float64()
		d.Channels["alpha"][i] = rng.Normal(50, 10)
		d.Channels["beta"][i] = rng.Normal(0, 1)
		d.Channels["gamma"][i] = rng.Float64()
		d.Observed[i] = true
	}
	d.Enrich()
	return d
}

// benchView exposes the first k days of full without copying columns —
// the O(F) view construction the ingest path uses per append.
func benchView(full *etl.VehicleDataset, k int) *etl.VehicleDataset {
	v := &etl.VehicleDataset{
		VehicleID: full.VehicleID, Country: full.Country, Start: full.Start,
		Hours:    full.Hours[:k],
		Channels: make(map[string][]float64, len(full.Channels)),
		Context:  full.Context[:k],
		Observed: full.Observed[:k],
	}
	for name, vals := range full.Channels {
		v.Channels[name] = vals[:k]
	}
	return v
}

func TestMaterializeErrors(t *testing.T) {
	d := materializeDataset(t, 30)
	if _, err := MaterializeContext(context.Background(), d, 0, nil, false, nil); err == nil {
		t.Error("max lag 0 accepted")
	}
	if _, err := MaterializeContext(context.Background(), d, 5, []string{"nope"}, false, nil); err == nil {
		t.Error("unknown channel accepted")
	}
	if _, err := MaterializeContext(context.Background(), d, 5, nil, false, []string{"nope"}); err == nil {
		t.Error("unknown target channel accepted")
	}
	m, err := MaterializeContext(context.Background(), d, 5, nil, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, m.RowWidth([]int{5}))
	if m.GatherRow(dst, 3, []int{5}) {
		t.Error("underflowing lag gathered")
	}
	if m.GatherRow(dst, 30, []int{5}) {
		t.Error("out-of-range day gathered")
	}
	if m.Len() != 30 || m.MaxLag() != 5 {
		t.Errorf("Len/MaxLag = %d/%d", m.Len(), m.MaxLag())
	}
	if m.Y(3) != d.Hours[3] {
		t.Errorf("Y(3) = %v", m.Y(3))
	}
	_ = math.NaN()
}
