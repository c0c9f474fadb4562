package relational

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"
)

func testSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema(
		Column{"vehicle", String},
		Column{"date", Time},
		Column{"hours", Float},
		Column{"dow", Int},
		Column{"working", Bool},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func d(day int) time.Time {
	return time.Date(2017, time.March, day, 0, 0, 0, 0, time.UTC)
}

func TestSchemaErrors(t *testing.T) {
	if _, err := NewSchema(); err == nil {
		t.Error("empty schema accepted")
	}
	if _, err := NewSchema(Column{"a", Float}, Column{"a", Int}); !errors.Is(err, ErrDupColumn) {
		t.Errorf("want ErrDupColumn, got %v", err)
	}
	if _, err := NewSchema(Column{"", Float}); err == nil {
		t.Error("empty name accepted")
	}
}

func TestMustSchemaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustSchema(Column{"a", Float}, Column{"a", Float})
}

func TestSchemaLookup(t *testing.T) {
	s := testSchema(t)
	i, c, err := s.Lookup("hours")
	if err != nil || i != 2 || c.Type != Float {
		t.Errorf("Lookup = %d %+v %v", i, c, err)
	}
	if _, _, err := s.Lookup("nope"); !errors.Is(err, ErrNoColumn) {
		t.Errorf("want ErrNoColumn, got %v", err)
	}
	if s.Len() != 5 || len(s.Columns()) != 5 {
		t.Error("Len/Columns wrong")
	}
}

func TestColTypeString(t *testing.T) {
	for ct, want := range map[ColType]string{Float: "float", Int: "int", String: "string", Bool: "bool", Time: "time", ColType(9): "coltype(9)"} {
		if ct.String() != want {
			t.Errorf("%d -> %q, want %q", int(ct), ct.String(), want)
		}
	}
}

func TestAppendAndAccess(t *testing.T) {
	tab := NewTable(testSchema(t))
	if err := tab.Append("v1", d(1), 5.5, int64(3), true); err != nil {
		t.Fatal(err)
	}
	if err := tab.Append("v2", d(2), 0.0, int64(4), false); err != nil {
		t.Fatal(err)
	}
	if tab.Rows() != 2 {
		t.Fatalf("rows = %d", tab.Rows())
	}
	v, err := tab.At(0, "hours")
	if err != nil || v.(float64) != 5.5 {
		t.Errorf("At = %v %v", v, err)
	}
	if _, err := tab.At(5, "hours"); err == nil {
		t.Error("row out of range accepted")
	}
	if _, err := tab.At(0, "nope"); err == nil {
		t.Error("unknown column accepted")
	}
	row, err := tab.Row(1)
	if err != nil || row[0].(string) != "v2" || row[4].(bool) != false {
		t.Errorf("Row = %v %v", row, err)
	}
}

func TestAppendErrorsLeaveTableUnchanged(t *testing.T) {
	tab := NewTable(testSchema(t))
	if err := tab.Append("v1", d(1), 5.5); !errors.Is(err, ErrArity) {
		t.Errorf("want ErrArity, got %v", err)
	}
	if err := tab.Append("v1", d(1), "not-a-float", int64(1), true); !errors.Is(err, ErrTypeClash) {
		t.Errorf("want ErrTypeClash, got %v", err)
	}
	if tab.Rows() != 0 {
		t.Errorf("failed appends mutated table: %d rows", tab.Rows())
	}
	// Column slices must all be empty too (atomicity).
	hours, err := tab.FloatCol("hours")
	if err != nil || len(hours) != 0 {
		t.Errorf("FloatCol = %v %v", hours, err)
	}
}

func TestTypedColumnAccessors(t *testing.T) {
	tab := NewTable(testSchema(t))
	tab.Append("v1", d(1), 1.0, int64(1), true)
	tab.Append("v2", d(2), 2.0, int64(2), false)
	if got, _ := tab.FloatCol("hours"); len(got) != 2 || got[1] != 2 {
		t.Errorf("FloatCol = %v", got)
	}
	if got, _ := tab.StringCol("vehicle"); got[0] != "v1" {
		t.Errorf("StringCol = %v", got)
	}
	if got, _ := tab.IntCol("dow"); got[1] != 2 {
		t.Errorf("IntCol = %v", got)
	}
	if got, _ := tab.BoolCol("working"); !got[0] || got[1] {
		t.Errorf("BoolCol = %v", got)
	}
	if got, _ := tab.TimeCol("date"); !got[0].Equal(d(1)) {
		t.Errorf("TimeCol = %v", got)
	}
	// Type mismatches.
	if _, err := tab.FloatCol("vehicle"); !errors.Is(err, ErrTypeClash) {
		t.Errorf("want ErrTypeClash, got %v", err)
	}
	if _, err := tab.StringCol("hours"); !errors.Is(err, ErrTypeClash) {
		t.Errorf("want ErrTypeClash, got %v", err)
	}
	if _, err := tab.IntCol("hours"); !errors.Is(err, ErrTypeClash) {
		t.Errorf("want ErrTypeClash, got %v", err)
	}
	if _, err := tab.BoolCol("hours"); !errors.Is(err, ErrTypeClash) {
		t.Errorf("want ErrTypeClash, got %v", err)
	}
	if _, err := tab.TimeCol("hours"); !errors.Is(err, ErrTypeClash) {
		t.Errorf("want ErrTypeClash, got %v", err)
	}
	// Copies, not views.
	hours, _ := tab.FloatCol("hours")
	hours[0] = 99
	if v, _ := tab.At(0, "hours"); v.(float64) != 1.0 {
		t.Error("FloatCol returned a view")
	}
}

func TestString(t *testing.T) {
	tab := NewTable(testSchema(t))
	for i := 1; i <= 2; i++ {
		tab.Append("v", d(i), float64(i), int64(i), true)
	}
	out := tab.String()
	if !strings.Contains(out, "vehicle") || !strings.Contains(out, "(2 rows)") {
		t.Errorf("String output:\n%s", out)
	}
	if !strings.Contains(out, "2017-03-01") {
		t.Errorf("date formatting missing:\n%s", out)
	}
	// Every line of the grid has the same aligned layout: header and
	// data lines share a prefix width.
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // header + 2 rows + count
		t.Errorf("lines = %d:\n%s", len(lines), out)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	schema := testSchema(t)
	tab := NewTable(schema)
	tab.Append("v1", d(1), 5.25, int64(3), true)
	tab.Append("v,2", d(2), -0.5, int64(-4), false) // comma needs quoting

	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf, schema)
	if err != nil {
		t.Fatal(err)
	}
	if back.Rows() != 2 {
		t.Fatalf("rows = %d", back.Rows())
	}
	for i := 0; i < 2; i++ {
		want, _ := tab.Row(i)
		got, _ := back.Row(i)
		for j := range want {
			if wt, ok := want[j].(time.Time); ok {
				if !wt.Equal(got[j].(time.Time)) {
					t.Errorf("row %d col %d: %v != %v", i, j, got[j], want[j])
				}
				continue
			}
			if got[j] != want[j] {
				t.Errorf("row %d col %d: %v != %v", i, j, got[j], want[j])
			}
		}
	}
}

func TestWriteCSVRows(t *testing.T) {
	schema := testSchema(t)
	a := NewTable(schema)
	a.Append("v1", d(1), 1.0, int64(1), true)
	b := NewTable(schema)
	b.Append("v2", d(2), 2.0, int64(2), false)

	var buf bytes.Buffer
	if err := a.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteCSVRows(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf, schema)
	if err != nil {
		t.Fatal(err)
	}
	if back.Rows() != 2 {
		t.Fatalf("concatenated rows = %d", back.Rows())
	}
	ids, _ := back.StringCol("vehicle")
	if ids[0] != "v1" || ids[1] != "v2" {
		t.Errorf("ids = %v", ids)
	}
}

func TestReadCSVErrors(t *testing.T) {
	schema := MustSchema(Column{"a", Float}, Column{"b", Int})
	cases := []string{
		"",                 // no header
		"a\n1",             // wrong arity
		"x,b\n1,2",         // wrong names
		"a,b\nnot-float,2", // bad float
		"a,b\n1.5,not-int", // bad int
	}
	for _, data := range cases {
		if _, err := ReadCSV(strings.NewReader(data), schema); !errors.Is(err, ErrBadCSV) {
			t.Errorf("data %q: want ErrBadCSV, got %v", data, err)
		}
	}
	// Bool and Time parse errors too.
	schemaBT := MustSchema(Column{"w", Bool}, Column{"t", Time})
	if _, err := ReadCSV(strings.NewReader("w,t\nmaybe,2017-01-01T00:00:00Z"), schemaBT); !errors.Is(err, ErrBadCSV) {
		t.Errorf("bad bool: %v", err)
	}
	if _, err := ReadCSV(strings.NewReader("w,t\ntrue,yesterday"), schemaBT); !errors.Is(err, ErrBadCSV) {
		t.Errorf("bad time: %v", err)
	}
}

// Property-style test: random tables survive a CSV round trip intact.
func TestCSVRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	schema := MustSchema(Column{"s", String}, Column{"f", Float}, Column{"i", Int}, Column{"b", Bool}, Column{"ts", Time})
	for trial := 0; trial < 20; trial++ {
		tab := NewTable(schema)
		n := rng.Intn(50)
		for i := 0; i < n; i++ {
			tab.Append(
				strings.Repeat("x", rng.Intn(5))+`"q,`,
				rng.NormFloat64()*1e6,
				int64(rng.Int()),
				rng.Intn(2) == 0,
				d(1+rng.Intn(28)),
			)
		}
		var buf bytes.Buffer
		if err := tab.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadCSV(&buf, schema)
		if err != nil {
			t.Fatal(err)
		}
		if back.Rows() != tab.Rows() {
			t.Fatalf("rows %d != %d", back.Rows(), tab.Rows())
		}
		for i := 0; i < n; i++ {
			want, _ := tab.Row(i)
			got, _ := back.Row(i)
			for j := range want {
				if wt, ok := want[j].(time.Time); ok {
					if !wt.Equal(got[j].(time.Time)) {
						t.Fatalf("time mismatch row %d", i)
					}
					continue
				}
				if got[j] != want[j] {
					t.Fatalf("row %d col %d: %#v != %#v", i, j, got[j], want[j])
				}
			}
		}
	}
}

func TestTakeColSharesTheColumn(t *testing.T) {
	tab := NewTable(MustSchema(Column{Name: "h", Type: Float}, Column{Name: "ok", Type: Bool}))
	if err := tab.Append(1.5, true); err != nil {
		t.Fatal(err)
	}
	h, err := TakeCol[float64](tab, "h")
	if err != nil {
		t.Fatal(err)
	}
	h[0] = 2
	if v, _ := tab.At(0, "h"); v != 2.0 {
		t.Errorf("TakeCol returned a copy: table still reads %v", v)
	}
	if _, err := TakeCol[float64](tab, "ok"); !errors.Is(err, ErrTypeClash) {
		t.Errorf("TakeCol[float64] of a Bool column: %v, want ErrTypeClash", err)
	}
	if _, err := TakeCol[bool](tab, "missing"); err == nil {
		t.Error("TakeCol of a missing column succeeded")
	}
}
