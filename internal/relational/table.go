package relational

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Value is a dynamically typed cell. The concrete type must match the
// column type: float64, int64, string, bool or time.Time.
type Value interface{}

// Table is a columnar relation: one typed slice per column.
type Table struct {
	schema *Schema
	// cols[i] holds the data of column i as a homogeneous slice.
	floats  map[int][]float64
	ints    map[int][]int64
	strings map[int][]string
	bools   map[int][]bool
	times   map[int][]time.Time
	rows    int
}

// NewTable creates an empty table over schema.
func NewTable(schema *Schema) *Table {
	t := &Table{
		schema:  schema,
		floats:  map[int][]float64{},
		ints:    map[int][]int64{},
		strings: map[int][]string{},
		bools:   map[int][]bool{},
		times:   map[int][]time.Time{},
	}
	for i, c := range schema.cols {
		switch c.Type {
		case Float:
			t.floats[i] = nil
		case Int:
			t.ints[i] = nil
		case String:
			t.strings[i] = nil
		case Bool:
			t.bools[i] = nil
		case Time:
			t.times[i] = nil
		}
	}
	return t
}

// Schema returns the table's schema.
func (t *Table) Schema() *Schema { return t.schema }

// Rows returns the number of rows.
func (t *Table) Rows() int { return t.rows }

// Append adds one row. Values must match the schema in arity and type.
func (t *Table) Append(values ...Value) error {
	if len(values) != t.schema.Len() {
		return fmt.Errorf("%w: got %d, want %d", ErrArity, len(values), t.schema.Len())
	}
	// Validate all before mutating any column, so a failed append
	// leaves the table unchanged.
	for i, v := range values {
		if !typeMatches(t.schema.cols[i].Type, v) {
			return fmt.Errorf("%w: column %q (%s) got %T", ErrTypeClash, t.schema.cols[i].Name, t.schema.cols[i].Type, v)
		}
	}
	for i, v := range values {
		switch t.schema.cols[i].Type {
		case Float:
			t.floats[i] = append(t.floats[i], v.(float64))
		case Int:
			t.ints[i] = append(t.ints[i], v.(int64))
		case String:
			t.strings[i] = append(t.strings[i], v.(string))
		case Bool:
			t.bools[i] = append(t.bools[i], v.(bool))
		case Time:
			t.times[i] = append(t.times[i], v.(time.Time))
		}
	}
	t.rows++
	return nil
}

func typeMatches(ct ColType, v Value) bool {
	switch ct {
	case Float:
		_, ok := v.(float64)
		return ok
	case Int:
		_, ok := v.(int64)
		return ok
	case String:
		_, ok := v.(string)
		return ok
	case Bool:
		_, ok := v.(bool)
		return ok
	case Time:
		_, ok := v.(time.Time)
		return ok
	default:
		return false
	}
}

// At returns the cell at (row, named column).
func (t *Table) At(row int, col string) (Value, error) {
	if row < 0 || row >= t.rows {
		return nil, fmt.Errorf("relational: row %d out of range [0,%d)", row, t.rows)
	}
	i, c, err := t.schema.Lookup(col)
	if err != nil {
		return nil, err
	}
	switch c.Type {
	case Float:
		return t.floats[i][row], nil
	case Int:
		return t.ints[i][row], nil
	case String:
		return t.strings[i][row], nil
	case Bool:
		return t.bools[i][row], nil
	default:
		return t.times[i][row], nil
	}
}

// FloatCol returns a copy of the named Float column.
func (t *Table) FloatCol(name string) ([]float64, error) {
	i, c, err := t.schema.Lookup(name)
	if err != nil {
		return nil, err
	}
	if c.Type != Float {
		return nil, fmt.Errorf("%w: %q is %s, want float", ErrTypeClash, name, c.Type)
	}
	return append([]float64(nil), t.floats[i]...), nil
}

// StringCol returns a copy of the named String column.
func (t *Table) StringCol(name string) ([]string, error) {
	i, c, err := t.schema.Lookup(name)
	if err != nil {
		return nil, err
	}
	if c.Type != String {
		return nil, fmt.Errorf("%w: %q is %s, want string", ErrTypeClash, name, c.Type)
	}
	return append([]string(nil), t.strings[i]...), nil
}

// TimeCol returns a copy of the named Time column.
func (t *Table) TimeCol(name string) ([]time.Time, error) {
	i, c, err := t.schema.Lookup(name)
	if err != nil {
		return nil, err
	}
	if c.Type != Time {
		return nil, fmt.Errorf("%w: %q is %s, want time", ErrTypeClash, name, c.Type)
	}
	return append([]time.Time(nil), t.times[i]...), nil
}

// IntCol returns a copy of the named Int column.
func (t *Table) IntCol(name string) ([]int64, error) {
	i, c, err := t.schema.Lookup(name)
	if err != nil {
		return nil, err
	}
	if c.Type != Int {
		return nil, fmt.Errorf("%w: %q is %s, want int", ErrTypeClash, name, c.Type)
	}
	return append([]int64(nil), t.ints[i]...), nil
}

// BoolCol returns a copy of the named Bool column.
func (t *Table) BoolCol(name string) ([]bool, error) {
	i, c, err := t.schema.Lookup(name)
	if err != nil {
		return nil, err
	}
	if c.Type != Bool {
		return nil, fmt.Errorf("%w: %q is %s, want bool", ErrTypeClash, name, c.Type)
	}
	return append([]bool(nil), t.bools[i]...), nil
}

// TakeCol returns the named column's own backing slice, not a copy:
// the caller takes the column over and must not use t afterwards. It
// exists for decoders that build a Table only to turn its columns into
// another structure (fstore's snapshot decode). T must be the Go type
// of the column's type, or TakeCol fails with ErrTypeClash.
func TakeCol[T float64 | int64 | string | bool | time.Time](t *Table, name string) ([]T, error) {
	i, c, err := t.schema.Lookup(name)
	if err != nil {
		return nil, err
	}
	var col any
	switch c.Type {
	case Float:
		col = t.floats[i]
	case Int:
		col = t.ints[i]
	case String:
		col = t.strings[i]
	case Bool:
		col = t.bools[i]
	case Time:
		col = t.times[i]
	}
	vals, ok := col.([]T)
	if !ok {
		return nil, fmt.Errorf("%w: %q is %s, want %T", ErrTypeClash, name, c.Type, *new(T))
	}
	return vals, nil
}

// Row materializes row i as a Value slice in schema order.
func (t *Table) Row(i int) ([]Value, error) {
	if i < 0 || i >= t.rows {
		return nil, fmt.Errorf("relational: row %d out of range [0,%d)", i, t.rows)
	}
	out := make([]Value, t.schema.Len())
	for j, c := range t.schema.cols {
		switch c.Type {
		case Float:
			out[j] = t.floats[j][i]
		case Int:
			out[j] = t.ints[j][i]
		case String:
			out[j] = t.strings[j][i]
		case Bool:
			out[j] = t.bools[j][i]
		case Time:
			out[j] = t.times[j][i]
		}
	}
	return out, nil
}

// String renders the table as an aligned text grid of all rows. It
// implements fmt.Stringer.
func (t *Table) String() string {
	widths := make([]int, t.schema.Len())
	header := make([]string, t.schema.Len())
	for j, c := range t.schema.cols {
		header[j] = c.Name
		widths[j] = len(c.Name)
	}
	cells := make([][]string, t.rows)
	for i := 0; i < t.rows; i++ {
		row, _ := t.Row(i)
		cells[i] = make([]string, len(row))
		for j, v := range row {
			var s string
			switch x := v.(type) {
			case float64:
				s = strconv.FormatFloat(x, 'g', 6, 64)
			case time.Time:
				s = x.Format("2006-01-02")
			default:
				s = fmt.Sprint(v)
			}
			cells[i][j] = s
			if len(s) > widths[j] {
				widths[j] = len(s)
			}
		}
	}
	var b strings.Builder
	writeRow := func(row []string) {
		for j, s := range row {
			if j > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[j], s)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	for _, row := range cells {
		writeRow(row)
	}
	fmt.Fprintf(&b, "(%d rows)\n", t.rows)
	return b.String()
}
