// Package relational implements the small columnar table engine the
// data-preparation pipeline targets. The paper's step (v) is
// "Transformation, to tailor input data to a relational data format";
// this package is that format: typed schemas, type-checked row append,
// columnar storage with typed column accessors, CSV write/read, and a
// checksummed binary serialization (the VUPT format, binary.go).
//
// The column types map one-to-one onto the paper's Table 1 feature
// schema: Float carries the daily utilization hours and the analog CAN
// channel aggregates (fuel rate, engine speed, …), Int the ordinal
// context features (week, month, year), String the categorical ones
// (vehicle model, country), Bool the binary flags (holiday, working
// day, observed) and Time the calendar date each row describes. A
// vehicle-day dataset rendered through etl.VehicleDataset.ToTable —
// or persisted through internal/fstore — is exactly such a table, so
// the on-disk format in internal/fstore/FORMAT.md is the durable form
// of the paper's relational representation.
package relational

import (
	"errors"
	"fmt"
)

// ColType is the type of a column.
type ColType int

const (
	Float ColType = iota
	Int
	String
	Bool
	Time
)

// String implements fmt.Stringer.
func (t ColType) String() string {
	switch t {
	case Float:
		return "float"
	case Int:
		return "int"
	case String:
		return "string"
	case Bool:
		return "bool"
	case Time:
		return "time"
	default:
		return fmt.Sprintf("coltype(%d)", int(t))
	}
}

// Column describes one attribute of a relation.
type Column struct {
	Name string
	Type ColType
}

// Schema is an ordered set of columns with unique names.
type Schema struct {
	cols  []Column
	index map[string]int
}

// Errors reported by the engine.
var (
	ErrDupColumn = errors.New("relational: duplicate column name")
	ErrNoColumn  = errors.New("relational: no such column")
	ErrTypeClash = errors.New("relational: value type does not match column type")
	ErrArity     = errors.New("relational: wrong number of values for schema")
	ErrBadCSV    = errors.New("relational: malformed CSV")
)

// NewSchema builds a schema. It returns ErrDupColumn on repeated names
// and an error on an empty column list.
func NewSchema(cols ...Column) (*Schema, error) {
	if len(cols) == 0 {
		return nil, errors.New("relational: empty schema")
	}
	s := &Schema{cols: append([]Column(nil), cols...), index: make(map[string]int, len(cols))}
	for i, c := range cols {
		if c.Name == "" {
			return nil, errors.New("relational: column with empty name")
		}
		if _, dup := s.index[c.Name]; dup {
			return nil, fmt.Errorf("%w: %q", ErrDupColumn, c.Name)
		}
		s.index[c.Name] = i
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error, for static schemas.
func MustSchema(cols ...Column) *Schema {
	s, err := NewSchema(cols...)
	if err != nil {
		panic(err)
	}
	return s
}

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.cols) }

// Columns returns a copy of the column list.
func (s *Schema) Columns() []Column { return append([]Column(nil), s.cols...) }

// Lookup returns the position and definition of the named column.
func (s *Schema) Lookup(name string) (int, Column, error) {
	i, ok := s.index[name]
	if !ok {
		return 0, Column{}, fmt.Errorf("%w: %q", ErrNoColumn, name)
	}
	return i, s.cols[i], nil
}
