package relational

// The reference decoder for the differential fuzz target below, and
// that target.

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"testing"
	"time"
)

// timeCell reads one 12-byte Time cell (i64 seconds, i32 nanoseconds).
func (r *binReader) timeCell() (time.Time, error) {
	sec, err := r.u64()
	if err != nil {
		return time.Time{}, err
	}
	nsec, err := r.u32()
	if err != nil {
		return time.Time{}, err
	}
	return time.Unix(int64(sec), int64(int32(nsec))).UTC(), nil
}

// referenceDecodeTable is the per-cell VUPT decoder DecodeTable
// replaced: every cell goes through its own bounds-checked read. It is
// kept as the reference FuzzDecodeTableResealed holds DecodeTable to.
//
// Like DecodeTable, it parses a VUPT payload produced by EncodeTable. It
// validates the magic, version and structure, verifies the trailing
// CRC-32C over the whole file, and returns a *FormatError naming the
// byte offset of the first fault on any malformation. Null cells
// (possible in files from sparse producers, never emitted by
// EncodeTable) decode as the column type's zero value.
func referenceDecodeTable(data []byte) (*Table, error) {
	r := &binReader{data: data}
	magic, err := r.bytes(4)
	if err != nil {
		return nil, err
	}
	if string(magic) != tableMagic {
		return nil, formatErrf(0, ErrBadMagic, "got %q, want %q", magic, tableMagic)
	}
	version, err := r.u16()
	if err != nil {
		return nil, err
	}
	if version != TableFormatVersion {
		return nil, formatErrf(4, ErrBadVersion, "version %d, decoder supports %d", version, TableFormatVersion)
	}

	// Structural parse first (bounds-checked, with precise offsets for
	// truncation), then the checksum seals the content: a bit flip the
	// structure happens to tolerate still fails loudly.
	ncols, err := r.u16()
	if err != nil {
		return nil, err
	}
	if ncols == 0 {
		return nil, formatErrf(6, ErrCorrupt, "zero columns")
	}
	cols := make([]Column, 0, ncols)
	for c := 0; c < int(ncols); c++ {
		nameOff := r.off
		nameLen, err := r.u8()
		if err != nil {
			return nil, err
		}
		if nameLen == 0 {
			return nil, formatErrf(nameOff, ErrCorrupt, "column %d: empty name", c)
		}
		name, err := r.bytes(int(nameLen))
		if err != nil {
			return nil, err
		}
		typOff := r.off
		typ, err := r.u8()
		if err != nil {
			return nil, err
		}
		if ColType(typ) > Time {
			return nil, formatErrf(typOff, ErrCorrupt, "column %q: unknown type %d", name, typ)
		}
		flagOff := r.off
		flags, err := r.u8()
		if err != nil {
			return nil, err
		}
		if flags&^0x01 != 0 {
			return nil, formatErrf(flagOff, ErrCorrupt, "column %q: unknown flag bits %#x", name, flags)
		}
		cols = append(cols, Column{Name: string(name), Type: ColType(typ)})
	}
	schema, err := NewSchema(cols...)
	if err != nil {
		return nil, formatErrf(6, ErrCorrupt, "invalid schema: %v", err)
	}

	rowsOff := r.off
	rows64, err := r.u64()
	if err != nil {
		return nil, err
	}
	// Reject row counts the input cannot possibly hold before any
	// allocation: every row costs at least one bitmap bit per column,
	// and fixed-width columns cost cellWidth bytes per row.
	minPerRow := 0
	for _, c := range cols {
		w := cellWidth(c.Type)
		if w == 0 {
			w = 4 // String: at least the u32 length prefix
		}
		minPerRow += w
	}
	remaining := len(data) - r.off
	if rows64 > uint64(remaining) || (rows64 > 0 && uint64(minPerRow)*rows64 > uint64(remaining)) {
		return nil, formatErrf(rowsOff, ErrTruncated, "row count %d exceeds what %d remaining bytes can hold", rows64, remaining)
	}
	rows := int(rows64)

	t := NewTable(schema)
	bitmapLen := (rows + 7) / 8
	for i, c := range cols {
		bmOff := r.off
		bitmap, err := r.bytes(bitmapLen)
		if err != nil {
			return nil, err
		}
		if pad := bitmapLen*8 - rows; pad > 0 && bitmap[bitmapLen-1]>>(8-pad) != 0 {
			return nil, formatErrf(bmOff+bitmapLen-1, ErrCorrupt, "column %q: non-zero bitmap padding bits", c.Name)
		}
		if rows == 0 {
			// Keep the zero-row column slices nil, exactly as NewTable
			// leaves them, so an empty table round-trips DeepEqual.
			continue
		}
		present := func(row int) bool { return bitmap[row/8]&(1<<(row%8)) != 0 }
		switch c.Type {
		case Float:
			vals := make([]float64, rows)
			for row := 0; row < rows; row++ {
				bits, err := r.u64()
				if err != nil {
					return nil, err
				}
				if present(row) {
					vals[row] = math.Float64frombits(bits)
				}
			}
			t.floats[i] = vals
		case Int:
			vals := make([]int64, rows)
			for row := 0; row < rows; row++ {
				v, err := r.u64()
				if err != nil {
					return nil, err
				}
				if present(row) {
					vals[row] = int64(v)
				}
			}
			t.ints[i] = vals
		case String:
			vals := make([]string, rows)
			for row := 0; row < rows; row++ {
				n, err := r.u32()
				if err != nil {
					return nil, err
				}
				b, err := r.bytes(int(n))
				if err != nil {
					return nil, err
				}
				if present(row) {
					vals[row] = string(b)
				}
			}
			t.strings[i] = vals
		case Bool:
			vals := make([]bool, rows)
			for row := 0; row < rows; row++ {
				cellOff := r.off
				v, err := r.u8()
				if err != nil {
					return nil, err
				}
				if v > 1 {
					return nil, formatErrf(cellOff, ErrCorrupt, "column %q row %d: bool byte %d", c.Name, row, v)
				}
				if present(row) {
					vals[row] = v == 1
				}
			}
			t.bools[i] = vals
		case Time:
			vals := make([]time.Time, rows)
			for row := 0; row < rows; row++ {
				v, err := r.timeCell()
				if err != nil {
					return nil, err
				}
				if present(row) {
					vals[row] = v
				} else {
					vals[row] = time.Unix(0, 0).UTC()
				}
			}
			t.times[i] = vals
		}
	}
	t.rows = rows

	sumOff := r.off
	stored, err := r.u32()
	if err != nil {
		return nil, err
	}
	if got := crc32.Checksum(data[:sumOff], castagnoli); got != stored {
		return nil, formatErrf(sumOff, ErrChecksum, "computed %08x, stored %08x", got, stored)
	}
	if r.off != len(data) {
		return nil, formatErrf(r.off, ErrCorrupt, "%d trailing bytes after checksum", len(data)-r.off)
	}
	return t, nil
}

// FuzzDecodeTableResealed holds DecodeTable to referenceDecodeTable.
// Each input has its trailing four bytes replaced by the CRC-32C of
// the bytes before them, so most mutations pass the checksum and reach
// the structural checks. Both decoders must accept or reject alike; a
// rejection must carry the same failure class and offset, and an
// accepted table must have bit-identical cells.
func FuzzDecodeTableResealed(f *testing.F) {
	schema := MustSchema(
		Column{Name: "id", Type: String},
		Column{Name: "date", Type: Time},
		Column{Name: "hours", Type: Float},
		Column{Name: "n", Type: Int},
		Column{Name: "ok", Type: Bool},
	)
	tab := NewTable(schema)
	day := time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 11; i++ {
		if err := tab.Append("veh-0001", day.AddDate(0, 0, i), float64(i)/3, int64(-i), i%2 == 0); err != nil {
			f.Fatal(err)
		}
	}
	good := EncodeTable(tab)
	f.Add(good)
	f.Add(good[:len(good)-7])
	// A null cell in every column: clear row 3's bit in each bitmap.
	nulls := append([]byte(nil), good...)
	for off := 0; off+4 <= len(nulls); off++ {
		if nulls[off] == 0xFF && nulls[off+1] == 0x07 {
			nulls[off] &^= 1 << 3
		}
	}
	f.Add(nulls)
	f.Add([]byte("VUPT"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= 4 {
			body := len(data) - 4
			binary.LittleEndian.PutUint32(data[body:], crc32.Checksum(data[:body], castagnoli))
		}
		got, gotErr := DecodeTable(data)
		want, wantErr := referenceDecodeTable(data)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("DecodeTable error %v, reference error %v", gotErr, wantErr)
		}
		if wantErr != nil {
			var g, w *FormatError
			if !errors.As(gotErr, &g) || !errors.As(wantErr, &w) {
				t.Fatalf("untyped rejection: DecodeTable %v, reference %v", gotErr, wantErr)
			}
			if g.Err != w.Err || g.Offset != w.Offset {
				t.Fatalf("DecodeTable rejects with %v at %d, reference with %v at %d", g.Err, g.Offset, w.Err, w.Offset)
			}
			return
		}
		if got.Rows() != want.Rows() || got.Schema().Len() != want.Schema().Len() {
			t.Fatalf("shape %dx%d, reference %dx%d", got.Rows(), got.Schema().Len(), want.Rows(), want.Schema().Len())
		}
		for i, c := range want.Schema().cols {
			if got.Schema().cols[i] != c {
				t.Fatalf("column %d is %+v, reference %+v", i, got.Schema().cols[i], c)
			}
			for row := 0; row < want.Rows(); row++ {
				if !sameCell(c.Type, got, want, i, row) {
					t.Fatalf("column %q row %d differs from the reference", c.Name, row)
				}
			}
		}
	})
}

// sameCell compares one cell of two tables bit for bit: floats by
// their bits (so NaN payloads and signed zeros count), times by
// instant and location.
func sameCell(typ ColType, a, b *Table, col, row int) bool {
	switch typ {
	case Float:
		return math.Float64bits(a.floats[col][row]) == math.Float64bits(b.floats[col][row])
	case Int:
		return a.ints[col][row] == b.ints[col][row]
	case String:
		return a.strings[col][row] == b.strings[col][row]
	case Bool:
		return a.bools[col][row] == b.bools[col][row]
	default:
		x, y := a.times[col][row], b.times[col][row]
		return x.Equal(y) && x.Location() == y.Location() && x.Unix() == y.Unix() && x.Nanosecond() == y.Nanosecond()
	}
}
