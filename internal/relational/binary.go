package relational

// Binary on-disk encoding of a Table: the VUPT format. The byte-level
// layout is specified normatively in internal/fstore/FORMAT.md; this
// file is the reference implementation. In one line: a little-endian,
// versioned container of a length-prefixed schema header followed by
// one null bitmap + fixed-width value block per column, sealed by a
// whole-file CRC-32C.
//
// Decoding is defensive: every read is bounds-checked, allocations are
// capped by the input size, and any malformation surfaces as a
// *FormatError carrying the byte offset of the fault — a corrupt or
// truncated file fails loudly instead of deserializing garbage.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"time"
)

// TableFormatVersion is the current VUPT container version.
const TableFormatVersion = 1

// tableMagic opens every encoded table.
const tableMagic = "VUPT"

// Decoder failure classes. Every decode error wraps exactly one of
// these (test with errors.Is) inside a *FormatError that carries the
// byte offset.
var (
	ErrBadMagic   = errors.New("relational: bad magic")
	ErrBadVersion = errors.New("relational: unsupported format version")
	ErrTruncated  = errors.New("relational: truncated input")
	ErrChecksum   = errors.New("relational: checksum mismatch")
	ErrCorrupt    = errors.New("relational: corrupt input")
)

// FormatError is the typed decode error: what went wrong, and at which
// byte offset of the input.
type FormatError struct {
	Offset int64  // byte offset of the fault within the input
	Err    error  // one of ErrBadMagic, ErrBadVersion, ErrTruncated, ErrChecksum, ErrCorrupt
	Detail string // human-readable specifics
}

// Error implements error.
func (e *FormatError) Error() string {
	return fmt.Sprintf("%v at offset %d: %s", e.Err, e.Offset, e.Detail)
}

// Unwrap exposes the failure class to errors.Is.
func (e *FormatError) Unwrap() error { return e.Err }

func formatErrf(off int, class error, format string, args ...any) error {
	return &FormatError{Offset: int64(off), Err: class, Detail: fmt.Sprintf(format, args...)}
}

// castagnoli is the CRC-32C polynomial table used for the trailing
// whole-file checksum.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// cellWidth returns the fixed on-disk width of one value of the type,
// or 0 for variable-width (String) columns.
func cellWidth(t ColType) int {
	switch t {
	case Float, Int:
		return 8
	case Bool:
		return 1
	case Time:
		return 12 // i64 unix seconds + i32 nanoseconds
	default:
		return 0
	}
}

// EncodeTable serializes the table into the VUPT binary format.
// Tables have no null cells, so every presence bitmap is written
// all-ones; the bitmap exists in the format so sparse producers (and
// future versions) can express missing values.
func EncodeTable(t *Table) []byte {
	// Header: magic, version, column count, column descriptors.
	buf := make([]byte, 0, 64+t.rows*t.schema.Len()*8)
	buf = append(buf, tableMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, TableFormatVersion)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(t.schema.Len()))
	for _, c := range t.schema.cols {
		buf = append(buf, byte(len(c.Name)))
		buf = append(buf, c.Name...)
		buf = append(buf, byte(c.Type))
		buf = append(buf, 0) // flags: bit0 nullable; Table columns are non-nullable
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(t.rows))

	bitmapLen := (t.rows + 7) / 8
	allSet := make([]byte, bitmapLen)
	for i := range allSet {
		allSet[i] = 0xFF
	}
	if pad := bitmapLen*8 - t.rows; pad > 0 && bitmapLen > 0 {
		// Trailing padding bits must be zero for a canonical encoding.
		allSet[bitmapLen-1] = 0xFF >> pad
	}

	for i, c := range t.schema.cols {
		buf = append(buf, allSet...)
		switch c.Type {
		case Float:
			for _, v := range t.floats[i] {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
			}
		case Int:
			for _, v := range t.ints[i] {
				buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
			}
		case String:
			for _, v := range t.strings[i] {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v)))
				buf = append(buf, v...)
			}
		case Bool:
			for _, v := range t.bools[i] {
				if v {
					buf = append(buf, 1)
				} else {
					buf = append(buf, 0)
				}
			}
		case Time:
			for _, v := range t.times[i] {
				buf = binary.LittleEndian.AppendUint64(buf, uint64(v.Unix()))
				buf = binary.LittleEndian.AppendUint32(buf, uint32(v.Nanosecond()))
			}
		}
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
}

// binReader is a bounds-checked cursor over an encoded payload. All
// reads fail with a *FormatError(ErrTruncated) carrying the current
// offset instead of panicking, which is what makes the decoder safe to
// fuzz with arbitrary bytes.
type binReader struct {
	data []byte
	off  int
}

func (r *binReader) need(n int) error {
	if n < 0 || len(r.data)-r.off < n {
		return formatErrf(r.off, ErrTruncated, "need %d more bytes, have %d", n, len(r.data)-r.off)
	}
	return nil
}

func (r *binReader) u8() (byte, error) {
	if err := r.need(1); err != nil {
		return 0, err
	}
	v := r.data[r.off]
	r.off++
	return v, nil
}

func (r *binReader) u16() (uint16, error) {
	if err := r.need(2); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint16(r.data[r.off:])
	r.off += 2
	return v, nil
}

func (r *binReader) u32() (uint32, error) {
	if err := r.need(4); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint32(r.data[r.off:])
	r.off += 4
	return v, nil
}

func (r *binReader) u64() (uint64, error) {
	if err := r.need(8); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint64(r.data[r.off:])
	r.off += 8
	return v, nil
}

func (r *binReader) bytes(n int) ([]byte, error) {
	if err := r.need(n); err != nil {
		return nil, err
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b, nil
}

// cells returns the next rows fixed-width cells of width w as one
// slice, bounds-checked once. When the input ends first it returns the
// whole cells that fit and the truncation error the first cell that
// does not fit raises, at the offset where reading it fails: a Time
// cell is read as its seconds word, then its nanoseconds, so one cut
// after the seconds fails 8 bytes into the cell.
func (r *binReader) cells(rows, w int) ([]byte, error) {
	if n := rows * w; len(r.data)-r.off >= n {
		b := r.data[r.off : r.off+n]
		r.off += n
		return b, nil
	}
	fit := (len(r.data) - r.off) / w
	b := r.data[r.off : r.off+fit*w]
	r.off += fit * w
	if w == 12 && len(r.data)-r.off >= 8 {
		r.off += 8
		return b, r.need(4)
	}
	return b, r.need(min(w, 8))
}

// clearNulls sets the cells whose presence bit is clear to zero, the
// value a null cell decodes as. Encoders write no nulls, so on their
// files this is one pass over the bitmap bytes, all 0xFF but the
// last.
func clearNulls[T any](vals []T, bitmap []byte, zero T) {
	for i, bits := range bitmap {
		if bits == 0xFF {
			continue
		}
		for row := 8 * i; row < min(8*i+8, len(vals)); row++ {
			if bits&(1<<(row&7)) == 0 {
				vals[row] = zero
			}
		}
	}
}

// DecodeTable parses a VUPT payload produced by EncodeTable. It
// validates the magic, version and structure, verifies the trailing
// CRC-32C over the whole file, and returns a *FormatError naming the
// byte offset of the first fault on any malformation. Null cells
// (possible in files from sparse producers, never emitted by
// EncodeTable) decode as the column type's zero value.
func DecodeTable(data []byte) (*Table, error) {
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
		// Fixed-width columns are bounds-checked once and decoded in
		// a tight loop over every cell; clearNulls then resets the
		// null cells (bitmap bit clear) to the type's zero value.
		switch c.Type {
		case Float:
			cells, err := r.cells(rows, 8)
			if err != nil {
				return nil, err
			}
			vals := make([]float64, rows)
			for row := range vals {
				vals[row] = math.Float64frombits(binary.LittleEndian.Uint64(cells[8*row : 8*row+8]))
			}
			clearNulls(vals, bitmap, 0)
			t.floats[i] = vals
		case Int:
			cells, err := r.cells(rows, 8)
			if err != nil {
				return nil, err
			}
			vals := make([]int64, rows)
			for row := range vals {
				vals[row] = int64(binary.LittleEndian.Uint64(cells[8*row : 8*row+8]))
			}
			clearNulls(vals, bitmap, 0)
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
				vals[row] = string(b)
			}
			clearNulls(vals, bitmap, "")
			t.strings[i] = vals
		case Bool:
			cellsOff := r.off
			cells, truncated := r.cells(rows, 1)
			// A bad byte before the cut is the first fault.
			for row, v := range cells {
				if v > 1 {
					return nil, formatErrf(cellsOff+row, ErrCorrupt, "column %q row %d: bool byte %d", c.Name, row, v)
				}
			}
			if truncated != nil {
				return nil, truncated
			}
			vals := make([]bool, rows)
			for row, v := range cells {
				vals[row] = v == 1
			}
			clearNulls(vals, bitmap, false)
			t.bools[i] = vals
		case Time:
			cells, err := r.cells(rows, 12)
			if err != nil {
				return nil, err
			}
			vals := make([]time.Time, rows)
			for row := range vals {
				cell := cells[12*row : 12*row+12]
				sec := int64(binary.LittleEndian.Uint64(cell))
				nsec := int32(binary.LittleEndian.Uint32(cell[8:]))
				vals[row] = time.Unix(sec, int64(nsec)).UTC()
			}
			clearNulls(vals, bitmap, time.Unix(0, 0).UTC())
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
