package fstore

// VUPD: the per-vehicle snapshot container. A small metadata header
// (identity + start date + flags) wraps a relational.Table payload in
// the VUPT columnar format holding the per-day series, and a trailing
// CRC-32C seals the whole file. FORMAT.md specifies the layout
// byte-for-byte; this file is the reference implementation.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"strings"
	"time"

	"vup/internal/etl"
	"vup/internal/fleet"
	"vup/internal/relational"
)

// DatasetFormatVersion is the current VUPD container version.
const DatasetFormatVersion = 1

// datasetMagic opens every encoded dataset snapshot.
const datasetMagic = "VUPD"

// flagExplicitDates marks datasets whose in-memory form carries an
// explicit Dates array (non-contiguous day sequences, e.g. produced by
// Subset). The date column is always encoded; the flag only decides
// whether Load re-materializes Dates or leaves it nil — which matters
// because the fingerprint hashes explicit dates and must survive a
// round-trip bit-for-bit.
const flagExplicitDates = 0x01

// Fixed column names of the snapshot table; channel columns follow
// them, each prefixed with chanColPrefix to keep the namespace closed
// under arbitrary channel names.
const (
	colHours      = "hours"
	colObserved   = "observed"
	colDate       = "date"
	chanColPrefix = "ch:"
)

// ErrMismatch classifies semantic inconsistencies in structurally
// valid files (fingerprint drift, misaligned columns, date gaps).
var ErrMismatch = errors.New("fstore: content mismatch")

// EncodeDataset serializes one dataset into the VUPD snapshot format.
// Context is not stored: it is a pure function of country and dates
// (etl.Enrich) and is rebuilt on decode.
func EncodeDataset(d *etl.VehicleDataset) ([]byte, error) {
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("fstore: encode %q: %w", d.VehicleID, err)
	}
	names := d.ChannelNames()

	cols := []relational.Column{
		{Name: colHours, Type: relational.Float},
		{Name: colObserved, Type: relational.Bool},
		{Name: colDate, Type: relational.Time},
	}
	for _, name := range names {
		cols = append(cols, relational.Column{Name: chanColPrefix + name, Type: relational.Float})
	}
	schema, err := relational.NewSchema(cols...)
	if err != nil {
		return nil, fmt.Errorf("fstore: encode %q: %w", d.VehicleID, err)
	}
	tab := relational.NewTable(schema)
	row := make([]relational.Value, len(cols))
	for i := 0; i < d.Len(); i++ {
		row[0] = d.Hours[i]
		row[1] = d.Observed[i]
		row[2] = d.Date(i)
		for j, name := range names {
			row[3+j] = d.Channels[name][i]
		}
		if err := tab.Append(row...); err != nil {
			return nil, fmt.Errorf("fstore: encode %q: %w", d.VehicleID, err)
		}
	}
	payload := relational.EncodeTable(tab)

	buf := make([]byte, 0, 64+len(payload))
	buf = append(buf, datasetMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, DatasetFormatVersion)
	buf = appendString16(buf, d.VehicleID)
	buf = appendString16(buf, d.ModelID)
	buf = appendString16(buf, d.Country)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(d.Type))
	buf = appendTime(buf, d.Start)
	flags := byte(0)
	if d.Dates != nil {
		flags |= flagExplicitDates
	}
	buf = append(buf, flags)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli)), nil
}

// DecodeDataset parses a VUPD snapshot produced by EncodeDataset,
// rebuilds the derived Context and validates alignment. Malformed
// input fails with a *relational.FormatError carrying the byte offset
// (wrapped in *CorruptError by the file-level loaders).
func DecodeDataset(data []byte) (*etl.VehicleDataset, error) {
	r := newReader(data)
	magic, err := r.bytes(4)
	if err != nil {
		return nil, err
	}
	if string(magic) != datasetMagic {
		return nil, formatErrf(0, relational.ErrBadMagic, "got %q, want %q", magic, datasetMagic)
	}
	version, err := r.u16()
	if err != nil {
		return nil, err
	}
	if version != DatasetFormatVersion {
		return nil, formatErrf(4, relational.ErrBadVersion, "version %d, decoder supports %d", version, DatasetFormatVersion)
	}
	vehicleID, err := r.string16()
	if err != nil {
		return nil, err
	}
	modelID, err := r.string16()
	if err != nil {
		return nil, err
	}
	country, err := r.string16()
	if err != nil {
		return nil, err
	}
	vtype, err := r.u16()
	if err != nil {
		return nil, err
	}
	start, err := r.time()
	if err != nil {
		return nil, err
	}
	flagOff := r.off
	flags, err := r.u8()
	if err != nil {
		return nil, err
	}
	if flags&^flagExplicitDates != 0 {
		return nil, formatErrf(flagOff, relational.ErrCorrupt, "unknown flag bits %#x", flags)
	}
	lenOff := r.off
	payloadLen, err := r.u64()
	if err != nil {
		return nil, err
	}
	if payloadLen > uint64(len(data)-r.off) {
		return nil, formatErrf(lenOff, relational.ErrTruncated, "table payload of %d bytes exceeds %d remaining", payloadLen, len(data)-r.off)
	}
	tableOff := r.off
	payload, err := r.bytes(int(payloadLen))
	if err != nil {
		return nil, err
	}
	sumOff := r.off
	stored, err := r.u32()
	if err != nil {
		return nil, err
	}
	if got := crc32.Checksum(data[:sumOff], castagnoli); got != stored {
		return nil, formatErrf(sumOff, relational.ErrChecksum, "computed %08x, stored %08x", got, stored)
	}
	if r.off != len(data) {
		return nil, formatErrf(r.off, relational.ErrCorrupt, "%d trailing bytes after checksum", len(data)-r.off)
	}

	tab, err := relational.DecodeTable(payload)
	if err != nil {
		// Shift the inner fault to a whole-file offset.
		var fe *relational.FormatError
		if errors.As(err, &fe) {
			return nil, &relational.FormatError{Offset: fe.Offset + int64(tableOff), Err: fe.Err, Detail: "embedded table: " + fe.Detail}
		}
		return nil, err
	}
	return datasetFromTable(vehicleID, modelID, country, fleet.Type(vtype), start, flags, tab, tableOff)
}

// datasetFromTable reassembles the in-memory dataset from the decoded
// snapshot table, taking its columns over without copying them.
func datasetFromTable(vehicleID, modelID, country string, vtype fleet.Type, start time.Time, flags byte, tab *relational.Table, tableOff int) (*etl.VehicleDataset, error) {
	hours, err := relational.TakeCol[float64](tab, colHours)
	if err != nil {
		return nil, formatErrf(tableOff, relational.ErrCorrupt, "snapshot table: %v", err)
	}
	observed, err := relational.TakeCol[bool](tab, colObserved)
	if err != nil {
		return nil, formatErrf(tableOff, relational.ErrCorrupt, "snapshot table: %v", err)
	}
	dates, err := relational.TakeCol[time.Time](tab, colDate)
	if err != nil {
		return nil, formatErrf(tableOff, relational.ErrCorrupt, "snapshot table: %v", err)
	}
	d := &etl.VehicleDataset{
		VehicleID: vehicleID,
		Type:      vtype,
		ModelID:   modelID,
		Country:   country,
		Start:     start,
		Hours:     hours,
		Observed:  observed,
		Channels:  map[string][]float64{},
	}
	for _, c := range tab.Schema().Columns() {
		name, ok := strings.CutPrefix(c.Name, chanColPrefix)
		if !ok {
			continue
		}
		vals, err := relational.TakeCol[float64](tab, c.Name)
		if err != nil {
			return nil, formatErrf(tableOff, relational.ErrCorrupt, "snapshot table: %v", err)
		}
		d.Channels[name] = vals
	}
	if flags&flagExplicitDates != 0 {
		d.Dates = dates
	} else {
		// Contiguous dataset: the date column is redundant with Start.
		// Verify instead of trusting, so an encoder bug cannot smuggle
		// in silently shifted calendars. start is decoded in UTC, where
		// a calendar day is always 24 hours.
		want := start
		for i, got := range dates {
			if !got.Equal(want) {
				return nil, fmt.Errorf("%w: contiguous snapshot has date %s at day %d, want %s",
					ErrMismatch, got.Format(time.RFC3339), i, want.Format(time.RFC3339))
			}
			want = want.Add(24 * time.Hour)
		}
	}
	d.Enrich()
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("%w: decoded dataset: %v", ErrMismatch, err)
	}
	return d, nil
}
