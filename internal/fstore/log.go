package fstore

// The append log: incremental days land here between snapshots, one
// length-prefixed CRC-framed record per Append call, and are folded
// back into the datasets at Load. Records carry a monotonic sequence
// number; the manifest remembers, per vehicle, the highest sequence
// already folded into its snapshot, so replay after a partial
// compaction never applies a day twice. See FORMAT.md §4 for the
// byte-level framing.

import (
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"sort"
	"time"

	"vup/internal/etl"
	"vup/internal/relational"
)

// Day is one incremental calendar day of a vehicle's series: the
// payload of an append-log record and the unit of streaming ingest.
type Day struct {
	Date     time.Time
	Hours    float64
	Observed bool
	// Channels must carry exactly the channel set of the dataset it is
	// appended to; a drifting channel set fails with ErrMismatch
	// instead of silently zero-filling.
	Channels map[string]float64
}

// recordAppendDays is the only record type of log format v1.
const recordAppendDays = 1

// logRecord is one parsed append-log record.
type logRecord struct {
	seq       uint64
	vehicleID string
	days      []Day
	// offset is the byte position of the record's framing header in
	// the log file, for error reporting.
	offset int64
}

// encodeLogRecord frames one append record:
// u32 payload length | u32 CRC-32C(payload) | payload.
func encodeLogRecord(seq uint64, vehicleID string, days []Day) []byte {
	payload := make([]byte, 0, 32+len(days)*64)
	payload = appendU64(payload, seq)
	payload = append(payload, recordAppendDays)
	payload = appendString16(payload, vehicleID)
	payload = appendU16(payload, uint16(len(days)))
	for _, day := range days {
		payload = appendTime(payload, day.Date)
		payload = appendU64(payload, math.Float64bits(day.Hours))
		if day.Observed {
			payload = append(payload, 1)
		} else {
			payload = append(payload, 0)
		}
		names := make([]string, 0, len(day.Channels))
		for name := range day.Channels {
			names = append(names, name)
		}
		sort.Strings(names)
		payload = appendU16(payload, uint16(len(names)))
		for _, name := range names {
			payload = appendString16(payload, name)
			payload = appendU64(payload, math.Float64bits(day.Channels[name]))
		}
	}
	buf := make([]byte, 0, 8+len(payload))
	buf = appendU32(buf, uint32(len(payload)))
	buf = appendU32(buf, crc32.Checksum(payload, castagnoli))
	return append(buf, payload...)
}

// parseLog walks the whole log buffer and returns every record. Any
// malformation — a torn tail from a crash mid-write, a flipped bit, a
// short frame — fails with a *relational.FormatError carrying the
// absolute byte offset (the Dir loader wraps in the file name).
func parseLog(data []byte) ([]logRecord, error) {
	var out []logRecord
	off := 0
	for off < len(data) {
		recStart := off
		if len(data)-off < 8 {
			return nil, formatErrf(recStart, relational.ErrTruncated, "torn record framing: %d bytes left, need 8", len(data)-off)
		}
		r := newReader(data)
		r.off = off
		plen, err := r.u32()
		if err != nil {
			return nil, err
		}
		sum, err := r.u32()
		if err != nil {
			return nil, err
		}
		payload, err := r.bytes(int(plen))
		if err != nil {
			return nil, formatErrf(recStart, relational.ErrTruncated, "torn record: payload of %d bytes, %d left after framing", plen, len(data)-off-8)
		}
		if got := crc32.Checksum(payload, castagnoli); got != sum {
			return nil, formatErrf(recStart+4, relational.ErrChecksum, "record payload: computed %08x, stored %08x", got, sum)
		}
		rec, err := parseLogPayload(payload, recStart+8)
		if err != nil {
			return nil, err
		}
		rec.offset = int64(recStart)
		if n := len(out); n > 0 && rec.seq <= out[n-1].seq {
			return nil, formatErrf(recStart+8, relational.ErrCorrupt, "sequence %d not after %d", rec.seq, out[n-1].seq)
		}
		out = append(out, rec)
		off = r.off
	}
	return out, nil
}

// parseLogPayload decodes one CRC-verified record payload. base is the
// payload's offset in the log file, so faults report absolute
// positions.
func parseLogPayload(payload []byte, base int) (logRecord, error) {
	r := newReader(payload)
	abs := func(off int) int { return base + off }
	seq, err := r.u64()
	if err != nil {
		return logRecord{}, shiftOffset(err, base)
	}
	typOff := r.off
	typ, err := r.u8()
	if err != nil {
		return logRecord{}, shiftOffset(err, base)
	}
	if typ != recordAppendDays {
		return logRecord{}, formatErrf(abs(typOff), relational.ErrCorrupt, "unknown record type %d", typ)
	}
	vehicleID, err := r.string16()
	if err != nil {
		return logRecord{}, shiftOffset(err, base)
	}
	if vehicleID == "" {
		return logRecord{}, formatErrf(abs(r.off), relational.ErrCorrupt, "empty vehicle id")
	}
	count, err := r.u16()
	if err != nil {
		return logRecord{}, shiftOffset(err, base)
	}
	days := make([]Day, 0, count)
	for i := 0; i < int(count); i++ {
		date, err := r.time()
		if err != nil {
			return logRecord{}, shiftOffset(err, base)
		}
		bits, err := r.u64()
		if err != nil {
			return logRecord{}, shiftOffset(err, base)
		}
		obsOff := r.off
		obs, err := r.u8()
		if err != nil {
			return logRecord{}, shiftOffset(err, base)
		}
		if obs > 1 {
			return logRecord{}, formatErrf(abs(obsOff), relational.ErrCorrupt, "observed byte %d", obs)
		}
		nchan, err := r.u16()
		if err != nil {
			return logRecord{}, shiftOffset(err, base)
		}
		day := Day{Date: date, Hours: math.Float64frombits(bits), Observed: obs == 1, Channels: make(map[string]float64, nchan)}
		for c := 0; c < int(nchan); c++ {
			name, err := r.string16()
			if err != nil {
				return logRecord{}, shiftOffset(err, base)
			}
			vbits, err := r.u64()
			if err != nil {
				return logRecord{}, shiftOffset(err, base)
			}
			if _, dup := day.Channels[name]; dup {
				return logRecord{}, formatErrf(abs(r.off), relational.ErrCorrupt, "duplicate channel %q", name)
			}
			day.Channels[name] = math.Float64frombits(vbits)
		}
		days = append(days, day)
	}
	if r.off != len(payload) {
		return logRecord{}, formatErrf(abs(r.off), relational.ErrCorrupt, "%d trailing bytes in record payload", len(payload)-r.off)
	}
	return logRecord{seq: seq, vehicleID: vehicleID, days: days}, nil
}

// shiftOffset rebases a *relational.FormatError to an absolute file
// offset.
func shiftOffset(err error, base int) error {
	var fe *relational.FormatError
	if errors.As(err, &fe) {
		return &relational.FormatError{Offset: fe.Offset + int64(base), Err: fe.Err, Detail: fe.Detail}
	}
	return err
}

// applyDays appends incremental days to a dataset in place without
// deriving their Context (a replay enriches the appended days once
// after its last record; use ApplyDays for a self-contained append).
// The day's channel set must match the dataset's exactly.
func applyDays(d *etl.VehicleDataset, days []Day) error {
	for _, day := range days {
		if len(day.Channels) != len(d.Channels) {
			return fmt.Errorf("%w: day %s carries %d channels, dataset %q has %d",
				ErrMismatch, day.Date.Format("2006-01-02"), len(day.Channels), d.VehicleID, len(d.Channels))
		}
		for name := range day.Channels {
			if _, ok := d.Channels[name]; !ok {
				return fmt.Errorf("%w: day %s carries unknown channel %q for dataset %q",
					ErrMismatch, day.Date.Format("2006-01-02"), name, d.VehicleID)
			}
		}
		next := d.Date(d.Len()-1).AddDate(0, 0, 1)
		if d.Dates == nil && !day.Date.Equal(next) {
			// The contiguity invariant breaks: materialize explicit
			// dates before appending the out-of-step day.
			dates := make([]time.Time, d.Len())
			for i := range dates {
				dates[i] = d.Date(i)
			}
			d.Dates = dates
		}
		d.Hours = append(d.Hours, day.Hours)
		d.Observed = append(d.Observed, day.Observed)
		if d.Dates != nil {
			d.Dates = append(d.Dates, day.Date)
		}
		for name := range d.Channels {
			d.Channels[name] = append(d.Channels[name], day.Channels[name])
		}
	}
	return nil
}

// ApplyDays appends incremental days to a dataset, derives the Context
// of the appended days only and validates alignment — the in-memory
// half of an Append call, for callers that keep serving the dataset
// they are logging.
func ApplyDays(d *etl.VehicleDataset, days ...Day) error {
	from := d.Len()
	if err := applyDays(d, days); err != nil {
		return err
	}
	d.EnrichFrom(from)
	return d.Validate()
}
