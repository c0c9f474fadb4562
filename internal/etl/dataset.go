// Package etl implements the paper's data-preparation pipeline
// (Section 2): (i) cleaning of missing and inconsistent reports,
// (ii) normalization of continuous features, (iii) aggregation to a
// daily granularity, (iv) enrichment with contextual information and
// (v) transformation into a relational format.
package etl

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"vup/internal/canbus"
	"vup/internal/fleet"
	"vup/internal/randx"
	"vup/internal/relational"
	"vup/internal/weather"
)

// ErrEmptyDataset is returned when an operation needs at least one day.
var ErrEmptyDataset = errors.New("etl: empty dataset")

// VehicleDataset is the per-vehicle daily relation the models consume:
// aligned arrays of utilization hours, CAN channel aggregates and
// contextual features, one entry per calendar day.
type VehicleDataset struct {
	VehicleID string
	Type      fleet.Type
	ModelID   string
	Country   string
	Start     time.Time
	Hours     []float64
	// Channels maps channel name to its aligned daily aggregate.
	Channels map[string][]float64
	// Context holds the per-day contextual enrichment, two bytes a day.
	Context []Context
	// Observed flags days for which at least one report arrived; days
	// lost to connectivity outages are false and are repaired by the
	// cleaning step.
	Observed []bool
	// Dates, when non-nil, holds the explicit calendar date of every
	// day. It is nil for contiguous datasets (date = Start + i days)
	// and populated by Subset, whose kept days are generally not
	// contiguous (the next-working-day view).
	Dates []time.Time
}

// Len returns the number of days.
func (d *VehicleDataset) Len() int { return len(d.Hours) }

// Date returns the calendar date of day index i.
func (d *VehicleDataset) Date(i int) time.Time {
	if d.Dates != nil && i >= 0 && i < len(d.Dates) {
		return d.Dates[i]
	}
	return d.Start.AddDate(0, 0, i)
}

// SizeBytes estimates the dataset's resident heap footprint: the
// per-day arrays (hours, observed, context, channels, explicit dates)
// plus string and map headers. It is a deterministic accounting
// estimate, not a runtime measurement — the server's resident-memory
// budget needs a stable number that two loads of the same bytes agree
// on, which unsafe.Sizeof-walking live allocations would not give.
func (d *VehicleDataset) SizeBytes() int64 {
	const (
		headerBytes  = 96 // struct itself: strings, Start, slice headers
		contextBytes = 2  // Context: the day's packed feature class
		sliceHeader  = 24
		mapEntry     = 48 // map bucket share + string key header
	)
	n := int64(d.Len())
	size := int64(headerBytes)
	size += n * 8 // Hours
	size += n     // Observed
	size += n * contextBytes
	for name := range d.Channels {
		size += mapEntry + int64(len(name)) + sliceHeader + n*8
	}
	if d.Dates != nil {
		size += sliceHeader + n*24 // time.Time is 3 words
	}
	size += int64(len(d.VehicleID) + len(d.ModelID) + len(d.Country))
	return size
}

// Validate checks internal alignment.
func (d *VehicleDataset) Validate() error {
	n := len(d.Hours)
	if n == 0 {
		return ErrEmptyDataset
	}
	if len(d.Context) != n || len(d.Observed) != n {
		return fmt.Errorf("etl: misaligned dataset: hours %d, context %d, observed %d", n, len(d.Context), len(d.Observed))
	}
	for name, vals := range d.Channels {
		if len(vals) != n {
			return fmt.Errorf("etl: misaligned channel %q: %d values for %d days", name, len(vals), n)
		}
	}
	if d.Dates != nil && len(d.Dates) != n {
		return fmt.Errorf("etl: misaligned dates: %d for %d days", len(d.Dates), n)
	}
	return nil
}

// Fingerprint returns a 64-bit hash over the dataset's identity and
// every value the prediction pipeline reads. Datasets with equal
// fingerprints are interchangeable as model input, which makes the
// hash the data component of trained-artifact cache keys
// (internal/server's forecast cache) and the integrity check of the
// fleet store's manifest. Context is derived from country and dates,
// both covered, so it is not hashed again.
//
// The hash works on 64-bit words, folded into a state one at a time
// by fpMix. A header is folded first: VehicleID, ModelID and Country
// length-prefixed, Type, Start's Unix seconds, the explicit-dates
// flag, then the channel count and the channel names in sorted order.
// Then come the rows in day order. A row's words — hours bits,
// observed, the date's Unix seconds when Dates is explicit, then each
// channel's value bits in sorted-name order — are folded into a row
// hash, and the row hash into the state. The state after the last row
// is the fingerprint, so a series grown by k rows can be rehashed from
// its prefix's fingerprint in O(k·channels).
// internal/fstore/FORMAT.md §3.1 specifies the definition.
func (d *VehicleDataset) Fingerprint() uint64 {
	names := d.ChannelNames()
	h := fingerprintHeader(d, names)
	cols := make([][]float64, len(names))
	for j, name := range names {
		cols[j] = d.Channels[name]
	}
	return fingerprintRows(h, d.Hours, d.Observed, d.Dates, cols)
}

// fpSeed is the hash state before the first word and fpMul the odd
// multiplier of fpMix.
const (
	fpSeed = 0x9e3779b97f4a7c15
	fpMul  = 0xbf58476d1ce4e5b9
)

// fpMix folds one word into the state: an xor-multiply, which carries
// every bit of the word into the bits above it, then an xor-shift that
// carries the high bits back down. For a fixed word it is a bijection
// of the state, so two word sequences that differ in a single word
// never collide.
func fpMix(h, w uint64) uint64 {
	h = (h ^ w) * fpMul
	return h ^ h>>32
}

// fpString folds a length-prefixed string: its byte length, then its
// bytes packed little-endian into words, the last one zero-padded.
func fpString(h uint64, s string) uint64 {
	h = fpMix(h, uint64(len(s)))
	for len(s) >= 8 {
		h = fpMix(h, uint64(s[0])|uint64(s[1])<<8|uint64(s[2])<<16|uint64(s[3])<<24|
			uint64(s[4])<<32|uint64(s[5])<<40|uint64(s[6])<<48|uint64(s[7])<<56)
		s = s[8:]
	}
	if len(s) > 0 {
		var w uint64
		for i := len(s) - 1; i >= 0; i-- {
			w = w<<8 | uint64(s[i])
		}
		h = fpMix(h, w)
	}
	return h
}

// fingerprintHeader hashes the identity header; names are the
// dataset's channel names in sorted order.
func fingerprintHeader(d *VehicleDataset, names []string) uint64 {
	h := uint64(fpSeed)
	h = fpString(h, d.VehicleID)
	h = fpString(h, d.ModelID)
	h = fpString(h, d.Country)
	h = fpMix(h, uint64(d.Type))
	h = fpMix(h, uint64(d.Start.Unix()))
	h = fpMix(h, b2u(d.Dates != nil))
	h = fpMix(h, uint64(len(names)))
	for _, name := range names {
		h = fpString(h, name)
	}
	return h
}

// fingerprintRows folds rows into state h: hours, observed, dates
// (nil for a contiguous dataset) and the channel columns in
// sorted-name order, all aligned. Each row's words are folded into a
// row hash that starts from fpSeed, and the row hash is folded into h.
// Row hashes depend neither on h nor on each other, so the main loop
// computes four rows' hashes side by side: the processor runs the four
// multiply chains at once instead of waiting on one.
func fingerprintRows(h uint64, hours []float64, observed []bool, dates []time.Time, cols [][]float64) uint64 {
	n := len(hours)
	observed = observed[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		hs, os := hours[i:i+4], observed[i:i+4]
		r0 := fpMix(fpMix(fpSeed, math.Float64bits(hs[0])), b2u(os[0]))
		r1 := fpMix(fpMix(fpSeed, math.Float64bits(hs[1])), b2u(os[1]))
		r2 := fpMix(fpMix(fpSeed, math.Float64bits(hs[2])), b2u(os[2]))
		r3 := fpMix(fpMix(fpSeed, math.Float64bits(hs[3])), b2u(os[3]))
		if dates != nil {
			ds := dates[i : i+4]
			r0 = fpMix(r0, uint64(ds[0].Unix()))
			r1 = fpMix(r1, uint64(ds[1].Unix()))
			r2 = fpMix(r2, uint64(ds[2].Unix()))
			r3 = fpMix(r3, uint64(ds[3].Unix()))
		}
		for _, c := range cols {
			c := c[i : i+4]
			r0 = fpMix(r0, math.Float64bits(c[0]))
			r1 = fpMix(r1, math.Float64bits(c[1]))
			r2 = fpMix(r2, math.Float64bits(c[2]))
			r3 = fpMix(r3, math.Float64bits(c[3]))
		}
		h = fpMix(fpMix(fpMix(fpMix(h, r0), r1), r2), r3)
	}
	for ; i < n; i++ {
		r := fpMix(fpMix(fpSeed, math.Float64bits(hours[i])), b2u(observed[i]))
		if dates != nil {
			r = fpMix(r, uint64(dates[i].Unix()))
		}
		for _, c := range cols {
			r = fpMix(r, math.Float64bits(c[i]))
		}
		h = fpMix(h, r)
	}
	return h
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// ChannelNames returns the dataset's channel names in sorted order —
// the column order of its snapshot table and of its fingerprint.
func (d *VehicleDataset) ChannelNames() []string {
	names := make([]string, 0, len(d.Channels))
	for name := range d.Channels {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// FromUsage builds a dataset from a generated usage series using the
// fast channel path. rng drives the per-day sensor noise.
func FromUsage(u fleet.Unit, usage []fleet.DayUsage, rng *randx.RNG) (*VehicleDataset, error) {
	if len(usage) == 0 {
		return nil, ErrEmptyDataset
	}
	d := &VehicleDataset{
		VehicleID: u.Vehicle.ID,
		Type:      u.Vehicle.Model.Type,
		ModelID:   u.Vehicle.Model.ID(),
		Country:   u.Vehicle.Country,
		Start:     usage[0].Date,
		Hours:     make([]float64, len(usage)),
		Channels:  map[string][]float64{},
		Observed:  make([]bool, len(usage)),
	}
	for _, ch := range canbus.AnalogChannels() {
		d.Channels[ch] = make([]float64, len(usage))
	}
	for i, day := range usage {
		d.Hours[i] = day.Hours
		d.Observed[i] = true
		for name, v := range fleet.DailyChannels(u.Vehicle.Model.Type, day.Hours, rng) {
			d.Channels[name][i] = v
		}
	}
	d.Enrich()
	return d, nil
}

// FromReports builds a dataset by daily aggregation of 10-minute
// reports (preparation step iii): daily utilization hours are the sum
// of engine-on time, channel aggregates are sample-weighted means.
// Days in [start, start+days) without any report are marked
// unobserved, to be repaired by Clean.
func FromReports(v fleet.Vehicle, reports []canbus.Report, start time.Time, days int) (*VehicleDataset, error) {
	if days <= 0 {
		return nil, fmt.Errorf("etl: non-positive day count %d", days)
	}
	start = time.Date(start.Year(), start.Month(), start.Day(), 0, 0, 0, 0, time.UTC)
	d := &VehicleDataset{
		VehicleID: v.ID,
		Type:      v.Model.Type,
		ModelID:   v.Model.ID(),
		Country:   v.Country,
		Start:     start,
		Hours:     make([]float64, days),
		Channels:  map[string][]float64{},
		Observed:  make([]bool, days),
	}
	sums := map[string][]float64{}
	weights := map[string][]float64{}
	for _, ch := range canbus.AnalogChannels() {
		d.Channels[ch] = make([]float64, days)
		sums[ch] = make([]float64, days)
		weights[ch] = make([]float64, days)
	}
	for _, r := range reports {
		idx := int(r.Start.Sub(start).Hours() / 24)
		if idx < 0 || idx >= days {
			continue // outside the observation period
		}
		d.Observed[idx] = true
		d.Hours[idx] += r.EngineOnSeconds / 3600
		for name, cs := range r.Channels {
			if _, ok := sums[name]; !ok {
				continue // channel outside the study's feature set
			}
			if cs.Samples <= 0 || math.IsNaN(cs.Mean) {
				continue
			}
			sums[name][idx] += cs.Mean * float64(cs.Samples)
			weights[name][idx] += float64(cs.Samples)
		}
	}
	for name := range sums {
		for i := 0; i < days; i++ {
			if weights[name][i] > 0 {
				d.Channels[name][i] = sums[name][i] / weights[name][i]
			}
		}
	}
	d.Enrich()
	return d, nil
}

// ChanFaultCount is the channel name under which the daily count of
// active diagnostic trouble codes is attached.
const ChanFaultCount = "fault_count"

// AttachFaults adds the aligned per-day active-fault counts as the
// ChanFaultCount channel (the study's "Diagnostic Messages" feature
// class). counts must cover at least Len() days.
func (d *VehicleDataset) AttachFaults(counts []int) error {
	if err := d.Validate(); err != nil {
		return err
	}
	if len(counts) < d.Len() {
		return fmt.Errorf("etl: fault series of %d days for %d-day dataset", len(counts), d.Len())
	}
	vals := make([]float64, d.Len())
	for i := 0; i < d.Len(); i++ {
		vals[i] = float64(counts[i])
	}
	d.Channels[ChanFaultCount] = vals
	return nil
}

// AttachWeather adds the aligned daily weather series as the channels
// weather.ChanTemp and weather.ChanPrecip (the paper's future-work
// enrichment). wx must cover at least Len() days.
func (d *VehicleDataset) AttachWeather(wx []weather.Day) error {
	if err := d.Validate(); err != nil {
		return err
	}
	if len(wx) < d.Len() {
		return fmt.Errorf("etl: weather series of %d days for %d-day dataset", len(wx), d.Len())
	}
	temp := make([]float64, d.Len())
	precip := make([]float64, d.Len())
	for i := 0; i < d.Len(); i++ {
		temp[i] = wx[i].TempC
		precip[i] = wx[i].PrecipMM
	}
	d.Channels[weather.ChanTemp] = temp
	d.Channels[weather.ChanPrecip] = precip
	return nil
}

// Clone returns a deep copy sharing no mutable state with d. Unlike
// Subset over the identity index, Clone preserves a nil Dates array,
// so the copy's Fingerprint equals the original's — which is what the
// store's copy-on-write append path needs to keep cache keys stable.
func (d *VehicleDataset) Clone() *VehicleDataset {
	out := &VehicleDataset{
		VehicleID: d.VehicleID,
		Type:      d.Type,
		ModelID:   d.ModelID,
		Country:   d.Country,
		Start:     d.Start,
		Hours:     append([]float64(nil), d.Hours...),
		Channels:  make(map[string][]float64, len(d.Channels)),
		Context:   append([]Context(nil), d.Context...),
		Observed:  append([]bool(nil), d.Observed...),
	}
	for name, vals := range d.Channels {
		out.Channels[name] = append([]float64(nil), vals...)
	}
	if d.Dates != nil {
		out.Dates = append([]time.Time(nil), d.Dates...)
	}
	return out
}

// Subset returns a new dataset holding only the days at the given
// indices, in the given order. Each kept day retains its true calendar
// date (the Dates array) and context, so a compacted next-working-day
// series still knows each day's weekday, holiday status and date.
func (d *VehicleDataset) Subset(indices []int) (*VehicleDataset, error) {
	if len(indices) == 0 {
		return nil, ErrEmptyDataset
	}
	out := &VehicleDataset{
		VehicleID: d.VehicleID,
		Type:      d.Type,
		ModelID:   d.ModelID,
		Country:   d.Country,
		Start:     d.Date(indices[0]),
		Hours:     make([]float64, len(indices)),
		Channels:  make(map[string][]float64, len(d.Channels)),
		Context:   make([]Context, len(indices)),
		Observed:  make([]bool, len(indices)),
		Dates:     make([]time.Time, len(indices)),
	}
	for name := range d.Channels {
		out.Channels[name] = make([]float64, len(indices))
	}
	for k, i := range indices {
		if i < 0 || i >= d.Len() {
			return nil, fmt.Errorf("etl: subset index %d out of range [0,%d)", i, d.Len())
		}
		out.Hours[k] = d.Hours[i]
		out.Context[k] = d.Context[i]
		out.Observed[k] = d.Observed[i]
		out.Dates[k] = d.Date(i)
		for name, vals := range d.Channels {
			out.Channels[name][k] = vals[i]
		}
	}
	return out, nil
}

// ToTable transforms the dataset into its relational form
// (preparation step v). The schema is one row per day with the
// utilization target, every channel and the contextual features; the
// ISO week and the year are derived from the day's date.
func (d *VehicleDataset) ToTable() (*relational.Table, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	cols := []relational.Column{
		{Name: "vehicle_id", Type: relational.String},
		{Name: "date", Type: relational.Time},
		{Name: "hours", Type: relational.Float},
		{Name: "observed", Type: relational.Bool},
		{Name: "day_of_week", Type: relational.Int},
		{Name: "week_of_year", Type: relational.Int},
		{Name: "month", Type: relational.Int},
		{Name: "season", Type: relational.Int},
		{Name: "year", Type: relational.Int},
		{Name: "holiday", Type: relational.Bool},
		{Name: "working_day", Type: relational.Bool},
	}
	channels := canbus.AnalogChannels()
	for _, ch := range channels {
		cols = append(cols, relational.Column{Name: ch, Type: relational.Float})
	}
	schema, err := relational.NewSchema(cols...)
	if err != nil {
		return nil, err
	}
	tab := relational.NewTable(schema)
	for i := 0; i < d.Len(); i++ {
		ctx, date := d.Context[i], d.Date(i)
		_, week := date.ISOWeek()
		row := []relational.Value{
			d.VehicleID,
			date,
			d.Hours[i],
			d.Observed[i],
			int64(ctx.DayOfWeek()),
			int64(week),
			int64(ctx.Month()),
			int64(ctx.Season()),
			int64(date.Year()),
			ctx.Holiday(),
			ctx.WorkingDay(),
		}
		for _, ch := range channels {
			row = append(row, d.Channels[ch][i])
		}
		if err := tab.Append(row...); err != nil {
			return nil, err
		}
	}
	return tab, nil
}
