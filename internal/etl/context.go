package etl

import (
	"slices"
	"time"

	"vup/internal/geo"
)

// Context holds the contextual enrichment of one day (temporal
// features are per-country: holidays and weekends differ).
type Context struct {
	DayOfWeek  time.Weekday
	WeekOfYear int
	Month      time.Month
	Season     geo.Season
	Year       int
	Holiday    bool
	WorkingDay bool
}

// Enrich fills the Context array from the dataset's country and dates
// (preparation step iv).
func (d *VehicleDataset) Enrich() { d.EnrichFrom(0) }

// EnrichFrom is the incremental form of Enrich for appends: it derives
// the Context of days from..Len()-1 and keeps the first from entries,
// which must already hold the contexts of those days. A from beyond the
// current Context is lowered to its length, so a day without a context
// is always derived. EnrichFrom(0) is exactly Enrich.
func (d *VehicleDataset) EnrichFrom(from int) {
	n := d.Len()
	from = max(0, min(from, n, len(d.Context)))
	d.Context = slices.Grow(d.Context[:from], n-from)[:n]
	if from == n {
		return
	}
	if d.Dates == nil {
		ContextsFrom(d.Country, d.Date(from), d.Context[from:])
		return
	}
	day := civilDay{country: d.Country}
	for i := from; i < n; i++ {
		day.set(d.Dates[i])
		d.Context[i] = day.context()
	}
}

// ContextsFrom fills out with the contexts, in the country with the
// given code, of len(out) consecutive calendar days starting on the
// date of start.
func ContextsFrom(country string, start time.Time, out []Context) {
	if len(out) == 0 {
		return
	}
	day := civilDay{country: country}
	day.set(start)
	out[0] = day.context()
	for i := 1; i < len(out); i++ {
		day.next()
		out[i] = day.context()
	}
}

// civilDay is a calendar date stepped with integer arithmetic, together
// with its country's calendar for the date's year. A series of n days
// builds one calendar per year it spans.
type civilDay struct {
	country string
	cal     *geo.Calendar
	month   time.Month
	mday    int
	yday    int
}

// set moves to the date of t, building a calendar only when the year
// changes.
func (c *civilDay) set(t time.Time) {
	y, m, d := t.Date()
	if c.cal == nil || c.cal.Year() != y {
		c.cal = geo.NewCalendar(c.country, y)
	}
	c.month, c.mday, c.yday = m, d, c.cal.YearDay(m, d)
}

// next moves to the following day.
func (c *civilDay) next() {
	c.yday++
	if c.mday++; c.mday <= c.cal.MonthDays(c.month) {
		return
	}
	c.mday = 1
	if c.month++; c.month <= time.December {
		return
	}
	c.month, c.yday = time.January, 1
	c.cal = geo.NewCalendar(c.country, c.cal.Year()+1)
}

func (c *civilDay) context() Context {
	return Context{
		DayOfWeek:  c.cal.Weekday(c.yday),
		WeekOfYear: c.cal.ISOWeek(c.yday),
		Month:      c.month,
		Season:     c.cal.Season(c.month),
		Year:       c.cal.Year(),
		Holiday:    c.cal.IsHoliday(c.yday),
		WorkingDay: c.cal.IsWorkingDay(c.yday),
	}
}
