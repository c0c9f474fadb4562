package etl

import (
	"slices"
	"sync"
	"time"

	"vup/internal/geo"
)

// Context is the contextual enrichment of one day (temporal features
// are per-country: holidays and weekends differ), packed into the
// number of its feature class:
//
//	(((month−1)·4 + season)·2 + workingDay)·2 + holiday)·7 + weekday
//
// so a day costs two bytes and the classes run 0..NumContexts−1, the
// row order of the models' context encoding table
// (internal/featsel). The ISO week and the year, which no feature
// reads, come from the day's date (VehicleDataset.Date).
type Context uint16

// NumContexts is the number of context classes: 12 months, 4 seasons,
// working day or not, holiday or not, 7 weekdays.
const NumContexts = 12 * 4 * 2 * 2 * 7

// newContext packs one day's calendar fields. The weekday, month and
// season must be in range.
func newContext(weekday time.Weekday, month time.Month, season geo.Season, holiday, workingDay bool) Context {
	c := (int(month)-1)*4 + int(season)
	c = c*2 + int(b2u(workingDay))
	c = c*2 + int(b2u(holiday))
	return Context(c*7 + int(weekday))
}

// DayOfWeek returns the day's weekday.
func (c Context) DayOfWeek() time.Weekday { return time.Weekday(c % 7) }

// Holiday reports whether the day is a public holiday.
func (c Context) Holiday() bool { return c/7%2 == 1 }

// WorkingDay reports whether the day is neither a weekend day nor a
// holiday.
func (c Context) WorkingDay() bool { return c/14%2 == 1 }

// Season returns the day's season in its country's hemisphere.
func (c Context) Season() geo.Season { return geo.Season(c / 28 % 4) }

// Month returns the day's month.
func (c Context) Month() time.Month { return time.Month(c/112 + 1) }

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
	code := calendarCode(d.Country)
	var days []Context
	year := 0
	for i := from; i < n; i++ {
		date := d.Dates[i]
		if y := date.Year(); days == nil || y != year {
			year, days = y, yearContexts(code, y)
		}
		d.Context[i] = days[date.YearDay()-1]
	}
}

// ContextsFrom fills out with the contexts, in the country with the
// given code, of len(out) consecutive calendar days starting on the
// date of start. It copies them a year at a time from the memo.
func ContextsFrom(country string, start time.Time, out []Context) {
	code := calendarCode(country)
	year, yday := start.Year(), start.YearDay()
	for len(out) > 0 {
		out = out[copy(out, yearContexts(code, year)[yday-1:]):]
		year, yday = year+1, 1
	}
}

// calendarCode returns the code whose calendar the country observes:
// the code itself, or "" for every unknown code, which
// geo.NewCalendar gives one and the same calendar.
func calendarCode(country string) string {
	if _, err := geo.Lookup(country); err != nil {
		return ""
	}
	return country
}

// contextMemo holds the contexts of every (calendar code, year) asked
// for so far, each a year's days by day of the year. An entry is never
// written after it is published, so readers share it freely.
var contextMemo = struct {
	sync.RWMutex
	years map[calendarYear][]Context
}{years: make(map[calendarYear][]Context)}

type calendarYear struct {
	code string
	year int
}

// yearContexts returns the contexts of the days of one year in the
// calendar with the given code, indexed by day of the year minus one,
// building them on first use.
func yearContexts(code string, year int) []Context {
	key := calendarYear{code, year}
	contextMemo.RLock()
	days, ok := contextMemo.years[key]
	contextMemo.RUnlock()
	if ok {
		return days
	}
	days = buildYear(code, year)
	contextMemo.Lock()
	defer contextMemo.Unlock()
	if prior, ok := contextMemo.years[key]; ok {
		return prior
	}
	contextMemo.years[key] = days
	return days
}

// buildYear steps through the civil dates of one year with integer
// arithmetic, asking the year's calendar about each day.
func buildYear(code string, year int) []Context {
	cal := geo.NewCalendar(code, year)
	days := make([]Context, 0, 366)
	for m := time.January; m <= time.December; m++ {
		season := cal.Season(m)
		for range cal.MonthDays(m) {
			yday := len(days) + 1
			days = append(days, newContext(cal.Weekday(yday), m, season, cal.IsHoliday(yday), cal.IsWorkingDay(yday)))
		}
	}
	return days
}
