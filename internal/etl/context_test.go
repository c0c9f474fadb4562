package etl

import (
	"fmt"
	"testing"
	"time"

	"vup/internal/geo"
)

// contextOn derives one day's context from its date alone: weekday,
// ISO week, month and year from the time package, holidays from the
// country's calendar for that year. Stepped contexts must equal it.
func contextOn(country string, date time.Time) Context {
	hemisphere := geo.Northern
	if c, err := geo.Lookup(country); err == nil {
		hemisphere = c.Hemisphere
	}
	cal := geo.NewCalendar(country, date.Year())
	_, week := date.ISOWeek()
	return Context{
		DayOfWeek:  date.Weekday(),
		WeekOfYear: week,
		Month:      date.Month(),
		Season:     geo.SeasonOf(date, hemisphere),
		Year:       date.Year(),
		Holiday:    cal.IsHoliday(date.YearDay()),
		WorkingDay: cal.IsWorkingDay(date.YearDay()),
	}
}

// calendarDataset is an n-day dataset carrying only what Enrich reads.
func calendarDataset(country string, start time.Time, n int) *VehicleDataset {
	return &VehicleDataset{VehicleID: "cal-" + country, Country: country, Start: start, Hours: make([]float64, n), Observed: make([]bool, n)}
}

func checkContexts(t *testing.T, d *VehicleDataset) {
	t.Helper()
	if len(d.Context) != d.Len() {
		t.Fatalf("%s: %d contexts for %d days", d.VehicleID, len(d.Context), d.Len())
	}
	for i := range d.Context {
		if want := contextOn(d.Country, d.Date(i)); d.Context[i] != want {
			t.Fatalf("%s day %d (%s): context %+v, want %+v", d.VehicleID, i, d.Date(i).Format("2006-01-02"), d.Context[i], want)
		}
	}
}

// calendarCountries spans both weekend conventions, both hemispheres,
// the non-Christian holiday set and an unknown code.
var calendarCountries = []string{"IT", "SA", "AU", "CN", "XX"}

// TestEnrichMatchesPerDateDerivation: stepping the civil date gives
// every day the context its own date gives it, across month, leap-year
// and year boundaries and the 53-week ISO years 2015 and 2020.
func TestEnrichMatchesPerDateDerivation(t *testing.T) {
	spans := []struct {
		start time.Time
		days  int
	}{
		{time.Date(2015, time.December, 20, 0, 0, 0, 0, time.UTC), 1900},
		{time.Date(2016, time.February, 28, 0, 0, 0, 0, time.UTC), 3},
		{time.Date(2020, time.December, 31, 0, 0, 0, 0, time.UTC), 1},
		{time.Date(1999, time.December, 31, 0, 0, 0, 0, time.UTC), 400},
	}
	for _, country := range calendarCountries {
		for _, s := range spans {
			d := calendarDataset(country, s.start, s.days)
			d.Enrich()
			checkContexts(t, d)
		}
	}
}

// TestEnrichExplicitDates: a gapped Subset (including indices that go
// back in time across years) keeps its days' contexts, and enriching
// it from its explicit dates derives the same ones.
func TestEnrichExplicitDates(t *testing.T) {
	for _, country := range calendarCountries {
		full := calendarDataset(country, time.Date(2015, time.December, 1, 0, 0, 0, 0, time.UTC), 1500)
		full.Enrich()
		var indices []int
		for i := 0; i < full.Len(); i += 1 + i%5 {
			indices = append(indices, i)
		}
		indices = append(indices, 3, 1400, 390, 30)
		sub, err := full.Subset(indices)
		if err != nil {
			t.Fatal(err)
		}
		kept := append([]Context(nil), sub.Context...)
		sub.Enrich()
		for k := range kept {
			if sub.Context[k] != kept[k] {
				t.Fatalf("%s subset day %d: re-enriched %+v, kept %+v", country, k, sub.Context[k], kept[k])
			}
		}
		checkContexts(t, sub)
	}
}

// TestEnrichFromMatchesEnrich: deriving only appended days, whether
// the series stays contiguous or turns explicit with an out-of-step
// day, equals enriching the grown series from scratch.
func TestEnrichFromMatchesEnrich(t *testing.T) {
	start := time.Date(2019, time.December, 10, 0, 0, 0, 0, time.UTC)
	for _, country := range calendarCountries {
		// Contiguous: 25 days, then 30 more across the year boundary.
		d := calendarDataset(country, start, 25)
		d.Enrich()
		d.Hours = append(d.Hours, make([]float64, 30)...)
		d.Observed = append(d.Observed, make([]bool, 30)...)
		d.EnrichFrom(25)
		checkContexts(t, d)

		// Out of step: explicit dates appear with a 400-day jump.
		e := calendarDataset(country, start, 25)
		e.Enrich()
		e.Dates = make([]time.Time, 25)
		for i := range e.Dates {
			e.Dates[i] = start.AddDate(0, 0, i)
		}
		for k := 0; k < 3; k++ {
			e.Hours = append(e.Hours, 0)
			e.Observed = append(e.Observed, false)
			e.Dates = append(e.Dates, start.AddDate(0, 0, 424+k))
		}
		e.EnrichFrom(25)
		checkContexts(t, e)
		fresh := e.Clone()
		fresh.Enrich()
		for i := range fresh.Context {
			if e.Context[i] != fresh.Context[i] {
				t.Fatalf("%s day %d: incremental %+v, full %+v", country, i, e.Context[i], fresh.Context[i])
			}
		}
	}
}

// TestEnrichFromBounds: a from beyond the series or the existing
// contexts, or below zero, still leaves every day with its context.
func TestEnrichFromBounds(t *testing.T) {
	start := time.Date(2016, time.December, 30, 0, 0, 0, 0, time.UTC)
	for _, from := range []int{-3, 0, 5, 10, 40} {
		d := calendarDataset("IT", start, 10)
		d.Context = make([]Context, 5)
		ContextsFrom(d.Country, start, d.Context)
		d.EnrichFrom(from)
		checkContexts(t, d)
	}
	// Shrunk series: stale contexts past the end are dropped.
	d := calendarDataset("IT", start, 12)
	d.Enrich()
	d.Hours, d.Observed = d.Hours[:4], d.Observed[:4]
	d.EnrichFrom(4)
	checkContexts(t, d)
}

func BenchmarkEnrich(b *testing.B) {
	for _, days := range []int{730, 1369} {
		b.Run(fmt.Sprintf("days=%d", days), func(b *testing.B) {
			d := calendarDataset("IT", time.Date(2015, time.January, 1, 0, 0, 0, 0, time.UTC), days)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Enrich()
			}
		})
	}
}
