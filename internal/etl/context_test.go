package etl

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"vup/internal/canbus"
	"vup/internal/geo"
)

// contextOn derives one day's context from its date alone: weekday
// and month from the time package, season from the hemisphere,
// holidays from the country's calendar for that year. Memoized
// contexts must equal it.
func contextOn(country string, date time.Time) Context {
	hemisphere := geo.Northern
	if c, err := geo.Lookup(country); err == nil {
		hemisphere = c.Hemisphere
	}
	cal := geo.NewCalendar(country, date.Year())
	return newContext(date.Weekday(), date.Month(), geo.SeasonOf(date, hemisphere),
		cal.IsHoliday(date.YearDay()), cal.IsWorkingDay(date.YearDay()))
}

// describe spells out a context's fields for failure messages.
func describe(c Context) string {
	return fmt.Sprintf("#%d{%s %s %s holiday=%t working=%t}", uint16(c), c.DayOfWeek(), c.Month(), c.Season(), c.Holiday(), c.WorkingDay())
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
			t.Fatalf("%s day %d (%s): context %s, want %s", d.VehicleID, i, d.Date(i).Format("2006-01-02"), describe(d.Context[i]), describe(want))
		}
	}
}

// calendarCountries spans both weekend conventions, both hemispheres,
// the non-Christian holiday set and an unknown code.
var calendarCountries = []string{"IT", "SA", "AU", "CN", "XX"}

// TestEnrichMatchesPerDateDerivation: copying runs out of the per-year
// memo gives every day the context its own date gives it, for runs
// that start mid-year, end on a year's last day, stay inside one year
// or cross several, leap days and a common centennial year included.
func TestEnrichMatchesPerDateDerivation(t *testing.T) {
	spans := []struct {
		start string
		days  int
	}{
		{"2015-12-20", 1900},
		{"2016-02-28", 3},
		{"2015-02-28", 2},
		{"2020-12-31", 1},
		{"2019-12-31", 2},
		{"2020-01-01", 366},
		{"2020-01-01", 367},
		{"2017-06-15", 200},
		{"2015-07-04", 1369},
		{"1999-12-31", 400},
		{"2099-03-01", 400},
		{"2018-05-05", 0},
	}
	for _, country := range calendarCountries {
		for _, s := range spans {
			start, err := time.Parse(time.DateOnly, s.start)
			if err != nil {
				t.Fatal(err)
			}
			d := calendarDataset(country, start, s.days)
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
				t.Fatalf("%s subset day %d: re-enriched %s, kept %s", country, k, describe(sub.Context[k]), describe(kept[k]))
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
				t.Fatalf("%s day %d: incremental %s, full %s", country, i, describe(e.Context[i]), describe(fresh.Context[i]))
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

// TestContextPacking: every combination of calendar fields packs into
// its own class below NumContexts and unpacks to the same fields.
func TestContextPacking(t *testing.T) {
	seen := make(map[Context]bool, NumContexts)
	for m := time.January; m <= time.December; m++ {
		for s := geo.Season(0); s < 4; s++ {
			for _, work := range []bool{false, true} {
				for _, hol := range []bool{false, true} {
					for wd := time.Sunday; wd <= time.Saturday; wd++ {
						c := newContext(wd, m, s, hol, work)
						if int(c) >= NumContexts || seen[c] {
							t.Fatalf("%s %s %s holiday=%t working=%t: class %d out of range or reused", wd, m, s, hol, work, c)
						}
						seen[c] = true
						if c.DayOfWeek() != wd || c.Month() != m || c.Season() != s || c.Holiday() != hol || c.WorkingDay() != work {
							t.Fatalf("%s %s %s holiday=%t working=%t: unpacked %s", wd, m, s, hol, work, describe(c))
						}
					}
				}
			}
		}
	}
}

// TestContextMemo: each memoized year holds one context per day, equal
// to the per-date derivation, for every registered country and the
// unknown codes, which all share one year array.
func TestContextMemo(t *testing.T) {
	codes := append(geo.Codes(), calendarCountries...)
	for _, code := range codes {
		for _, year := range []int{1999, 2000, 2015, 2016, 2019, 2020, 2100} {
			days := yearContexts(calendarCode(code), year)
			jan1 := time.Date(year, time.January, 1, 0, 0, 0, 0, time.UTC)
			if n := time.Date(year, time.December, 31, 0, 0, 0, 0, time.UTC).YearDay(); len(days) != n {
				t.Fatalf("%s %d: %d memoized days, want %d", code, year, len(days), n)
			}
			for i, c := range days {
				date := jan1.AddDate(0, 0, i)
				if want := contextOn(code, date); c != want {
					t.Fatalf("%s %s: memoized %s, want %s", code, date.Format("2006-01-02"), describe(c), describe(want))
				}
			}
		}
	}
	unknown := yearContexts(calendarCode("XX"), 2017)
	for _, code := range []string{"", "ZZ", "xx"} {
		if days := yearContexts(calendarCode(code), 2017); &days[0] != &unknown[0] {
			t.Errorf("unknown code %q has its own memo entry", code)
		}
	}
}

// TestToTableCalendarColumns: the relational form's calendar columns
// come out as the per-day calendar gives them: the ISO week and the
// year (now read from the date) as geo.Calendar numbers them, across
// the 53-week ISO years 2015 and 2020, and the packed fields unpacked.
// It covers a contiguous and an explicit-dates dataset.
func TestToTableCalendarColumns(t *testing.T) {
	for _, country := range calendarCountries {
		d := calendarDataset(country, time.Date(2014, time.December, 25, 0, 0, 0, 0, time.UTC), 2300)
		d.Channels = map[string][]float64{}
		for _, ch := range canbus.AnalogChannels() {
			d.Channels[ch] = make([]float64, d.Len())
		}
		d.Enrich()
		var indices []int
		for i := d.Len() - 1; i >= 0; i -= 1 + i%9 {
			indices = append(indices, i)
		}
		sub, err := d.Subset(indices)
		if err != nil {
			t.Fatal(err)
		}
		for _, ds := range []*VehicleDataset{d, sub} {
			tab, err := ds.ToTable()
			if err != nil {
				t.Fatal(err)
			}
			ints := func(name string) []int64 {
				col, err := tab.IntCol(name)
				if err != nil {
					t.Fatal(err)
				}
				return col
			}
			bools := func(name string) []bool {
				col, err := tab.BoolCol(name)
				if err != nil {
					t.Fatal(err)
				}
				return col
			}
			dow, week, month, season, year := ints("day_of_week"), ints("week_of_year"), ints("month"), ints("season"), ints("year")
			holiday, working := bools("holiday"), bools("working_day")
			for i := 0; i < ds.Len(); i++ {
				date := ds.Date(i)
				cal := geo.NewCalendar(country, date.Year())
				want := contextOn(country, date)
				got := []any{dow[i], week[i], month[i], season[i], year[i], holiday[i], working[i]}
				exp := []any{int64(want.DayOfWeek()), int64(cal.ISOWeek(date.YearDay())), int64(want.Month()), int64(want.Season()),
					int64(cal.Year()), want.Holiday(), want.WorkingDay()}
				if !reflect.DeepEqual(got, exp) {
					t.Fatalf("%s %s: calendar columns %v, want %v", country, date.Format("2006-01-02"), got, exp)
				}
			}
		}
	}
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
