package geo

import (
	"testing"
	"time"
)

func date(y int, m time.Month, d int) time.Time {
	return time.Date(y, m, d, 0, 0, 0, 0, time.UTC)
}

func TestLookup(t *testing.T) {
	c, err := Lookup("IT")
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "Italy" || c.Hemisphere != Northern || c.Region != "Europe" {
		t.Errorf("Italy = %+v", c)
	}
	if _, err := Lookup("XX"); err == nil {
		t.Error("expected error for unknown code")
	}
}

func TestAllSortedAndUnique(t *testing.T) {
	all := All()
	if len(all) < 40 {
		t.Fatalf("registry too small: %d", len(all))
	}
	seen := map[string]bool{}
	prev := ""
	for _, c := range all {
		if c.Code <= prev {
			t.Fatalf("not sorted at %s", c.Code)
		}
		if seen[c.Code] {
			t.Fatalf("duplicate %s", c.Code)
		}
		seen[c.Code] = true
		prev = c.Code
	}
	if len(Codes()) != len(all) {
		t.Error("Codes length mismatch")
	}
}

func TestHemispheres(t *testing.T) {
	au, _ := Lookup("AU")
	if au.Hemisphere != Southern {
		t.Error("Australia should be southern")
	}
	de, _ := Lookup("DE")
	if de.Hemisphere != Northern {
		t.Error("Germany should be northern")
	}
	if Northern.String() != "northern" || Southern.String() != "southern" {
		t.Error("Hemisphere String wrong")
	}
}

func TestWeekendConventions(t *testing.T) {
	it, _ := Lookup("IT")
	// 2017-01-07 is a Saturday, 2017-01-09 a Monday.
	if !it.IsWeekend(date(2017, time.January, 7)) {
		t.Error("Italian Saturday should be weekend")
	}
	if it.IsWeekend(date(2017, time.January, 9)) {
		t.Error("Italian Monday should not be weekend")
	}
	sa, _ := Lookup("SA")
	// 2017-01-06 is a Friday.
	if !sa.IsWeekend(date(2017, time.January, 6)) {
		t.Error("Saudi Friday should be weekend")
	}
	if sa.IsWeekend(date(2017, time.January, 8)) {
		t.Error("Saudi Sunday should not be weekend")
	}
}

func TestEasterKnownDates(t *testing.T) {
	// Verified reference dates of Easter Sunday.
	known := map[int]time.Time{
		2015: date(2015, time.April, 5),
		2016: date(2016, time.March, 27),
		2017: date(2017, time.April, 16),
		2018: date(2018, time.April, 1),
		2019: date(2019, time.April, 21),
		2024: date(2024, time.March, 31),
	}
	for y, want := range known {
		if got := Easter(y); !got.Equal(want) {
			t.Errorf("Easter(%d) = %v, want %v", y, got, want)
		}
	}
}

func TestEasterAlwaysSunday(t *testing.T) {
	for y := 1990; y <= 2050; y++ {
		e := Easter(y)
		if e.Weekday() != time.Sunday {
			t.Fatalf("Easter(%d) = %v is a %v", y, e, e.Weekday())
		}
		// Easter falls between March 22 and April 25 inclusive.
		lo := date(y, time.March, 22)
		hi := date(y, time.April, 25)
		if e.Before(lo) || e.After(hi) {
			t.Fatalf("Easter(%d) = %v outside canonical range", y, e)
		}
	}
}

func TestIsHoliday(t *testing.T) {
	cases := []struct {
		code string
		d    time.Time
		want bool
	}{
		{"IT", date(2017, time.January, 1), true},   // New Year everywhere
		{"IT", date(2017, time.December, 25), true}, // Christmas
		{"IT", date(2017, time.August, 15), true},   // Ferragosto
		{"IT", date(2017, time.April, 17), true},    // Easter Monday 2017
		{"IT", date(2017, time.April, 14), true},    // Good Friday 2017
		{"IT", date(2017, time.March, 15), false},
		{"US", date(2017, time.July, 4), true},
		{"DE", date(2017, time.October, 3), true},
		{"CN", date(2017, time.October, 1), true},
		{"CN", date(2017, time.December, 25), false}, // no Christian calendar
		{"SA", date(2017, time.December, 25), false},
		{"XX", date(2017, time.January, 1), true}, // unknown code: common rules
		{"XX", date(2017, time.December, 25), true},
	}
	for _, c := range cases {
		ref, _ := refIsHoliday(c.code, c.d)
		got := NewCalendar(c.code, c.d.Year()).IsHoliday(c.d.YearDay())
		if got != c.want || ref != c.want {
			t.Errorf("holiday(%s, %v): calendar %v, reference %v, want %v", c.code, c.d.Format("2006-01-02"), got, ref, c.want)
		}
	}
}

func TestHolidayNames(t *testing.T) {
	ok, name := refIsHoliday("IT", date(2017, time.December, 25))
	if !ok || name != "Christmas Day" {
		t.Errorf("got %v %q", ok, name)
	}
	ok, name = refIsHoliday("US", date(2018, time.July, 4))
	if !ok || name != "Independence Day" {
		t.Errorf("got %v %q", ok, name)
	}
}

func TestIsWorkingDay(t *testing.T) {
	cases := []struct {
		code string
		d    time.Time
		want bool
		why  string
	}{
		{"IT", date(2017, time.June, 7), true, "plain Wednesday"},
		{"IT", date(2017, time.June, 10), false, "Saturday"},
		{"IT", date(2017, time.December, 25), false, "Christmas on a Monday"},
		{"SA", date(2017, time.June, 9), false, "Saudi Friday"},
		{"SA", date(2017, time.June, 11), true, "Saudi Sunday"},
		{"XX", date(2017, time.June, 10), false, "unknown-country Saturday (Sat/Sun default)"},
	}
	for _, c := range cases {
		got := NewCalendar(c.code, c.d.Year()).IsWorkingDay(c.d.YearDay())
		if ref := refIsWorkingDay(c.code, c.d); got != c.want || ref != c.want {
			t.Errorf("%s: calendar %v, reference %v, want %v", c.why, got, ref, c.want)
		}
	}
}

func TestSeasonOf(t *testing.T) {
	cases := []struct {
		d    time.Time
		h    Hemisphere
		want Season
	}{
		{date(2017, time.January, 15), Northern, Winter},
		{date(2017, time.January, 15), Southern, Summer},
		{date(2017, time.April, 15), Northern, Spring},
		{date(2017, time.April, 15), Southern, Autumn},
		{date(2017, time.July, 15), Northern, Summer},
		{date(2017, time.July, 15), Southern, Winter},
		{date(2017, time.October, 15), Northern, Autumn},
		{date(2017, time.October, 15), Southern, Spring},
		{date(2017, time.December, 1), Northern, Winter},
	}
	for _, c := range cases {
		if got := SeasonOf(c.d, c.h); got != c.want {
			t.Errorf("SeasonOf(%v, %v) = %v, want %v", c.d.Format("2006-01-02"), c.h, got, c.want)
		}
	}
}

func TestSeasonString(t *testing.T) {
	if Winter.String() != "winter" || Spring.String() != "spring" ||
		Summer.String() != "summer" || Autumn.String() != "autumn" {
		t.Error("Season String wrong")
	}
	if Season(9).String() != "unknown" {
		t.Error("invalid season should stringify to unknown")
	}
}

func TestSeasonsCoverYearProperty(t *testing.T) {
	// Every day of a year maps to exactly one valid season, and over a
	// year each season appears roughly a quarter of the time.
	counts := map[Season]int{}
	d := date(2017, time.January, 1)
	for d.Year() == 2017 {
		s := SeasonOf(d, Northern)
		if s < Winter || s > Autumn {
			t.Fatalf("invalid season %v", s)
		}
		counts[s]++
		d = d.AddDate(0, 0, 1)
	}
	for s, n := range counts {
		if n < 85 || n > 95 {
			t.Errorf("season %v has %d days", s, n)
		}
	}
}

func TestWeekOfYear(t *testing.T) {
	cases := []struct {
		d    time.Time
		want int
	}{
		{date(2017, time.January, 5), 1},
		{date(2017, time.December, 28), 52},
		{date(2016, time.January, 1), 53},  // Friday: last week of 2015, a 53-week year
		{date(2018, time.December, 31), 1}, // Monday: week 1 of 2019
		{date(2020, time.December, 31), 53},
	}
	for _, c := range cases {
		got := NewCalendar("IT", c.d.Year()).ISOWeek(c.d.YearDay())
		if ref := refWeekOfYear(c.d); got != c.want || ref != c.want {
			t.Errorf("week of %v: calendar %d, reference %d, want %d", c.d.Format("2006-01-02"), got, ref, c.want)
		}
	}
}
