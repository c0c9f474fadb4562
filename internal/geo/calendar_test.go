package geo

import (
	"fmt"
	"testing"
	"time"
)

// checkCalendarYear compares the calendars of every code for year y
// against the reference functions on every day of the year.
func checkCalendarYear(t *testing.T, codes []string, y int) {
	t.Helper()
	cals := make([]*Calendar, len(codes))
	for i, code := range codes {
		cals[i] = NewCalendar(code, y)
		if cals[i].Year() != y {
			t.Fatalf("NewCalendar(%s, %d).Year() = %d", code, y, cals[i].Year())
		}
	}
	for d := date(y, time.January, 1); d.Year() == y; d = d.AddDate(0, 0, 1) {
		yday := d.YearDay()
		cal := cals[0]
		if got := cal.YearDay(d.Month(), d.Day()); got != yday {
			t.Fatalf("%v: YearDay = %d, want %d", d.Format("2006-01-02"), got, yday)
		}
		if lastOfMonth := d.AddDate(0, 0, 1).Day() == 1; lastOfMonth != (d.Day() == cal.MonthDays(d.Month())) {
			t.Fatalf("%v: MonthDays(%v) = %d", d.Format("2006-01-02"), d.Month(), cal.MonthDays(d.Month()))
		}
		if got := cal.Weekday(yday); got != d.Weekday() {
			t.Fatalf("%v: Weekday = %v, want %v", d.Format("2006-01-02"), got, d.Weekday())
		}
		if got, want := cal.ISOWeek(yday), refWeekOfYear(d); got != want {
			t.Fatalf("%v: ISOWeek = %d, want %d", d.Format("2006-01-02"), got, want)
		}
		for i, code := range codes {
			working := refIsWorkingDay(code, d)
			if got := cals[i].IsWorkingDay(yday); got != working {
				t.Fatalf("%s %v: IsWorkingDay = %v, want %v", code, d.Format("2006-01-02"), got, working)
			}
			// A working day is no holiday by definition; asking the
			// reference only on the other days halves the sweep's cost.
			holiday := false
			if !working {
				holiday, _ = refIsHoliday(code, d)
			}
			if got := cals[i].IsHoliday(yday); got != holiday {
				t.Fatalf("%s %v: IsHoliday = %v, want %v", code, d.Format("2006-01-02"), got, holiday)
			}
		}
	}
}

// TestCalendarMatchesReference: for every registered country and an
// unknown code, the per-year calendar answers exactly what the
// reference functions answer, on every day from 1990 to 2060 — a span
// covering every weekday for Jan 1, leap and common years, 52- and
// 53-week ISO years and the full range of Easter dates' neighbours.
// The reference functions dominate the cost, so the decades run as
// parallel subtests.
func TestCalendarMatchesReference(t *testing.T) {
	codes := append(Codes(), "XX")
	for from := 1990; from <= 2060; from += 10 {
		t.Run(fmt.Sprintf("years=%d", from), func(t *testing.T) {
			t.Parallel()
			for y := from; y < from+10 && y <= 2060; y++ {
				checkCalendarYear(t, codes, y)
			}
		})
	}
}

// TestCalendarCenturyYears covers the Gregorian leap-year exceptions
// and the proleptic calendar's edges, which 1990–2060 does not reach.
func TestCalendarCenturyYears(t *testing.T) {
	codes := []string{"IT", "SA", "CN", "XX"}
	for _, y := range []int{1, 2, 100, 400, 1582, 1600, 1700, 1800, 1900, 2100, 2400, 9999} {
		checkCalendarYear(t, codes, y)
	}
}

// TestCalendarSeasons: each country's calendar carries its hemisphere.
func TestCalendarSeasons(t *testing.T) {
	for _, c := range All() {
		cal := NewCalendar(c.Code, 2017)
		for m := time.January; m <= time.December; m++ {
			if got, want := cal.Season(m), SeasonOf(date(2017, m, 1), c.Hemisphere); got != want {
				t.Errorf("%s %v: season %v, want %v", c.Code, m, got, want)
			}
		}
	}
	if NewCalendar("XX", 2017).Season(time.January) != Winter {
		t.Error("unknown code should default to the northern hemisphere")
	}
}
