package geo

import "time"

// Calendar is one country's calendar for one year: its public holidays
// as a bitset over the days of the year, its weekend convention and
// its hemisphere. NewCalendar builds it from the holiday rule tables in
// O(rules); every per-day question after that is a bit test or a little
// integer arithmetic on the day of the year, with no time.Time calls.
//
// Days are numbered as time.Time.YearDay numbers them: 1 is January 1,
// 365 or 366 is December 31.
type Calendar struct {
	year       int
	leap       bool
	jan1       time.Weekday
	weekend    [2]time.Weekday
	hemisphere Hemisphere
	holidays   [6]uint64 // bit yday set when day yday is a public holiday
}

// NewCalendar builds the calendar of the country with the given code
// for one year. Unknown codes observe the common and Christian holiday
// rules, a Saturday/Sunday weekend and the northern hemisphere.
func NewCalendar(code string, year int) *Calendar {
	c := &Calendar{
		year:    year,
		leap:    isLeap(year),
		jan1:    time.Date(year, time.January, 1, 0, 0, 0, 0, time.UTC).Weekday(),
		weekend: satSun,
	}
	if country, err := Lookup(code); err == nil {
		c.weekend = country.Weekend
		c.hemisphere = country.Hemisphere
	}
	c.mark(commonRules)
	if !nonChristianCalendar[code] {
		c.mark(christianRules)
	}
	c.mark(extraRules[code])
	return c
}

// mark sets the holiday bit of every rule's day in the calendar's
// year. A rule matches by month and day, so an Easter-relative date is
// resolved to its month and day first; a day the year lacks (February
// 29 in a common year) marks nothing.
func (c *Calendar) mark(rules []holidayRule) {
	for _, r := range rules {
		m, d := r.month, r.day
		if m == 0 {
			e := Easter(c.year).AddDate(0, 0, r.easterOffset)
			m, d = e.Month(), e.Day()
		}
		if d < 1 || d > c.MonthDays(m) {
			continue
		}
		yday := c.YearDay(m, d)
		c.holidays[yday/64] |= 1 << (yday % 64)
	}
}

// Year returns the calendar's year.
func (c *Calendar) Year() int { return c.year }

// MonthDays returns the number of days of month m in the calendar's
// year.
func (c *Calendar) MonthDays(m time.Month) int {
	if m == time.February && c.leap {
		return 29
	}
	return int(monthDays[m])
}

// YearDay returns the day of the year of month m, day d.
func (c *Calendar) YearDay(m time.Month, d int) int {
	yday := int(daysBefore[m]) + d
	if c.leap && m > time.February {
		yday++
	}
	return yday
}

// Weekday returns the weekday of day yday.
func (c *Calendar) Weekday(yday int) time.Weekday {
	return time.Weekday((int(c.jan1) + yday - 1) % 7)
}

// IsHoliday reports whether day yday is a public holiday.
func (c *Calendar) IsHoliday(yday int) bool {
	return c.holidays[yday/64]&(1<<(yday%64)) != 0
}

// IsWorkingDay reports whether day yday is a working day: neither a
// weekend day nor a public holiday.
func (c *Calendar) IsWorkingDay(yday int) bool {
	wd := c.Weekday(yday)
	return wd != c.weekend[0] && wd != c.weekend[1] && !c.IsHoliday(yday)
}

// ISOWeek returns the ISO 8601 week number of day yday. Weeks start on
// Monday and week 1 holds the year's first Thursday, so the first days
// of January can fall in the last week of the previous year and the
// last days of December in week 1 of the next.
func (c *Calendar) ISOWeek(yday int) int {
	wd := (int(c.jan1)+yday+5)%7 + 1 // Monday = 1 … Sunday = 7
	week := (yday - wd + 10) / 7
	switch {
	case week < 1:
		prevDays := 365
		if isLeap(c.year - 1) {
			prevDays = 366
		}
		prevJan1 := time.Weekday(((int(c.jan1)-prevDays)%7 + 7) % 7)
		return isoWeeks(prevJan1, prevDays == 366)
	case week == 53 && isoWeeks(c.jan1, c.leap) == 52:
		return 1
	}
	return week
}

// Season returns the meteorological season of month m in the country's
// hemisphere.
func (c *Calendar) Season(m time.Month) Season { return seasonOf(m, c.hemisphere) }

// isoWeeks returns the number of ISO weeks of a year starting on
// weekday jan1: 53 when the year starts on a Thursday, or on a
// Wednesday in a leap year, else 52.
func isoWeeks(jan1 time.Weekday, leap bool) int {
	if jan1 == time.Thursday || (leap && jan1 == time.Wednesday) {
		return 53
	}
	return 52
}

func isLeap(year int) bool {
	return year%4 == 0 && (year%100 != 0 || year%400 == 0)
}

// monthDays and daysBefore describe a common year, indexed by month.
var (
	monthDays  = [13]uint8{0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31}
	daysBefore = [13]uint16{0, 0, 31, 59, 90, 120, 151, 181, 212, 243, 273, 304, 334}
)
