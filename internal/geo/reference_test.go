package geo

import "time"

// Reference implementations of the per-date calendar questions in their
// straightforward form: every call walks the rule tables, recomputes
// Easter and resolves each Easter-relative rule with time arithmetic.
// Calendar must agree with them on every day; calendar_test.go holds
// it to that.

// refIsHoliday reports whether date is a public holiday in the country
// with the given code, along with the holiday's name. Unknown country
// codes observe the common and Christian rules.
func refIsHoliday(code string, date time.Time) (bool, string) {
	y, m, d := date.Date()
	check := func(rules []holidayRule) (bool, string) {
		for _, r := range rules {
			if r.month != 0 {
				if r.month == m && r.day == d {
					return true, r.name
				}
				continue
			}
			e := Easter(y).AddDate(0, 0, r.easterOffset)
			em, ed := e.Month(), e.Day()
			if em == m && ed == d {
				return true, r.name
			}
		}
		return false, ""
	}
	if ok, name := check(commonRules); ok {
		return true, name
	}
	if !nonChristianCalendar[code] {
		if ok, name := check(christianRules); ok {
			return true, name
		}
	}
	if rules, ok := extraRules[code]; ok {
		if ok, name := check(rules); ok {
			return true, name
		}
	}
	return false, ""
}

// refIsWorkingDay reports whether date is a working day in the given
// country: neither a weekend day nor a public holiday. Unknown country
// codes default to a Saturday/Sunday weekend.
func refIsWorkingDay(code string, date time.Time) bool {
	c, err := Lookup(code)
	if err != nil {
		c = Country{Weekend: satSun}
	}
	if c.IsWeekend(date) {
		return false
	}
	holiday, _ := refIsHoliday(code, date)
	return !holiday
}

// refWeekOfYear returns the ISO 8601 week number of date.
func refWeekOfYear(date time.Time) int {
	_, week := date.ISOWeek()
	return week
}
