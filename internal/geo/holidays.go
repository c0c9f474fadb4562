package geo

import "time"

// Easter returns the Gregorian date of Easter Sunday for the given
// year, using the anonymous Gregorian (Meeus/Jones/Butcher) computus.
func Easter(year int) time.Time {
	a := year % 19
	b := year / 100
	c := year % 100
	d := b / 4
	e := b % 4
	f := (b + 8) / 25
	g := (b - f + 1) / 3
	h := (19*a + b - d - g + 15) % 30
	i := c / 4
	k := c % 4
	l := (32 + 2*e + 2*i - h - k) % 7
	m := (a + 11*h + 22*l) / 451
	month := (h + l - 7*m + 114) / 31
	day := (h+l-7*m+114)%31 + 1
	return time.Date(year, time.Month(month), day, 0, 0, 0, 0, time.UTC)
}

// holidayRule describes one recurring public holiday.
type holidayRule struct {
	name string
	// For fixed-date rules, month/day are set. For Easter-relative
	// rules, easterOffset is the day offset from Easter Sunday and
	// month is zero.
	month        time.Month
	day          int
	easterOffset int
}

func fixed(name string, m time.Month, d int) holidayRule {
	return holidayRule{name: name, month: m, day: d}
}

func easterRel(name string, offset int) holidayRule {
	return holidayRule{name: name, easterOffset: offset}
}

// common holidays observed nearly everywhere the fleet operates.
var commonRules = []holidayRule{
	fixed("New Year's Day", time.January, 1),
	fixed("Labour Day", time.May, 1),
}

// christianRules apply in countries with Christian-tradition calendars.
var christianRules = []holidayRule{
	fixed("Christmas Day", time.December, 25),
	fixed("St. Stephen's Day", time.December, 26),
	easterRel("Good Friday", -2),
	easterRel("Easter Monday", +1),
}

// extraRules holds country-specific national holidays.
var extraRules = map[string][]holidayRule{
	"IT": {fixed("Epiphany", time.January, 6), fixed("Liberation Day", time.April, 25), fixed("Republic Day", time.June, 2), fixed("Ferragosto", time.August, 15), fixed("All Saints", time.November, 1), fixed("Immaculate Conception", time.December, 8)},
	"DE": {fixed("German Unity Day", time.October, 3)},
	"FR": {fixed("Bastille Day", time.July, 14), fixed("Armistice Day", time.November, 11), fixed("Assumption", time.August, 15)},
	"ES": {fixed("Hispanic Day", time.October, 12), fixed("Constitution Day", time.December, 6)},
	"US": {fixed("Independence Day", time.July, 4), fixed("Veterans Day", time.November, 11)},
	"CA": {fixed("Canada Day", time.July, 1)},
	"BR": {fixed("Independence Day", time.September, 7), fixed("Republic Day", time.November, 15)},
	"AR": {fixed("Revolution Day", time.May, 25), fixed("Independence Day", time.July, 9)},
	"AU": {fixed("Australia Day", time.January, 26), fixed("ANZAC Day", time.April, 25)},
	"NZ": {fixed("Waitangi Day", time.February, 6), fixed("ANZAC Day", time.April, 25)},
	"IN": {fixed("Republic Day", time.January, 26), fixed("Independence Day", time.August, 15), fixed("Gandhi Jayanti", time.October, 2)},
	"JP": {fixed("Foundation Day", time.February, 11), fixed("Showa Day", time.April, 29), fixed("Culture Day", time.November, 3)},
	"CN": {fixed("National Day", time.October, 1), fixed("National Day Holiday", time.October, 2), fixed("National Day Holiday", time.October, 3)},
	"RU": {fixed("Defender Day", time.February, 23), fixed("Victory Day", time.May, 9), fixed("Russia Day", time.June, 12)},
	"TR": {fixed("Republic Day", time.October, 29), fixed("Victory Day", time.August, 30)},
	"ZA": {fixed("Freedom Day", time.April, 27), fixed("Heritage Day", time.September, 24)},
	"MX": {fixed("Independence Day", time.September, 16), fixed("Revolution Day", time.November, 20)},
	"GB": {fixed("Boxing Day", time.December, 26)},
}

// nonChristianCalendar lists countries where the Christian holiday set
// is not observed as public holidays.
var nonChristianCalendar = map[string]bool{
	"EG": true, "SA": true, "AE": true, "QA": true, "IL": true,
	"IN": true, "CN": true, "JP": true, "TH": true, "VN": true,
	"ID": true, "MY": true, "TR": true, "MA": true,
}
