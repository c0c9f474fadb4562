package geo

import "time"

// Season is a meteorological season. Values are hemisphere-adjusted:
// July in Australia is Winter.
type Season int

const (
	Winter Season = iota
	Spring
	Summer
	Autumn
)

// String implements fmt.Stringer.
func (s Season) String() string {
	switch s {
	case Winter:
		return "winter"
	case Spring:
		return "spring"
	case Summer:
		return "summer"
	case Autumn:
		return "autumn"
	default:
		return "unknown"
	}
}

// SeasonOf returns the meteorological season of date in the given
// hemisphere (Dec-Feb = northern winter, and so on).
func SeasonOf(date time.Time, h Hemisphere) Season { return seasonOf(date.Month(), h) }

func seasonOf(m time.Month, h Hemisphere) Season {
	var s Season
	switch m {
	case time.December, time.January, time.February:
		s = Winter
	case time.March, time.April, time.May:
		s = Spring
	case time.June, time.July, time.August:
		s = Summer
	default:
		s = Autumn
	}
	if h == Southern {
		s = (s + 2) % 4
	}
	return s
}
