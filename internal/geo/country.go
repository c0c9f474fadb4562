// Package geo provides the contextual-information substrate of the
// study: a registry of countries with hemisphere, region and weekend
// convention, per-country holiday rules (fixed-date and
// Easter-derived), and meteorological seasons. The paper enriches CAN
// bus data with exactly this information (Section 2, "Contextual
// information"), and observes e.g. that northern-hemisphere vehicles
// idle most in December/January.
//
// The rules are answered per year: NewCalendar builds one country's
// Calendar for one year in O(rules), with the holidays as a bitset over
// the days of the year next to the weekend convention and hemisphere.
// Weekday, ISO week, holiday and working-day questions about a day are
// then integer arithmetic on its day of the year, so a caller walking a
// day series builds one calendar per year it spans rather than
// evaluating the rules once per day.
package geo

import (
	"fmt"
	"sort"
	"time"
)

// Hemisphere of a country's main landmass.
type Hemisphere int

const (
	Northern Hemisphere = iota
	Southern
)

// String implements fmt.Stringer.
func (h Hemisphere) String() string {
	if h == Southern {
		return "southern"
	}
	return "northern"
}

// Country describes one of the deployment countries of the fleet.
type Country struct {
	Code       string // ISO 3166-1 alpha-2
	Name       string
	Region     string
	Hemisphere Hemisphere
	// Weekend holds the non-working days of the week (most countries:
	// Saturday+Sunday; some Middle-East countries: Friday+Saturday).
	Weekend [2]time.Weekday
}

// IsWeekend reports whether d falls on this country's weekend.
func (c Country) IsWeekend(d time.Time) bool {
	wd := d.Weekday()
	return wd == c.Weekend[0] || wd == c.Weekend[1]
}

var satSun = [2]time.Weekday{time.Saturday, time.Sunday}
var friSat = [2]time.Weekday{time.Friday, time.Saturday}

// countries is the registry. The study spans 151 countries; this
// table models 146 of them, covering every region, both hemispheres
// and both weekend conventions. Weekend conventions reflect the study
// period (2015-2018): the Gulf states still observed Friday/Saturday
// (Iran's Thursday/Friday is approximated as Friday/Saturday).
var countries = []Country{
	{"AD", "Andorra", "Europe", Northern, satSun},
	{"AL", "Albania", "Europe", Northern, satSun},
	{"AT", "Austria", "Europe", Northern, satSun},
	{"BA", "Bosnia and Herzegovina", "Europe", Northern, satSun},
	{"BE", "Belgium", "Europe", Northern, satSun},
	{"BG", "Bulgaria", "Europe", Northern, satSun},
	{"BY", "Belarus", "Europe", Northern, satSun},
	{"CH", "Switzerland", "Europe", Northern, satSun},
	{"CY", "Cyprus", "Europe", Northern, satSun},
	{"CZ", "Czechia", "Europe", Northern, satSun},
	{"DE", "Germany", "Europe", Northern, satSun},
	{"DK", "Denmark", "Europe", Northern, satSun},
	{"EE", "Estonia", "Europe", Northern, satSun},
	{"ES", "Spain", "Europe", Northern, satSun},
	{"FI", "Finland", "Europe", Northern, satSun},
	{"FR", "France", "Europe", Northern, satSun},
	{"GB", "United Kingdom", "Europe", Northern, satSun},
	{"GR", "Greece", "Europe", Northern, satSun},
	{"HR", "Croatia", "Europe", Northern, satSun},
	{"HU", "Hungary", "Europe", Northern, satSun},
	{"IE", "Ireland", "Europe", Northern, satSun},
	{"IS", "Iceland", "Europe", Northern, satSun},
	{"IT", "Italy", "Europe", Northern, satSun},
	{"LT", "Lithuania", "Europe", Northern, satSun},
	{"LU", "Luxembourg", "Europe", Northern, satSun},
	{"LV", "Latvia", "Europe", Northern, satSun},
	{"MD", "Moldova", "Europe", Northern, satSun},
	{"ME", "Montenegro", "Europe", Northern, satSun},
	{"MK", "North Macedonia", "Europe", Northern, satSun},
	{"MT", "Malta", "Europe", Northern, satSun},
	{"NL", "Netherlands", "Europe", Northern, satSun},
	{"NO", "Norway", "Europe", Northern, satSun},
	{"PL", "Poland", "Europe", Northern, satSun},
	{"PT", "Portugal", "Europe", Northern, satSun},
	{"RO", "Romania", "Europe", Northern, satSun},
	{"RS", "Serbia", "Europe", Northern, satSun},
	{"RU", "Russia", "Europe", Northern, satSun},
	{"SE", "Sweden", "Europe", Northern, satSun},
	{"SI", "Slovenia", "Europe", Northern, satSun},
	{"SK", "Slovakia", "Europe", Northern, satSun},
	{"TR", "Turkey", "Europe", Northern, satSun},
	{"UA", "Ukraine", "Europe", Northern, satSun},
	{"CA", "Canada", "North America", Northern, satSun},
	{"CR", "Costa Rica", "North America", Northern, satSun},
	{"CU", "Cuba", "North America", Northern, satSun},
	{"DO", "Dominican Republic", "North America", Northern, satSun},
	{"GT", "Guatemala", "North America", Northern, satSun},
	{"HN", "Honduras", "North America", Northern, satSun},
	{"JM", "Jamaica", "North America", Northern, satSun},
	{"MX", "Mexico", "North America", Northern, satSun},
	{"NI", "Nicaragua", "North America", Northern, satSun},
	{"PA", "Panama", "North America", Northern, satSun},
	{"SV", "El Salvador", "North America", Northern, satSun},
	{"TT", "Trinidad and Tobago", "North America", Northern, satSun},
	{"US", "United States", "North America", Northern, satSun},
	{"AR", "Argentina", "South America", Southern, satSun},
	{"BO", "Bolivia", "South America", Southern, satSun},
	{"BR", "Brazil", "South America", Southern, satSun},
	{"CL", "Chile", "South America", Southern, satSun},
	{"CO", "Colombia", "South America", Northern, satSun},
	{"EC", "Ecuador", "South America", Southern, satSun},
	{"GY", "Guyana", "South America", Northern, satSun},
	{"PE", "Peru", "South America", Southern, satSun},
	{"PY", "Paraguay", "South America", Southern, satSun},
	{"SR", "Suriname", "South America", Northern, satSun},
	{"UY", "Uruguay", "South America", Southern, satSun},
	{"VE", "Venezuela", "South America", Northern, satSun},
	{"AO", "Angola", "Africa", Southern, satSun},
	{"BF", "Burkina Faso", "Africa", Northern, satSun},
	{"BJ", "Benin", "Africa", Northern, satSun},
	{"BW", "Botswana", "Africa", Southern, satSun},
	{"CD", "DR Congo", "Africa", Southern, satSun},
	{"CI", "Ivory Coast", "Africa", Northern, satSun},
	{"CM", "Cameroon", "Africa", Northern, satSun},
	{"DZ", "Algeria", "Africa", Northern, friSat},
	{"EG", "Egypt", "Africa", Northern, friSat},
	{"ET", "Ethiopia", "Africa", Northern, satSun},
	{"GA", "Gabon", "Africa", Southern, satSun},
	{"GH", "Ghana", "Africa", Northern, satSun},
	{"GN", "Guinea", "Africa", Northern, satSun},
	{"KE", "Kenya", "Africa", Southern, satSun},
	{"LY", "Libya", "Africa", Northern, friSat},
	{"MA", "Morocco", "Africa", Northern, satSun},
	{"MG", "Madagascar", "Africa", Southern, satSun},
	{"ML", "Mali", "Africa", Northern, satSun},
	{"MZ", "Mozambique", "Africa", Southern, satSun},
	{"NA", "Namibia", "Africa", Southern, satSun},
	{"NE", "Niger", "Africa", Northern, satSun},
	{"NG", "Nigeria", "Africa", Northern, satSun},
	{"RW", "Rwanda", "Africa", Southern, satSun},
	{"SD", "Sudan", "Africa", Northern, friSat},
	{"SN", "Senegal", "Africa", Northern, satSun},
	{"TN", "Tunisia", "Africa", Northern, satSun},
	{"TZ", "Tanzania", "Africa", Southern, satSun},
	{"UG", "Uganda", "Africa", Northern, satSun},
	{"ZA", "South Africa", "Africa", Southern, satSun},
	{"ZM", "Zambia", "Africa", Southern, satSun},
	{"ZW", "Zimbabwe", "Africa", Southern, satSun},
	{"AE", "United Arab Emirates", "Middle East", Northern, friSat},
	{"BH", "Bahrain", "Middle East", Northern, friSat},
	{"IL", "Israel", "Middle East", Northern, friSat},
	{"IQ", "Iraq", "Middle East", Northern, friSat},
	{"IR", "Iran", "Middle East", Northern, friSat},
	{"JO", "Jordan", "Middle East", Northern, friSat},
	{"KW", "Kuwait", "Middle East", Northern, friSat},
	{"LB", "Lebanon", "Middle East", Northern, satSun},
	{"OM", "Oman", "Middle East", Northern, friSat},
	{"QA", "Qatar", "Middle East", Northern, friSat},
	{"SA", "Saudi Arabia", "Middle East", Northern, friSat},
	{"SY", "Syria", "Middle East", Northern, friSat},
	{"YE", "Yemen", "Middle East", Northern, friSat},
	{"AF", "Afghanistan", "Asia", Northern, friSat},
	{"AM", "Armenia", "Asia", Northern, satSun},
	{"AZ", "Azerbaijan", "Asia", Northern, satSun},
	{"BD", "Bangladesh", "Asia", Northern, friSat},
	{"CN", "China", "Asia", Northern, satSun},
	{"GE", "Georgia", "Asia", Northern, satSun},
	{"HK", "Hong Kong", "Asia", Northern, satSun},
	{"ID", "Indonesia", "Asia", Southern, satSun},
	{"IN", "India", "Asia", Northern, satSun},
	{"JP", "Japan", "Asia", Northern, satSun},
	{"KG", "Kyrgyzstan", "Asia", Northern, satSun},
	{"KH", "Cambodia", "Asia", Northern, satSun},
	{"KR", "South Korea", "Asia", Northern, satSun},
	{"KZ", "Kazakhstan", "Asia", Northern, satSun},
	{"LA", "Laos", "Asia", Northern, satSun},
	{"LK", "Sri Lanka", "Asia", Northern, satSun},
	{"MM", "Myanmar", "Asia", Northern, satSun},
	{"MN", "Mongolia", "Asia", Northern, satSun},
	{"MV", "Maldives", "Asia", Northern, friSat},
	{"MY", "Malaysia", "Asia", Northern, satSun},
	{"NP", "Nepal", "Asia", Northern, satSun},
	{"PH", "Philippines", "Asia", Northern, satSun},
	{"PK", "Pakistan", "Asia", Northern, satSun},
	{"SG", "Singapore", "Asia", Northern, satSun},
	{"TH", "Thailand", "Asia", Northern, satSun},
	{"TJ", "Tajikistan", "Asia", Northern, satSun},
	{"TM", "Turkmenistan", "Asia", Northern, satSun},
	{"TW", "Taiwan", "Asia", Northern, satSun},
	{"UZ", "Uzbekistan", "Asia", Northern, satSun},
	{"VN", "Vietnam", "Asia", Northern, satSun},
	{"AU", "Australia", "Oceania", Southern, satSun},
	{"FJ", "Fiji", "Oceania", Southern, satSun},
	{"NZ", "New Zealand", "Oceania", Southern, satSun},
	{"PG", "Papua New Guinea", "Oceania", Southern, satSun},
	{"SB", "Solomon Islands", "Oceania", Southern, satSun},
}

var byCode = func() map[string]Country {
	m := make(map[string]Country, len(countries))
	for _, c := range countries {
		m[c.Code] = c
	}
	return m
}()

// Lookup returns the country with the given ISO code.
func Lookup(code string) (Country, error) {
	c, ok := byCode[code]
	if !ok {
		return Country{}, fmt.Errorf("geo: unknown country code %q", code)
	}
	return c, nil
}

// All returns every registered country, sorted by code.
func All() []Country {
	out := append([]Country(nil), countries...)
	sort.Slice(out, func(i, j int) bool { return out[i].Code < out[j].Code })
	return out
}

// Codes returns every registered country code, sorted.
func Codes() []string {
	out := make([]string, 0, len(countries))
	for _, c := range All() {
		out = append(out, c.Code)
	}
	return out
}
