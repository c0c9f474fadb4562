package fleet

import (
	"math"
	"time"

	"vup/internal/geo"
	"vup/internal/randx"
	"vup/internal/weather"
)

// DayUsage is one day of a unit's utilization series.
type DayUsage struct {
	Date  time.Time
	Hours float64 // 0 for inactive days
}

// UsageModel is the generative model of one unit's daily utilization.
// It produces the statistical structure the paper characterizes in
// Section 2: zero-inflated, weekly-periodic, seasonal, holiday-aware
// and non-stationary (slow random-walk drift), with parameters drawn
// per model and per unit so units of the same model still show
// "very different usage patterns".
//
// The weekly structure is deliberately strong: each unit has its own
// set of regular working weekdays (activity ~0.8) and rare weekdays
// (activity ~0.1), which is what makes the paper's ~30 % next-day and
// ~15 % next-working-day errors achievable at all — a memoryless
// coin-flip activity process would put a much higher floor under any
// predictor.
type UsageModel struct {
	vehicle Vehicle
	country geo.Country

	// medianHours is this unit's active-day reference level (type
	// median scaled by model and unit lognormal factors).
	medianHours float64
	// dowProb is the absolute activity probability per weekday
	// (before seasonal/holiday/weekend modulation).
	dowProb [7]float64
	// dowHours is the per-weekday hour-level multiplier; its spread
	// carries the type's hoursSigma.
	dowHours [7]float64
	// dayNoiseSigma is the residual day-to-day log-noise on active-day
	// hours.
	dayNoiseSigma float64
	// weekendFactor scales activity on weekend days.
	weekendFactor float64
	// seasonalAmp and seasonalPhase shape the annual modulation.
	seasonalAmp   float64
	seasonalPhase float64
	// driftSigma is the daily step of the log-level random walk.
	driftSigma float64
	// Job episodes: construction machines alternate between weeks-long
	// site deployments and idle periods between jobs. The daily exit
	// hazards 1/meanOnSite and 1/meanBetween drive a two-state
	// semi-Markov process; between jobs, activity collapses. This is
	// what makes the series non-stationary beyond the slow drift, and
	// what makes recent lags informative beyond the weekly calendar.
	meanOnSite  float64
	meanBetween float64
	idleDamping float64

	rng *randx.RNG
}

// Calibration constants.
const (
	modelSpreadSigma = 0.35 // across models of a type (Figure 1b)
	unitSpreadSigma  = 0.30 // across units of a model (Figure 1c)
	driftSigmaDaily  = 0.006
	dayNoiseSigma    = 0.22 // residual log-noise on active-day hours
	holidayActivity  = 0.08 // residual activity on public holidays
)

// NewUsageModel draws a usage model for v. modelSeed must be identical
// for all units of the same model so they share the model-level factor;
// rng drives the unit-level draws.
func NewUsageModel(v Vehicle, modelSeed int64, rng *randx.RNG) *UsageModel {
	p := profiles[v.Model.Type]
	country, err := geo.Lookup(v.Country)
	if err != nil {
		country = geo.Country{Code: v.Country, Weekend: [2]time.Weekday{time.Saturday, time.Sunday}}
	}
	modelRng := randx.New(modelSeed)
	modelFactor := modelRng.LogNormal(0, modelSpreadSigma)
	unitFactor := rng.LogNormal(0, unitSpreadSigma)

	m := &UsageModel{
		vehicle:       v,
		country:       country,
		medianHours:   clamp(p.medianHours*modelFactor*unitFactor, 0.2, 16),
		dayNoiseSigma: dayNoiseSigma,
		weekendFactor: p.weekendFactor,
		seasonalAmp:   p.seasonalAmp * rng.Uniform(0.6, 1.4),
		driftSigma:    driftSigmaDaily,
		rng:           rng,
	}
	// Peak season: mid-summer for the unit's hemisphere, with unit
	// jitter. Day-of-year 196 is mid-July.
	peak := 196.0
	if country.Hemisphere == geo.Southern {
		peak = 14.0 // mid-January
	}
	m.seasonalPhase = peak + rng.Uniform(-30, 30)

	// Bimodal weekday activity: every unit gets an explicit set of
	// regular working weekdays (activity ≈ 0.9) while the remaining
	// weekdays see only sporadic use (≈ 0.08). The number of regular
	// days is tuned so the expected overall activity matches the
	// type's calibrated rate after weekend damping.
	// Job-episode process: on-site deployments last 6-16 weeks,
	// between-job gaps 1-6 weeks, with residual activity between jobs.
	m.meanOnSite = rng.Uniform(42, 112)
	m.meanBetween = rng.Uniform(7, 42)
	m.idleDamping = rng.Uniform(0.05, 0.25)
	availability := (m.meanOnSite + m.idleDamping*m.meanBetween) / (m.meanOnSite + m.meanBetween)

	// Regular days mostly land on non-weekend days (see below), so the
	// on-site activity is ≈ (nRegular·0.9 + (7−nRegular)·0.06)/7 and
	// the overall rate is that times the deployment availability;
	// solve for nRegular given the type's target rate.
	const regularProb = 0.9
	target := p.activityRate / availability
	base := (7*target - 7*0.06) / (regularProb - 0.06)
	nRegular := int(math.Round(base + rng.Uniform(-0.8, 0.8)))
	if nRegular < 1 {
		nRegular = 1
	}
	if nRegular > 6 {
		nRegular = 6
	}
	// Regular slots go to the country's working weekdays first; a
	// weekend day becomes regular only after every weekday is taken
	// (refuse compactors on Saturday duty exist, but are the
	// exception).
	var weekdays, weekends []int
	for d := 0; d < 7; d++ {
		wd := time.Weekday(d)
		if wd == country.Weekend[0] || wd == country.Weekend[1] {
			weekends = append(weekends, d)
		} else {
			weekdays = append(weekdays, d)
		}
	}
	rng.Shuffle(len(weekdays), func(i, j int) { weekdays[i], weekdays[j] = weekdays[j], weekdays[i] })
	rng.Shuffle(len(weekends), func(i, j int) { weekends[i], weekends[j] = weekends[j], weekends[i] })
	order := append(append([]int(nil), weekdays...), weekends...)
	regular := map[int]bool{}
	for k, d := range order {
		if k < nRegular {
			regular[d] = true
			m.dowProb[d] = clamp(rng.Beta(14, 1.8), 0.5, 0.97) // ~0.89
		} else {
			m.dowProb[d] = clamp(rng.Beta(1.2, 12), 0.01, 0.3) // ~0.08
		}
	}

	// Per-weekday hour levels carry the type's spread. Sporadic days
	// are short runs (repositioning, maintenance), which concentrates
	// the hours mass on the predictable regular days.
	for d := 0; d < 7; d++ {
		m.dowHours[d] = rng.LogNormal(0, p.hoursSigma)
		if !regular[d] {
			m.dowHours[d] *= 0.4
		}
	}
	return m
}

func clamp(v, lo, hi float64) float64 { return math.Min(hi, math.Max(lo, v)) }

// seasonal returns the multiplicative annual modulation for date.
func (m *UsageModel) seasonal(date time.Time) float64 {
	doy := float64(date.YearDay())
	return 1 + m.seasonalAmp*math.Cos(2*math.Pi*(doy-m.seasonalPhase)/365.25)
}

// Simulate generates days consecutive days of usage starting at start
// (normalized to midnight UTC). The sequence is deterministic for a
// given model state and RNG seed.
func (m *UsageModel) Simulate(start time.Time, days int) []DayUsage {
	return m.SimulateWeather(start, days, nil)
}

// SimulateWeather is Simulate with an aligned daily weather series:
// rain and frost suppress activity proportionally to the type's rain
// sensitivity (the paper's future-work extension). wx may be nil
// (no weather effect) or must cover at least days entries.
func (m *UsageModel) SimulateWeather(start time.Time, days int, wx []weather.Day) []DayUsage {
	start = time.Date(start.Year(), start.Month(), start.Day(), 0, 0, 0, 0, time.UTC)
	out := make([]DayUsage, 0, days)
	logDrift := 0.0
	onSite := m.rng.Bernoulli(m.meanOnSite / (m.meanOnSite + m.meanBetween))
	var cal *geo.Calendar
	for i := 0; i < days; i++ {
		date := start.AddDate(0, 0, i)
		if cal == nil || cal.Year() != date.Year() {
			cal = geo.NewCalendar(m.country.Code, date.Year())
		}
		// Non-stationary drift: bounded log-level random walk.
		logDrift = clamp(logDrift+m.rng.Normal(0, m.driftSigma), -0.9, 0.9)
		// Job-episode transitions (daily exit hazard).
		if onSite {
			if m.rng.Bernoulli(1 / m.meanOnSite) {
				onSite = false
			}
		} else if m.rng.Bernoulli(1 / m.meanBetween) {
			onSite = true
		}

		wd := date.Weekday()
		prob := m.dowProb[wd] * m.seasonal(date)
		if !onSite {
			prob *= m.idleDamping
		}
		if i < len(wx) {
			prob *= weather.WorkImpact(wx[i], profiles[m.vehicle.Model.Type].rainSensitivity)
		}
		if m.country.IsWeekend(date) {
			prob *= m.weekendFactor
		}
		if cal.IsHoliday(date.YearDay()) {
			prob *= holidayActivity
		}
		hours := 0.0
		if m.rng.Bernoulli(clamp(prob, 0, 0.98)) {
			level := m.medianHours * math.Exp(logDrift) * m.dowHours[wd] * m.seasonal(date)
			hours = clamp(m.rng.LogNormal(math.Log(level), m.dayNoiseSigma), 0.05, 24)
		}
		out = append(out, DayUsage{Date: date, Hours: hours})
	}
	return out
}

// MedianHours returns the unit's active-day reference level.
func (m *UsageModel) MedianHours() float64 { return m.medianHours }

// Country returns the unit's deployment country.
func (m *UsageModel) Country() geo.Country { return m.country }
