package featsel

import (
	"errors"
	"fmt"
	"math"
	"time"

	"vup/internal/etl"
	"vup/internal/stats"
)

// ErrNoRows is returned when a requested range yields no usable rows.
var ErrNoRows = errors.New("featsel: no feature rows in range")

// Spec describes the feature layout of one training matrix.
type Spec struct {
	// Lags are the selected day offsets (>=1), ascending.
	Lags []int
	// Channels are the CAN channel names to lag alongside the hours.
	Channels []string
	// IncludeHours lags the utilization series itself (the paper
	// always does).
	IncludeHours bool
	// IncludeContext appends the target day's contextual features.
	IncludeContext bool
	// TargetChannels are channels whose value on the *target day* is
	// included as a feature — context known in advance, such as the
	// weather forecast (the paper's future-work enrichment).
	TargetChannels []string
}

// SelectLags ranks lags 1..maxLag of the series by autocorrelation and
// returns the top k, ascending — the paper's selection rule. The
// window is the training slice of the utilization series.
func SelectLags(series []float64, maxLag, k int) []int {
	if maxLag >= len(series) {
		maxLag = len(series) - 1
	}
	return stats.TopLags(series, maxLag, k)
}

// AllLags returns 1..w, the no-selection reference configuration
// ("consider every previous day in the window").
func AllLags(w int) []int {
	out := make([]int, w)
	for i := range out {
		out[i] = i + 1
	}
	return out
}

// Width returns the number of columns a spec produces.
func (s Spec) Width() int {
	perLag := 0
	if s.IncludeHours {
		perLag++
	}
	perLag += len(s.Channels)
	w := len(s.Lags) * perLag
	if s.IncludeContext {
		w += contextWidth
	}
	return w + len(s.TargetChannels)
}

// Context layout: 7 one-hot weekday flags, holiday, working-day,
// 4 one-hot seasons, and the month encoded on the unit circle.
const contextWidth = 7 + 1 + 1 + 4 + 2

// Validate checks the spec against a dataset.
func (s Spec) Validate(d *etl.VehicleDataset) error {
	if len(s.Lags) == 0 {
		return fmt.Errorf("featsel: spec with no lags")
	}
	prev := 0
	for _, l := range s.Lags {
		if l <= prev {
			return fmt.Errorf("featsel: lags must be ascending and positive, got %v", s.Lags)
		}
		prev = l
	}
	if !s.IncludeHours && len(s.Channels) == 0 {
		return fmt.Errorf("featsel: spec selects no features")
	}
	for _, ch := range s.Channels {
		if _, ok := d.Channels[ch]; !ok {
			return fmt.Errorf("featsel: dataset has no channel %q", ch)
		}
	}
	for _, ch := range s.TargetChannels {
		if _, ok := d.Channels[ch]; !ok {
			return fmt.Errorf("featsel: dataset has no target channel %q", ch)
		}
	}
	return nil
}

// Row assembles the feature row whose prediction target is day t of
// the dataset. It returns false when a lag would reach before day 0.
func (s Spec) Row(d *etl.VehicleDataset, t int) ([]float64, bool) {
	maxLag := s.Lags[len(s.Lags)-1]
	if t-maxLag < 0 || t >= d.Len() {
		return nil, false
	}
	row := make([]float64, 0, s.Width())
	for _, lag := range s.Lags {
		i := t - lag
		if s.IncludeHours {
			row = append(row, d.Hours[i])
		}
		for _, ch := range s.Channels {
			row = append(row, d.Channels[ch][i])
		}
	}
	if s.IncludeContext {
		row = append(row, contextFeatures(d.Context[t])...)
	}
	for _, ch := range s.TargetChannels {
		row = append(row, d.Channels[ch][t])
	}
	return row, true
}

func contextFeatures(c etl.Context) []float64 {
	out := make([]float64, contextWidth)
	fillContext(out, c)
	return out
}

// fillContext writes the context encoding into dst (len contextWidth):
// one-hot weekday, holiday and working-day flags, one-hot season and
// the month on the unit circle. The per-row Spec path calls it and
// Materialized copies its output from contextTable, so the encodings
// cannot diverge.
func fillContext(dst []float64, c etl.Context) {
	for wd := time.Sunday; wd <= time.Saturday; wd++ {
		if c.DayOfWeek() == wd {
			dst[wd] = 1
		} else {
			dst[wd] = 0
		}
	}
	k := 7
	dst[k] = 0
	if c.Holiday() {
		dst[k] = 1
	}
	k++
	dst[k] = 0
	if c.WorkingDay() {
		dst[k] = 1
	}
	k++
	for season := 0; season < 4; season++ {
		if int(c.Season()) == season {
			dst[k+season] = 1
		} else {
			dst[k+season] = 0
		}
	}
	k += 4
	dst[k], dst[k+1] = monthCircle(c.Month())
}

// contextTable holds the encoding of every context class, row c for
// etl.Context(c), so a gathered row copies its context columns instead
// of re-deriving them (the month's cosine and sine included).
// fillContext builds it, so the encodings cannot diverge.
var contextTable = func() []float64 {
	t := make([]float64, etl.NumContexts*contextWidth)
	for c := range etl.NumContexts {
		fillContext(t[c*contextWidth:(c+1)*contextWidth], etl.Context(c))
	}
	return t
}()

// encodeContext writes c's encoding into dst (len contextWidth),
// exactly as fillContext does, by copying its row of contextTable.
func encodeContext(dst []float64, c etl.Context) {
	copy(dst, contextTable[int(c)*contextWidth:(int(c)+1)*contextWidth])
}

// monthCircle encodes the month on the unit circle so December and
// January are close.
func monthCircle(m time.Month) (x, y float64) {
	angle := 2 * math.Pi * float64(m-1) / 12
	return math.Cos(angle), math.Sin(angle)
}

// Matrix assembles the training matrix whose targets are the days in
// [from, to) of the dataset. Days whose lags would underflow are
// skipped; targetIdx reports the dataset day of each returned row.
func (s Spec) Matrix(d *etl.VehicleDataset, from, to int) (x [][]float64, y []float64, targetIdx []int, err error) {
	if err := s.Validate(d); err != nil {
		return nil, nil, nil, err
	}
	if from < 0 {
		from = 0
	}
	if to > d.Len() {
		to = d.Len()
	}
	for t := from; t < to; t++ {
		row, ok := s.Row(d, t)
		if !ok {
			continue
		}
		x = append(x, row)
		y = append(y, d.Hours[t])
		targetIdx = append(targetIdx, t)
	}
	if len(x) == 0 {
		return nil, nil, nil, fmt.Errorf("%w: [%d, %d) with max lag %d", ErrNoRows, from, to, s.Lags[len(s.Lags)-1])
	}
	return x, y, targetIdx, nil
}
