package featsel

import (
	"context"
	"fmt"
	"math"

	"vup/internal/etl"
	"vup/internal/obs/trace"
)

// Materialized gathers the feature rows of one dataset for any
// per-window lag selection up to MaxLag: the hours and channel lags,
// the context encoding and the target-day channel values. It holds no
// copy of them. Compilation resolves the dataset's columns once (the
// hours, each configured channel and target channel, and the calendar
// contexts), and a row reads lag ℓ of day t straight from day t−ℓ of
// those columns, so a materialization costs O(channels) whatever the
// series length.
//
// Gathered row layout, for selected lags ℓ₁ < … < ℓ_K:
//
//	[ lag-ℓ₁ block | … | lag-ℓ_K block | context | target channels ]
//
// where each lag block is [hours(t−ℓ), ch₁(t−ℓ), …, ch_C(t−ℓ)] in the
// materialization's channel order. GatherRow refuses any target day
// whose largest selected lag would reach before day 0, exactly as
// Spec.Row does.
//
// The hours series is always included (the paper's pipeline always
// lags the utilization target itself).
//
// The columns are read, never written, and must not change while the
// materialization is in use; appending past their length is fine, as
// a materialization reads only its first Len() days. A row depends on
// nothing but the columns, so materializing a copy of a series' last
// rows yields rows bit-equal to the whole series' wherever all MaxLag
// lags lie inside the copy. Forecast plans rely on this
// (core.NewForecastPlanContext).
type Materialized struct {
	maxLag         int
	channels       []string
	includeContext bool
	targetChannels []string

	hours []float64
	chans [][]float64
	tgts  [][]float64
	ctx   []etl.Context
}

// MaterializeContext compiles the gatherer for d. maxLag must be >= 1;
// every channel and target channel must exist in the dataset. When ctx
// carries an active trace span, the compilation is recorded as a
// "featsel.materialize" child with the day count and the widest
// gatherable row.
func MaterializeContext(ctx context.Context, d *etl.VehicleDataset, maxLag int, channels []string, includeContext bool, targetChannels []string) (m *Materialized, err error) {
	_, sp := trace.Start(ctx, "featsel.materialize")
	defer func() {
		if m != nil {
			sp.SetAttrInt("days", m.Len())
			sp.SetAttrInt("width", maxLag*(1+len(m.chans))+m.RowWidth(nil)) // every lag selected
		}
		sp.SetError(err)
		sp.End()
	}()
	if maxLag < 1 {
		return nil, fmt.Errorf("featsel: materialize with max lag %d", maxLag)
	}
	return resolve(d, maxLag, channels, includeContext, targetChannels)
}

// resolve builds a materialization over d's columns, refusing a
// missing channel or a context column that does not cover every day.
func resolve(d *etl.VehicleDataset, maxLag int, channels []string, includeContext bool, targetChannels []string) (*Materialized, error) {
	chans, err := columns(d, "channel", channels)
	if err != nil {
		return nil, err
	}
	tgts, err := columns(d, "target channel", targetChannels)
	if err != nil {
		return nil, err
	}
	m := &Materialized{
		maxLag:         maxLag,
		channels:       channels,
		includeContext: includeContext,
		targetChannels: targetChannels,
		hours:          d.Hours,
		chans:          chans,
		tgts:           tgts,
	}
	if includeContext {
		if len(d.Context) < d.Len() {
			return nil, fmt.Errorf("featsel: dataset has context for %d of %d days", len(d.Context), d.Len())
		}
		m.ctx = d.Context
	}
	return m, nil
}

// columns looks up the named channels of d.
func columns(d *etl.VehicleDataset, kind string, names []string) ([][]float64, error) {
	cols := make([][]float64, len(names))
	for i, name := range names {
		col, ok := d.Channels[name]
		if !ok {
			return nil, fmt.Errorf("featsel: dataset has no %s %q", kind, name)
		}
		cols[i] = col
	}
	return cols, nil
}

// AppendDays returns the materialization of d, a dataset whose first
// Len() days are value-identical to the one m was built from (the
// streaming-ingest append: same series, new tail). m stays valid for
// concurrent readers holding cached plans. Since rows are read from
// d's columns, nothing is copied or computed: the cost is the check
// below, O(MaxLag×channels) whatever the dataset length.
//
// The caller owns the prefix-equality contract; AppendDays verifies
// only the slice every new row can actually read — the trailing
// MaxLag days of the overlap, bitwise — and refuses on drift. A
// dataset that shrank or lost a configured channel is also refused;
// the caller falls back to a full MaterializeContext.
func (m *Materialized) AppendDays(d *etl.VehicleDataset) (*Materialized, error) {
	n := m.Len()
	if d.Len() < n {
		return nil, fmt.Errorf("featsel: append from %d to %d days: dataset shrank", n, d.Len())
	}
	child, err := resolve(d, m.maxLag, m.channels, m.includeContext, m.targetChannels)
	if err != nil {
		return nil, err
	}
	// The lag window feeding the new rows must be unchanged. Bitwise
	// comparison: NaN-safe and invisible to float tolerance debates.
	lo := max(0, n-m.maxLag)
	if !bitsEqual(child.hours[lo:n], m.hours[lo:n]) {
		return nil, fmt.Errorf("featsel: append dataset rewrote hours in the lag window [%d, %d)", lo, n)
	}
	for i, col := range child.chans {
		if !bitsEqual(col[lo:n], m.chans[i][lo:n]) {
			return nil, fmt.Errorf("featsel: append dataset rewrote channel %q in the lag window", m.channels[i])
		}
	}
	for i, col := range child.tgts {
		if !bitsEqual(col[lo:n], m.tgts[i][lo:n]) {
			return nil, fmt.Errorf("featsel: append dataset rewrote target channel %q in the lag window", m.targetChannels[i])
		}
	}
	return child, nil
}

// bitsEqual reports whether two float slices are bitwise identical.
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// Len returns the number of materialized days.
func (m *Materialized) Len() int { return len(m.hours) }

// MaxLag returns the materialized lag budget.
func (m *Materialized) MaxLag() int { return m.maxLag }

// RowWidth returns the assembled feature-row width for a set of
// selected lags — identical to the equivalent Spec.Width().
func (m *Materialized) RowWidth(lags []int) int {
	w := len(lags)*(1+len(m.chans)) + len(m.tgts)
	if m.includeContext {
		w += contextWidth
	}
	return w
}

// Y returns the prediction target (utilization hours) of day t.
func (m *Materialized) Y(t int) float64 { return m.hours[t] }

// GatherRow assembles the feature row whose prediction target is day
// t into dst (which must have RowWidth(lags) capacity) from the
// dataset's columns. It reports false when a selected lag would reach
// before day 0 — the same refusal as Spec.Row. lags must be
// ascending, each within [1, MaxLag].
func (m *Materialized) GatherRow(dst []float64, t int, lags []int) bool {
	if len(lags) == 0 || t >= m.Len() || t-lags[len(lags)-1] < 0 {
		return false
	}
	m.row(dst, t, lags, nil)
	return true
}

// row writes the feature row of day t into dst. Days from Len() on
// are ext's phantom days: a lag reaching one reads ext's hours and
// channels, and a phantom target day takes its context and
// target-channel values from ext.
func (m *Materialized) row(dst []float64, t int, lags []int, ext *Extension) {
	n := m.Len()
	k := 0
	for _, lag := range lags {
		i := t - lag
		if i >= n {
			dst[k] = ext.Hours[i-n]
			for c := range m.chans {
				dst[k+1+c] = ext.Chans[c][i-n]
			}
		} else {
			dst[k] = m.hours[i]
			for c, col := range m.chans {
				dst[k+1+c] = col[i]
			}
		}
		k += 1 + len(m.chans)
	}
	ctx, tgts := m.ctx, m.tgts
	if t >= n {
		ctx, tgts, t = ext.Ctx, ext.Tgts, t-n
	}
	m.dayColumns(dst[k:], ctx, tgts, t)
}

// dayColumns writes the context encoding of ctx[t] (when the
// materialization includes it) and the target-channel values
// tgts[c][t] into dst.
func (m *Materialized) dayColumns(dst []float64, ctx []etl.Context, tgts [][]float64, t int) {
	k := 0
	if m.includeContext {
		encodeContext(dst[:contextWidth], ctx[t])
		k = contextWidth
	}
	for c := range m.tgts {
		dst[k+c] = tgts[c][t]
	}
}

// Scratch is reusable backing for gathered training matrices and the
// days they read. The Regressor contract forbids models from retaining
// x or y, so one scratch can serve every window of an evaluation loop
// without cross-window aliasing.
type Scratch struct {
	rows    [][]float64
	backing []float64
	y       []float64
	stage   []float64 // MatrixInto's per-day lag blocks
}

// MatrixInto assembles the training matrix whose targets are the days
// in [from, to), skipping days whose lags would underflow — value- and
// order-identical to Spec.Matrix on the same dataset. The returned
// slices alias s and are valid until the next call with the same
// scratch.
func (m *Materialized) MatrixInto(s *Scratch, lags []int, from, to int) (x [][]float64, y []float64, err error) {
	from, to = max(from, 0), min(to, m.Len())
	maxLag := lags[len(lags)-1]
	if max(from, maxLag) >= to {
		return nil, nil, fmt.Errorf("%w: [%d, %d) with max lag %d", ErrNoRows, from, to, maxLag)
	}
	from = max(from, maxLag) // earlier days' lags would underflow
	// Stage the days the lags read, [from-maxLag, to-1), as contiguous
	// per-day blocks [hours, ch₁, …, ch_C], so each row's lag blocks
	// are block copies rather than one scattered read per column.
	b := 1 + len(m.chans)
	base := from - maxLag
	s.stage = s.stage[:0]
	for i := base; i < to-1; i++ {
		s.stage = append(s.stage, m.hours[i])
		for _, col := range m.chans {
			s.stage = append(s.stage, col[i])
		}
	}
	width := m.RowWidth(lags)
	rows := to - from
	if cap(s.backing) < rows*width {
		s.backing = make([]float64, rows*width)
	}
	s.rows = s.rows[:0]
	for t := from; t < to; t++ {
		row := s.backing[(t-from)*width : (t-from+1)*width : (t-from+1)*width]
		k := 0
		for _, lag := range lags {
			o := (t - lag - base) * b
			k += copy(row[k:], s.stage[o:o+b])
		}
		m.dayColumns(row[k:], m.ctx, m.tgts, t)
		s.rows = append(s.rows, row)
	}
	s.y = append(s.y[:0], m.hours[from:to]...)
	return s.rows, s.y, nil
}

// Extension holds phantom days appended past the materialized series
// for iterated forecasting: absolute day n+i reads Hours[i], the
// per-channel phantom values and Ctx[i]. Chans and Tgts are aligned
// with the materialization's channel orders; a channel appearing in
// both lists must share one backing slice so a target-day override is
// also visible to later steps' lag features.
type Extension struct {
	Hours []float64
	Chans [][]float64
	Tgts  [][]float64
	Ctx   []etl.Context
}

// ExtendedRow assembles the feature row for phantom day Len()+step,
// with lags reading the base series and any earlier phantom days, the
// context encoding taken from the phantom's own context and the
// target-channel values from the phantom's channel slots. It reports
// false when a lag would reach before day 0.
func (m *Materialized) ExtendedRow(dst []float64, step int, lags []int, ext *Extension) bool {
	t := m.Len() + step
	if len(lags) == 0 || t-lags[len(lags)-1] < 0 || step >= len(ext.Hours) {
		return false
	}
	m.row(dst, t, lags, ext)
	return true
}
