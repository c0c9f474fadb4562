package featsel

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"

	"vup/internal/etl"
	"vup/internal/obs/trace"
)

// Materialized is the lag-superset feature materialization of one
// dataset: every feature any per-window Spec could select — hours and
// channel lags up to MaxLag, the context encoding and the target-day
// channel values — computed once, in a single O(n×F) pass, and laid
// out row-major so a window's actual feature matrix is assembled by
// block copies instead of per-element map lookups and context
// re-encoding.
//
// Per-day superset row layout:
//
//	[ lag-1 block | lag-2 block | … | lag-MaxLag block | context | target channels ]
//
// where each lag block is [hours(t−ℓ), ch₁(t−ℓ), …, ch_C(t−ℓ)] in the
// materialization's channel order. Lag blocks that would reach before
// day 0 are left zero; GatherRow refuses any target day whose largest
// selected lag would touch them, exactly as Spec.Row does.
//
// The hours series is always included (the paper's pipeline always
// lags the utilization target itself).
//
// Every row is computed from the base columns alone, so materializing
// a copy of a series' last rows yields rows bit-equal to the whole
// series' materialization wherever all MaxLag lags lie inside the
// copy. Forecast plans rely on this (core.NewForecastPlanContext).
type Materialized struct {
	maxLag         int
	channels       []string
	includeContext bool
	targetChannels []string

	n      int
	block  int // 1 + len(channels)
	ctxOff int // context block offset within a superset row
	tgtOff int // target-channel block offset
	width  int // full superset row width
	data   []float64

	// Base columns, resolved once: the hours series and each
	// configured channel as a contiguous slice. ExtendedRow reads
	// them when a phantom day's lags reach back into the real series.
	hours []float64
	chans [][]float64
	tgts  [][]float64

	// tailOwned guards the spare capacity past len(data): AppendDays
	// extends a parent in place only after winning this flag, so two
	// concurrent extensions of the same parent never write the same
	// tail — the loser (and every later child) reallocates.
	tailOwned atomic.Bool
}

// MaterializeContext compiles the superset for d. maxLag must be >= 1;
// every channel and target channel must exist in the dataset. When ctx
// carries an active trace span, the one-pass build is recorded as a
// "featsel.materialize" child with the superset dimensions.
func MaterializeContext(ctx context.Context, d *etl.VehicleDataset, maxLag int, channels []string, includeContext bool, targetChannels []string) (m *Materialized, err error) {
	_, sp := trace.Start(ctx, "featsel.materialize")
	defer func() {
		if sp != nil {
			if m != nil {
				sp.SetAttrInt("days", m.n)
				sp.SetAttrInt("width", m.width)
			}
			sp.SetError(err)
			sp.End()
		}
	}()
	return materialize(d, maxLag, channels, includeContext, targetChannels)
}

func materialize(d *etl.VehicleDataset, maxLag int, channels []string, includeContext bool, targetChannels []string) (*Materialized, error) {
	if maxLag < 1 {
		return nil, fmt.Errorf("featsel: materialize with max lag %d", maxLag)
	}
	for _, ch := range channels {
		if _, ok := d.Channels[ch]; !ok {
			return nil, fmt.Errorf("featsel: dataset has no channel %q", ch)
		}
	}
	for _, ch := range targetChannels {
		if _, ok := d.Channels[ch]; !ok {
			return nil, fmt.Errorf("featsel: dataset has no target channel %q", ch)
		}
	}
	n := d.Len()
	m := &Materialized{
		maxLag:         maxLag,
		channels:       channels,
		includeContext: includeContext,
		targetChannels: targetChannels,
		n:              n,
		block:          1 + len(channels),
		hours:          d.Hours,
		chans:          make([][]float64, len(channels)),
		tgts:           make([][]float64, len(targetChannels)),
	}
	for i, ch := range channels {
		m.chans[i] = d.Channels[ch]
	}
	for i, ch := range targetChannels {
		m.tgts[i] = d.Channels[ch]
	}
	m.ctxOff = maxLag * m.block
	m.tgtOff = m.ctxOff
	if includeContext {
		m.tgtOff += contextWidth
	}
	m.width = m.tgtOff + len(targetChannels)

	// The one pass: for every day fill the available lag blocks, the
	// context encoding and the target-day channel values.
	m.data = make([]float64, n*m.width)
	for t := 0; t < n; t++ {
		row := m.data[t*m.width : (t+1)*m.width]
		limit := maxLag
		if t < limit {
			limit = t
		}
		for lag := 1; lag <= limit; lag++ {
			off := (lag - 1) * m.block
			i := t - lag
			row[off] = m.hours[i]
			for c, col := range m.chans {
				row[off+1+c] = col[i]
			}
		}
		if includeContext {
			fillContext(row[m.ctxOff:m.ctxOff+contextWidth], d.Context[t])
		}
		for c, col := range m.tgts {
			row[m.tgtOff+c] = col[t]
		}
	}
	return m, nil
}

// AppendDays extends the materialization to cover d, a dataset whose
// first Len() days are value-identical to the one m was built from
// (the streaming-ingest append: same series, new tail). It returns a
// new *Materialized — m stays valid for concurrent readers holding
// cached plans — and costs O(k×F) for k appended days, independent of
// the dataset length: only the new rows are computed, and the backing
// array is reused in place when m has unclaimed spare capacity (one
// winner per parent, decided by tailOwned; everyone else reallocates
// with geometric headroom, so a chain of single-day appends is
// amortized O(F) per day).
//
// The caller owns the prefix-equality contract; AppendDays verifies
// only the slice every new row can actually read — the trailing
// MaxLag days of the overlap, bitwise — and refuses on drift. A
// dataset that shrank or lost a configured channel is also refused;
// the caller falls back to a full MaterializeContext.
func (m *Materialized) AppendDays(d *etl.VehicleDataset) (*Materialized, error) {
	n2 := d.Len()
	if n2 < m.n {
		return nil, fmt.Errorf("featsel: append from %d to %d days: dataset shrank", m.n, n2)
	}
	hours := d.Hours
	chans := make([][]float64, len(m.channels))
	for i, ch := range m.channels {
		col, ok := d.Channels[ch]
		if !ok {
			return nil, fmt.Errorf("featsel: append dataset has no channel %q", ch)
		}
		chans[i] = col
	}
	tgts := make([][]float64, len(m.targetChannels))
	for i, ch := range m.targetChannels {
		col, ok := d.Channels[ch]
		if !ok {
			return nil, fmt.Errorf("featsel: append dataset has no target channel %q", ch)
		}
		tgts[i] = col
	}
	// The lag window feeding the new rows must be unchanged. Bitwise
	// comparison: NaN-safe and invisible to float tolerance debates.
	lo := m.n - m.maxLag
	if lo < 0 {
		lo = 0
	}
	if !bitsEqual(hours[lo:m.n], m.hours[lo:m.n]) {
		return nil, fmt.Errorf("featsel: append dataset rewrote hours in the lag window [%d, %d)", lo, m.n)
	}
	for i, col := range chans {
		if !bitsEqual(col[lo:m.n], m.chans[i][lo:m.n]) {
			return nil, fmt.Errorf("featsel: append dataset rewrote channel %q in the lag window", m.channels[i])
		}
	}
	for i, col := range tgts {
		if !bitsEqual(col[lo:m.n], m.tgts[i][lo:m.n]) {
			return nil, fmt.Errorf("featsel: append dataset rewrote target channel %q in the lag window", m.targetChannels[i])
		}
	}

	child := &Materialized{
		maxLag:         m.maxLag,
		channels:       m.channels,
		includeContext: m.includeContext,
		targetChannels: m.targetChannels,
		n:              n2,
		block:          m.block,
		ctxOff:         m.ctxOff,
		tgtOff:         m.tgtOff,
		width:          m.width,
		hours:          hours,
		chans:          chans,
		tgts:           tgts,
	}
	need := n2 * m.width
	if n2 == m.n {
		// Nothing to append: share the rows as-is (no writes, no claim),
		// re-pointing the base columns at the caller's dataset.
		child.data = m.data[:need:need]
		return child, nil
	}
	if cap(m.data) >= need && m.tailOwned.CompareAndSwap(false, true) {
		// Won the parent's tail: the region past m.n*width was zeroed at
		// allocation and, by the CAS chain, never written by anyone else.
		child.data = m.data[:need]
	} else {
		headroom := n2/4 + 4 // geometric: reallocs per day amortize out
		child.data = append(make([]float64, 0, (n2+headroom)*m.width), m.data[:m.n*m.width]...)
		child.data = child.data[:need]
	}
	for t := m.n; t < n2; t++ {
		row := child.data[t*m.width : (t+1)*m.width]
		limit := m.maxLag
		if t < limit {
			limit = t
		}
		for lag := 1; lag <= limit; lag++ {
			off := (lag - 1) * m.block
			i := t - lag
			row[off] = hours[i]
			for c, col := range chans {
				row[off+1+c] = col[i]
			}
		}
		if m.includeContext {
			fillContext(row[m.ctxOff:m.ctxOff+contextWidth], d.Context[t])
		}
		for c, col := range tgts {
			row[m.tgtOff+c] = col[t]
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
func (m *Materialized) Len() int { return m.n }

// MaxLag returns the materialized lag budget.
func (m *Materialized) MaxLag() int { return m.maxLag }

// RowWidth returns the assembled feature-row width for a set of
// selected lags — identical to the equivalent Spec.Width().
func (m *Materialized) RowWidth(lags []int) int {
	return len(lags)*m.block + (m.tgtOff - m.ctxOff) + len(m.targetChannels)
}

// Y returns the prediction target (utilization hours) of day t.
func (m *Materialized) Y(t int) float64 { return m.hours[t] }

// GatherRow assembles the feature row whose prediction target is day
// t into dst (which must have RowWidth(lags) capacity) by copying the
// selected lag blocks, the context encoding and the target-channel
// values out of the superset. It reports false when a selected lag
// would reach before day 0 — the same refusal as Spec.Row. lags must
// be ascending, each within [1, MaxLag].
func (m *Materialized) GatherRow(dst []float64, t int, lags []int) bool {
	if len(lags) == 0 || t >= m.n || t-lags[len(lags)-1] < 0 {
		return false
	}
	row := m.data[t*m.width : (t+1)*m.width]
	k := 0
	for _, lag := range lags {
		off := (lag - 1) * m.block
		k += copy(dst[k:], row[off:off+m.block])
	}
	k += copy(dst[k:], row[m.ctxOff:m.tgtOff])
	copy(dst[k:], row[m.tgtOff:m.width])
	return true
}

// Scratch is reusable backing for gathered training matrices. The
// Regressor contract forbids models from retaining x or y, so one
// scratch can serve every window of an evaluation loop without
// cross-window aliasing.
type Scratch struct {
	rows    [][]float64
	backing []float64
	y       []float64
}

// MatrixInto assembles the training matrix whose targets are the days
// in [from, to), skipping days whose lags would underflow — value- and
// order-identical to Spec.Matrix on the same dataset. The returned
// slices alias s and are valid until the next call with the same
// scratch.
func (m *Materialized) MatrixInto(s *Scratch, lags []int, from, to int) (x [][]float64, y []float64, err error) {
	if from < 0 {
		from = 0
	}
	if to > m.n {
		to = m.n
	}
	width := m.RowWidth(lags)
	rows := to - from
	if rows < 0 {
		rows = 0
	}
	if cap(s.backing) < rows*width {
		s.backing = make([]float64, rows*width)
	}
	if cap(s.rows) < rows {
		s.rows = make([][]float64, rows)
	}
	if cap(s.y) < rows {
		s.y = make([]float64, rows)
	}
	s.rows, s.y = s.rows[:0], s.y[:0]
	used := 0
	for t := from; t < to; t++ {
		dst := s.backing[used : used+width : used+width]
		if !m.GatherRow(dst, t, lags) {
			continue
		}
		s.rows = append(s.rows, dst)
		s.y = append(s.y, m.hours[t])
		used += width
	}
	if len(s.rows) == 0 {
		return nil, nil, fmt.Errorf("%w: [%d, %d) with max lag %d", ErrNoRows, from, to, lags[len(lags)-1])
	}
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

// ExtendedRow assembles the feature row for phantom day n+step, with
// lags reading the base series and any earlier phantom days, the
// context encoding taken from the phantom's own context and the
// target-channel values from the phantom's channel slots. It reports
// false when a lag would reach before day 0.
func (m *Materialized) ExtendedRow(dst []float64, step int, lags []int, ext *Extension) bool {
	t := m.n + step
	if len(lags) == 0 || t-lags[len(lags)-1] < 0 || step >= len(ext.Hours) {
		return false
	}
	k := 0
	for _, lag := range lags {
		i := t - lag
		if i >= m.n {
			dst[k] = ext.Hours[i-m.n]
			for c := range m.chans {
				dst[k+1+c] = ext.Chans[c][i-m.n]
			}
		} else {
			dst[k] = m.hours[i]
			for c, col := range m.chans {
				dst[k+1+c] = col[i]
			}
		}
		k += m.block
	}
	if m.includeContext {
		fillContext(dst[k:k+contextWidth], ext.Ctx[step])
		k += contextWidth
	}
	for c := range m.tgts {
		dst[k+c] = ext.Tgts[c][step]
	}
	return true
}
