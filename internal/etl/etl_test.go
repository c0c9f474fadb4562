package etl

import (
	"errors"
	"math"
	"testing"
	"time"

	"vup/internal/canbus"
	"vup/internal/fleet"
	"vup/internal/geo"
	"vup/internal/randx"
	"vup/internal/telematics"
)

func testUnit() fleet.Unit {
	rng := randx.New(1)
	v := fleet.Vehicle{ID: "veh-0", Model: fleet.Model{Type: fleet.RefuseCompactor, Index: 0}, Country: "IT"}
	return fleet.Unit{Vehicle: v, Model: fleet.NewUsageModel(v, 1, rng)}
}

func testDataset(t *testing.T, days int) *VehicleDataset {
	t.Helper()
	u := testUnit()
	usage := u.Model.Simulate(fleet.StudyStart, days)
	d, err := FromUsage(u, usage, randx.New(2))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestFromUsage(t *testing.T) {
	d := testDataset(t, 200)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.Len() != 200 {
		t.Fatalf("len = %d", d.Len())
	}
	if len(d.Channels) != 10 {
		t.Errorf("channels = %d", len(d.Channels))
	}
	if d.ModelID != "RC-00" || d.Type != fleet.RefuseCompactor {
		t.Errorf("identity fields: %q %v", d.ModelID, d.Type)
	}
	for _, obs := range d.Observed {
		if !obs {
			t.Fatal("fast path should observe every day")
		}
	}
}

func TestFromUsageEmpty(t *testing.T) {
	if _, err := FromUsage(testUnit(), nil, randx.New(1)); !errors.Is(err, ErrEmptyDataset) {
		t.Errorf("want ErrEmptyDataset, got %v", err)
	}
}

func TestEnrichContext(t *testing.T) {
	d := testDataset(t, 400)
	// 2015-01-01 was a Thursday and a holiday (New Year).
	ctx := d.Context[0]
	if ctx.DayOfWeek() != time.Thursday {
		t.Errorf("dow = %v", ctx.DayOfWeek())
	}
	if !ctx.Holiday() || ctx.WorkingDay() {
		t.Errorf("New Year context = %s", describe(ctx))
	}
	if ctx.Month() != time.January || ctx.Season() != geo.Winter {
		t.Errorf("calendar fields = %s", describe(ctx))
	}
	// Christmas 2015 (index 358).
	xmas := d.Context[358]
	if !xmas.Holiday() {
		t.Errorf("Christmas not flagged: %s (date %v)", describe(xmas), d.Date(358))
	}
	// A regular Italian Wednesday: 2015-03-04 (index 62).
	wed := d.Context[62]
	if wed.DayOfWeek() != time.Wednesday || !wed.WorkingDay() || wed.Holiday() {
		t.Errorf("regular day context = %s", describe(wed))
	}
}

func TestValidateMisaligned(t *testing.T) {
	d := testDataset(t, 50)
	d.Channels[canbus.ChanSpeed] = d.Channels[canbus.ChanSpeed][:10]
	if err := d.Validate(); err == nil {
		t.Error("misaligned channel accepted")
	}
	d2 := testDataset(t, 50)
	d2.Context = d2.Context[:10]
	if err := d2.Validate(); err == nil {
		t.Error("misaligned context accepted")
	}
	empty := &VehicleDataset{}
	if err := empty.Validate(); !errors.Is(err, ErrEmptyDataset) {
		t.Errorf("want ErrEmptyDataset, got %v", err)
	}
}

func TestFromReportsMatchesDeviceOutput(t *testing.T) {
	rng := randx.New(3)
	u := testUnit()
	dev := telematics.NewDevice(u.Vehicle, rng.Split())
	days := 7
	var all []canbus.Report
	hours := []float64{4, 0, 6, 2, 0, 3, 5}
	for i := 0; i < days; i++ {
		reports, err := dev.SimulateDay(fleet.StudyStart.AddDate(0, 0, i), hours[i], time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, reports...)
	}
	d, err := FromReports(u.Vehicle, all, fleet.StudyStart, days)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range hours {
		if math.Abs(d.Hours[i]-want) > 1 {
			t.Errorf("day %d hours = %v, want ~%v", i, d.Hours[i], want)
		}
		if want > 0 && !d.Observed[i] {
			t.Errorf("active day %d unobserved", i)
		}
		if want == 0 && d.Observed[i] {
			t.Errorf("idle day %d marked observed", i)
		}
	}
	// Active days must carry channel aggregates.
	if d.Channels[canbus.ChanEngineSpeed][0] <= 0 {
		t.Error("active day without rpm aggregate")
	}
}

func TestFromReportsIgnoresOutOfRange(t *testing.T) {
	u := testUnit()
	reports := []canbus.Report{
		{VehicleID: u.Vehicle.ID, Start: fleet.StudyStart.AddDate(0, 0, -1), EngineOnSeconds: 3600},
		{VehicleID: u.Vehicle.ID, Start: fleet.StudyStart.AddDate(0, 0, 100), EngineOnSeconds: 3600},
	}
	d, err := FromReports(u.Vehicle, reports, fleet.StudyStart, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range d.Hours {
		if d.Hours[i] != 0 || d.Observed[i] {
			t.Errorf("out-of-range report leaked into day %d", i)
		}
	}
}

func TestFromReportsErrors(t *testing.T) {
	if _, err := FromReports(testUnit().Vehicle, nil, fleet.StudyStart, 0); err == nil {
		t.Error("zero days accepted")
	}
}

func TestCleanZeroPolicy(t *testing.T) {
	d := testDataset(t, 30)
	d.Observed[5] = false
	d.Hours[5] = 3
	d.Hours[7] = math.NaN()
	d.Hours[8] = -2
	d.Hours[9] = 99
	d.Channels[canbus.ChanSpeed][3] = math.Inf(1)
	repaired, err := Clean(d, MissingZero)
	if err != nil {
		t.Fatal(err)
	}
	if repaired != 1 {
		t.Errorf("repaired = %d", repaired)
	}
	if d.Hours[5] != 0 {
		t.Errorf("missing day not zeroed: %v", d.Hours[5])
	}
	if d.Hours[7] != 0 || d.Hours[8] != 0 {
		t.Error("NaN/negative hours not sanitized")
	}
	if d.Hours[9] != 24 {
		t.Errorf("hours not clamped: %v", d.Hours[9])
	}
	if d.Channels[canbus.ChanSpeed][3] != 0 {
		t.Error("Inf channel not sanitized")
	}
}

func TestCleanForwardFill(t *testing.T) {
	d := testDataset(t, 10)
	d.Hours[4] = 6
	d.Observed[5] = false
	d.Observed[6] = false
	if _, err := Clean(d, MissingForwardFill); err != nil {
		t.Fatal(err)
	}
	if d.Hours[5] != 6 || d.Hours[6] != 6 {
		t.Errorf("ffill = %v %v, want 6 6", d.Hours[5], d.Hours[6])
	}
	// Missing at the very start falls back to zero.
	d2 := testDataset(t, 5)
	d2.Observed[0] = false
	d2.Hours[0] = 3
	Clean(d2, MissingForwardFill)
	if d2.Hours[0] != 0 {
		t.Errorf("leading missing day = %v, want 0", d2.Hours[0])
	}
}

func TestCleanInterpolate(t *testing.T) {
	d := testDataset(t, 10)
	d.Hours[2] = 2
	d.Hours[5] = 8
	d.Observed[3] = false
	d.Observed[4] = false
	if _, err := Clean(d, MissingInterpolate); err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.Hours[3]-4) > 1e-9 || math.Abs(d.Hours[4]-6) > 1e-9 {
		t.Errorf("interpolated = %v %v, want 4 6", d.Hours[3], d.Hours[4])
	}
	// Trailing gap copies the last observed value.
	d2 := testDataset(t, 5)
	d2.Hours[2] = 5
	d2.Observed[3] = false
	d2.Observed[4] = false
	Clean(d2, MissingInterpolate)
	if d2.Hours[4] != 5 {
		t.Errorf("trailing gap = %v, want 5", d2.Hours[4])
	}
}

// TestCleanForwardFillNoPriorZeroesChannels is the regression test for
// the partial-fill bug: a leading missing day under ffill used to zero
// Hours but keep stale channel values.
func TestCleanForwardFillNoPriorZeroesChannels(t *testing.T) {
	d := testDataset(t, 5)
	d.Observed[0] = false
	d.Hours[0] = 3
	d.Channels[canbus.ChanSpeed][0] = 42
	repaired, err := Clean(d, MissingForwardFill)
	if err != nil {
		t.Fatal(err)
	}
	if repaired != 1 {
		t.Errorf("repaired = %d", repaired)
	}
	if d.Hours[0] != 0 {
		t.Errorf("hours = %v, want 0", d.Hours[0])
	}
	if d.Channels[canbus.ChanSpeed][0] != 0 {
		t.Errorf("channel kept stale value %v, want 0", d.Channels[canbus.ChanSpeed][0])
	}
}

// TestCleanInterpolateNoObservedDays is the regression test for the
// counted-but-unrepaired bug: with no observed day at all, interpolate
// used to leave every value stale while still counting the days as
// repaired. Both fill policies must fall back to zeroing.
func TestCleanInterpolateNoObservedDays(t *testing.T) {
	for _, policy := range []MissingPolicy{MissingInterpolate, MissingForwardFill} {
		d := testDataset(t, 4)
		for i := range d.Observed {
			d.Observed[i] = false
			d.Hours[i] = 5
			d.Channels[canbus.ChanSpeed][i] = 9
		}
		repaired, err := Clean(d, policy)
		if err != nil {
			t.Fatal(err)
		}
		if repaired != d.Len() {
			t.Errorf("policy %v: repaired = %d, want %d actually-modified days", policy, repaired, d.Len())
		}
		for i := 0; i < d.Len(); i++ {
			if d.Hours[i] != 0 || d.Channels[canbus.ChanSpeed][i] != 0 {
				t.Fatalf("policy %v: day %d not zeroed (hours %v, speed %v)",
					policy, i, d.Hours[i], d.Channels[canbus.ChanSpeed][i])
			}
		}
	}
}

// TestCleanFromMatchesClean: cleaning only the appended suffix of a
// dataset whose prefix was already cleaned must yield exactly the
// state a full Clean produces on the same data.
func TestCleanFromMatchesClean(t *testing.T) {
	for _, policy := range []MissingPolicy{MissingZero, MissingForwardFill, MissingInterpolate} {
		dirty := func() *VehicleDataset {
			d := testDataset(t, 40)
			d.Observed[10] = false
			d.Hours[10] = math.NaN()
			d.Observed[35] = false
			d.Observed[36] = false
			d.Hours[36] = -7
			d.Channels[canbus.ChanSpeed][38] = math.Inf(-1)
			return d
		}
		full := dirty()
		if _, err := Clean(full, policy); err != nil {
			t.Fatal(err)
		}
		incr := dirty()
		if _, err := Clean(incr, policy); err != nil {
			t.Fatal(err)
		}
		// "Append" five more days with a gap, then clean only the suffix.
		grow := func(d *VehicleDataset) {
			for i := 0; i < 5; i++ {
				d.Hours = append(d.Hours, float64(i))
				d.Observed = append(d.Observed, i != 2)
				d.Context = append(d.Context, 0)
				for name := range d.Channels {
					d.Channels[name] = append(d.Channels[name], float64(i))
				}
			}
			d.Hours[len(d.Hours)-1] = math.Inf(1)
			d.Enrich()
		}
		grow(full)
		grow(incr)
		if _, err := Clean(full, policy); err != nil {
			t.Fatal(err)
		}
		repaired, err := CleanFrom(incr, policy, 40)
		if err != nil {
			t.Fatal(err)
		}
		if repaired != 1 {
			t.Errorf("policy %v: suffix repaired = %d, want 1", policy, repaired)
		}
		if full.Fingerprint() != incr.Fingerprint() {
			t.Errorf("policy %v: incremental clean diverged from full clean", policy)
		}
	}
}

// TestCleanFromLeavesPrefixUntouched: CleanFrom must never rewrite
// days before from, even dirty ones.
func TestCleanFromLeavesPrefixUntouched(t *testing.T) {
	d := testDataset(t, 20)
	d.Hours[3] = math.NaN()
	d.Observed[4] = false
	d.Hours[4] = 9
	if _, err := CleanFrom(d, MissingZero, 10); err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(d.Hours[3]) || d.Hours[4] != 9 {
		t.Errorf("prefix modified: hours[3]=%v hours[4]=%v", d.Hours[3], d.Hours[4])
	}
}

func TestCleanFromNegativeFrom(t *testing.T) {
	d := testDataset(t, 5)
	d.Hours[0] = math.NaN()
	if _, err := CleanFrom(d, MissingZero, -3); err != nil {
		t.Fatal(err)
	}
	if d.Hours[0] != 0 {
		t.Error("negative from should clamp to 0 and sanitize everything")
	}
}

func TestCloneIsDeepAndFingerprintStable(t *testing.T) {
	d := testDataset(t, 30)
	c := d.Clone()
	if c.Fingerprint() != d.Fingerprint() {
		t.Fatal("clone fingerprint differs")
	}
	if c.Dates != nil {
		t.Error("clone materialized Dates for a contiguous dataset")
	}
	c.Hours[0] += 1
	c.Channels[canbus.ChanSpeed][1] += 1
	c.Observed[2] = !c.Observed[2]
	if c.Fingerprint() == d.Fingerprint() {
		t.Error("mutating the clone changed the original's fingerprint view")
	}
	if d.Hours[0] == c.Hours[0] || d.Channels[canbus.ChanSpeed][1] == c.Channels[canbus.ChanSpeed][1] {
		t.Error("clone shares backing arrays with the original")
	}

	// A subsetted dataset has explicit dates; the clone must keep them.
	sub, err := d.Subset([]int{0, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	sc := sub.Clone()
	if sc.Fingerprint() != sub.Fingerprint() {
		t.Error("clone of dated dataset drifted")
	}
	if sc.Dates == nil {
		t.Error("clone dropped the Dates array")
	}
}

func TestCleanUnknownPolicy(t *testing.T) {
	d := testDataset(t, 5)
	d.Observed[0] = false
	if _, err := Clean(d, MissingPolicy(42)); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestMissingPolicyString(t *testing.T) {
	if MissingZero.String() != "zero" || MissingForwardFill.String() != "ffill" ||
		MissingInterpolate.String() != "interpolate" || MissingPolicy(9).String() != "policy(9)" {
		t.Error("policy names wrong")
	}
}

func TestStandardScaler(t *testing.T) {
	var s StandardScaler
	if _, err := s.Transform([]float64{1}); !errors.Is(err, ErrNotFitted) {
		t.Errorf("want ErrNotFitted, got %v", err)
	}
	xs := []float64{2, 4, 6, 8}
	if err := s.Fit(xs); err != nil {
		t.Fatal(err)
	}
	out, err := s.Transform(xs)
	if err != nil {
		t.Fatal(err)
	}
	var mean float64
	for _, v := range out {
		mean += v
	}
	if math.Abs(mean) > 1e-12 {
		t.Errorf("scaled mean = %v", mean/4)
	}
	back, err := s.Inverse(out)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		if math.Abs(back[i]-xs[i]) > 1e-9 {
			t.Errorf("inverse round trip: %v != %v", back[i], xs[i])
		}
	}
	if err := s.Fit(nil); err == nil {
		t.Error("empty fit accepted")
	}
}

func TestStandardScalerConstant(t *testing.T) {
	var s StandardScaler
	s.Fit([]float64{5, 5, 5})
	out, _ := s.Transform([]float64{5, 5})
	if out[0] != 0 || out[1] != 0 {
		t.Errorf("constant transform = %v", out)
	}
	back, _ := s.Inverse(out)
	if back[0] != 5 {
		t.Errorf("constant inverse = %v", back)
	}
}

func TestMinMaxScaler(t *testing.T) {
	var s MinMaxScaler
	if _, err := s.Transform([]float64{1}); !errors.Is(err, ErrNotFitted) {
		t.Errorf("want ErrNotFitted, got %v", err)
	}
	xs := []float64{10, 20, 30}
	s.Fit(xs)
	out, _ := s.Transform(xs)
	if out[0] != 0 || out[2] != 1 || math.Abs(out[1]-0.5) > 1e-12 {
		t.Errorf("minmax = %v", out)
	}
	back, _ := s.Inverse(out)
	for i := range xs {
		if math.Abs(back[i]-xs[i]) > 1e-9 {
			t.Errorf("inverse = %v", back)
		}
	}
	var c MinMaxScaler
	c.Fit([]float64{7, 7})
	cv, _ := c.Transform([]float64{7})
	if cv[0] != 0 {
		t.Errorf("constant minmax = %v", cv)
	}
	if _, err := c.Inverse([]float64{0}); err != nil {
		t.Errorf("inverse after fit: %v", err)
	}
	var unfitted MinMaxScaler
	if _, err := unfitted.Inverse([]float64{0}); !errors.Is(err, ErrNotFitted) {
		t.Errorf("want ErrNotFitted, got %v", err)
	}
}

func TestNormalizeChannels(t *testing.T) {
	d := testDataset(t, 100)
	scalers, err := NormalizeChannels(d, func() Scaler { return &StandardScaler{} })
	if err != nil {
		t.Fatal(err)
	}
	if len(scalers) != 10 {
		t.Errorf("scalers = %d", len(scalers))
	}
	// Each channel is now ~zero mean.
	for name, vals := range d.Channels {
		var sum float64
		for _, v := range vals {
			sum += v
		}
		if math.Abs(sum/float64(len(vals))) > 1e-9 {
			t.Errorf("channel %s mean = %v after scaling", name, sum/float64(len(vals)))
		}
	}
}

func TestToTable(t *testing.T) {
	d := testDataset(t, 60)
	tab, err := d.ToTable()
	if err != nil {
		t.Fatal(err)
	}
	if tab.Rows() != 60 {
		t.Fatalf("rows = %d", tab.Rows())
	}
	if tab.Schema().Len() != 11+10 {
		t.Errorf("columns = %d", tab.Schema().Len())
	}
	hours, err := tab.FloatCol("hours")
	if err != nil {
		t.Fatal(err)
	}
	for i := range hours {
		if hours[i] != d.Hours[i] {
			t.Fatalf("hours column mismatch at %d", i)
		}
	}
	ids, _ := tab.StringCol("vehicle_id")
	if ids[0] != "veh-0" {
		t.Errorf("vehicle_id = %q", ids[0])
	}
}

func TestToTableEmpty(t *testing.T) {
	d := &VehicleDataset{}
	if _, err := d.ToTable(); !errors.Is(err, ErrEmptyDataset) {
		t.Errorf("want ErrEmptyDataset, got %v", err)
	}
}
