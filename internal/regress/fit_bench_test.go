package regress_test

import (
	"context"
	"slices"
	"sort"
	"sync"
	"testing"

	"vup/internal/canbus"
	"vup/internal/core"
	"vup/internal/etl"
	"vup/internal/fleet"
	"vup/internal/randx"
	"vup/internal/regress"
)

// window is one training set handed to a regressor by the pipeline;
// end is the position just past its targets in the series.
type window struct {
	x   [][]float64
	y   []float64
	end int
}

// windowLog collects the training sets of one evaluation. The
// evaluation fits its windows on concurrent workers, so appends are
// locked and arrive in completion order.
type windowLog struct {
	mu      sync.Mutex
	windows []window
}

// recorder is a Last Value model that keeps a copy of every training
// set it is fitted on.
type recorder struct {
	regress.LastValue
	log *windowLog
}

func (r *recorder) Fit(x [][]float64, y []float64) error {
	w := window{x: make([][]float64, len(x)), y: append([]float64(nil), y...)}
	for i, row := range x {
		w.x[i] = append([]float64(nil), row...)
	}
	r.log.mu.Lock()
	r.log.windows = append(r.log.windows, w)
	r.log.mu.Unlock()
	return r.LastValue.Fit(x, y)
}

// serverConfig is the pipeline shape vup-server evaluates with:
// 120-day sliding windows, K=12 of 28 lags, two channels plus the
// calendar context.
func serverConfig(wl *windowLog) core.Config {
	cfg := core.DefaultConfig()
	cfg.W = 120
	cfg.K = 12
	cfg.MaxLag = 28
	cfg.Stride = 10
	cfg.Channels = []string{canbus.ChanFuelRate, canbus.ChanEngineSpeed}
	cfg.ModelFactory = func() (regress.Regressor, error) {
		return &recorder{log: wl}, nil
	}
	return cfg
}

// paperConfig is the paper's pipeline shape, DefaultConfig: 140-day
// sliding windows, K=20 of 42 lags of the hours and every analog
// channel plus the calendar context, 235 columns in all. Every 20th
// day is evaluated.
func paperConfig(wl *windowLog) core.Config {
	cfg := core.DefaultConfig()
	cfg.Stride = 20
	cfg.ModelFactory = func() (regress.Regressor, error) {
		return &recorder{log: wl}, nil
	}
	return cfg
}

// planWindows returns the training windows of one vehicle's sliding
// evaluation under a pipeline shape, in window order.
func planWindows(tb testing.TB, shape func(*windowLog) core.Config) []window {
	tb.Helper()
	rng := randx.New(21)
	v := fleet.Vehicle{ID: "veh-0", Model: fleet.Model{Type: fleet.RefuseCompactor, Index: 0}, Country: "IT"}
	u := fleet.Unit{Vehicle: v, Model: fleet.NewUsageModel(v, 21, rng.Split())}
	d, err := etl.FromUsage(u, u.Model.Simulate(fleet.StudyStart, 400), rng.Split())
	if err != nil {
		tb.Fatal(err)
	}
	var wl windowLog
	if _, err := core.EvaluateVehicleContext(context.Background(), d, shape(&wl)); err != nil {
		tb.Fatal(err)
	}
	windows := wl.windows
	if len(windows) == 0 {
		tb.Fatal("no training windows")
	}
	// A window's targets are the contiguous run of days ending at its
	// TrainTo (next-day view = the series), so that end orders the
	// windows as the evaluation enumerates them.
	for i := range windows {
		if windows[i].end = targetsEnd(d.Hours, windows[i].y); windows[i].end < 0 {
			tb.Fatalf("window %d: targets are not a run of the series", i)
		}
	}
	sort.Slice(windows, func(i, j int) bool { return windows[i].end < windows[j].end })
	for i := 1; i < len(windows); i++ {
		if windows[i].end == windows[i-1].end {
			tb.Fatalf("windows %d and %d end at the same day %d", i-1, i, windows[i].end)
		}
	}
	return windows
}

// targetsEnd returns the position just past the first occurrence of y
// as a contiguous run of hours, or -1.
func targetsEnd(hours, y []float64) int {
	for s := 0; s+len(y) <= len(hours); s++ {
		if slices.Equal(hours[s:s+len(y)], y) {
			return s + len(y)
		}
	}
	return -1
}

// TestFitMatchesReferenceOnPlanWindows fits LR and Lasso on every
// training window of a server-shaped evaluation. LR must match the
// reference kernel bit for bit: every window is shorter than six
// months, so each has an all-zero season column and LR solves the
// ridge normal equations. Lasso must pass its certificate
// (regress.CheckLassoFit), and the share of windows that fall back to
// coordinate descent is logged.
func TestFitMatchesReferenceOnPlanWindows(t *testing.T) {
	windows := planWindows(t, serverConfig)
	fellBack := 0
	for wi, w := range windows {
		if !regress.HasZeroColumn(w.x) {
			t.Fatalf("window %d has no all-zero column", wi)
		}
		lr := regress.NewLinear()
		if err := lr.Fit(w.x, w.y); err != nil {
			t.Fatal(err)
		}
		coef, icpt, err := regress.RefLinearFit(w.x, w.y)
		if err != nil {
			t.Fatal(err)
		}
		if !regress.SameBits(append(lr.Coefficients(), lr.Intercept()), append(coef, icpt)) {
			t.Errorf("window %d: LR differs from the reference", wi)
		}
		if regress.CheckLassoFit(t, w.x, w.y, regress.NewLasso().Alpha) {
			fellBack++
		}
	}
	t.Logf("Lasso: %d of %d windows fell back to coordinate descent", fellBack, len(windows))
}

// TestLassoCertificateOnPaperWindows holds Lasso to its certificate on
// training windows of the paper's shape (140 rows × 235 columns).
func TestLassoCertificateOnPaperWindows(t *testing.T) {
	windows := planWindows(t, paperConfig)
	fellBack := 0
	for _, w := range windows {
		if regress.CheckLassoFit(t, w.x, w.y, regress.NewLasso().Alpha) {
			fellBack++
		}
	}
	t.Logf("Lasso: %d of %d windows fell back to coordinate descent", fellBack, len(windows))
}

// BenchmarkFit times one LR and one Lasso fit on the last training
// window of a server-shaped evaluation (120 rows × 51 columns) and of
// a paper-shaped one (140 rows × 235 columns), each gathered by a
// core.Plan from a simulated vehicle.
func BenchmarkFit(b *testing.B) {
	for _, shape := range []struct {
		name string
		cfg  func(*windowLog) core.Config
	}{{"", serverConfig}, {"paper/", paperConfig}} {
		windows := planWindows(b, shape.cfg)
		w := windows[len(windows)-1]
		b.Logf("%swindow %d×%d", shape.name, len(w.x), len(w.x[0]))
		for _, alg := range []regress.Algorithm{regress.AlgLinear, regress.AlgLasso} {
			b.Run(shape.name+string(alg), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					m, err := regress.New(alg)
					if err != nil {
						b.Fatal(err)
					}
					if err := m.Fit(w.x, w.y); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
