package regress_test

import (
	"context"
	"math"
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

// planWindows returns the training windows of one vehicle's sliding
// evaluation under the server's pipeline shape, in window order.
func planWindows(tb testing.TB) []window {
	tb.Helper()
	rng := randx.New(21)
	v := fleet.Vehicle{ID: "veh-0", Model: fleet.Model{Type: fleet.RefuseCompactor, Index: 0}, Country: "IT"}
	u := fleet.Unit{Vehicle: v, Model: fleet.NewUsageModel(v, 21, rng.Split())}
	d, err := etl.FromUsage(u, u.Model.Simulate(fleet.StudyStart, 400), rng.Split())
	if err != nil {
		tb.Fatal(err)
	}
	var wl windowLog
	if _, err := core.EvaluateVehicleContext(context.Background(), d, serverConfig(&wl)); err != nil {
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
// training window of a server-shaped evaluation and holds them to the
// reference kernels: LR bit for bit, Lasso within 1e-9·(1+|β|). Every
// window is shorter than six months, so each has an all-zero season
// column and LR solves the ridge normal equations.
func TestFitMatchesReferenceOnPlanWindows(t *testing.T) {
	for wi, w := range planWindows(t) {
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

		lasso := regress.NewLasso()
		if err := lasso.Fit(w.x, w.y); err != nil {
			t.Fatal(err)
		}
		coef, icpt = regress.RefLassoFit(w.x, w.y, lasso.Alpha, 1000, 1e-6)
		got, want := append(lasso.Coefficients(), lasso.Intercept()), append(coef, icpt)
		for j := range want {
			if d := math.Abs(got[j] - want[j]); d > 1e-9*(1+math.Abs(want[j])) {
				t.Errorf("window %d: Lasso β[%d] = %v, reference %v", wi, j, got[j], want[j])
			}
		}
	}
}

// BenchmarkFit times one LR and one Lasso fit on a training window
// of the server's shape (120 rows × 51 columns), gathered by a
// core.Plan from a simulated vehicle.
func BenchmarkFit(b *testing.B) {
	windows := planWindows(b)
	w := windows[len(windows)-1]
	b.Logf("window %d×%d", len(w.x), len(w.x[0]))
	for _, alg := range []regress.Algorithm{regress.AlgLinear, regress.AlgLasso} {
		b.Run(string(alg), func(b *testing.B) {
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
