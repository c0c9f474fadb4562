package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"testing"

	"vup/internal/etl"
	"vup/internal/obs"
	"vup/internal/obs/trace"
	"vup/internal/regress"
	"vup/internal/timeseries"
)

// evaluateAt runs one hold-out evaluation with GOMAXPROCS set to
// procs, so the window fan-out runs with that many workers.
func evaluateAt(procs int, p *Plan) (*Result, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	return p.EvaluateContext(context.Background())
}

// TestEvaluateFanOutMatchesSerial holds the window fan-out to the
// one-worker run bit for bit, for every kind of model the server
// evaluates, under both window strategies, on a series where some
// windows are skipped.
func TestEvaluateFanOutMatchesSerial(t *testing.T) {
	d := testDataset(t, 41, 200)
	for _, alg := range []regress.Algorithm{regress.AlgLastValue, regress.AlgLinear, regress.AlgLasso, regress.AlgGB} {
		for _, st := range []timeseries.Strategy{timeseries.Sliding, timeseries.Expanding} {
			t.Run(fmt.Sprintf("%s/%s", alg, st), func(t *testing.T) {
				cfg := fastConfig()
				cfg.Algorithm = alg
				cfg.Strategy = st
				// Windows whose selected lags eat more than 12 of their
				// rows fall below the minimum and are skipped.
				cfg.MinTrainRows = cfg.W - 12
				p, err := NewPlanContext(context.Background(), d, cfg)
				if err != nil {
					t.Fatal(err)
				}
				serial, err := evaluateAt(1, p)
				if err != nil {
					t.Fatal(err)
				}
				if serial.SkippedWindows == 0 {
					t.Fatal("no skipped window: the case does not cover the skip path")
				}
				fanned, err := evaluateAt(4, p)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(serial, fanned) {
					t.Fatalf("fanned-out result differs from the serial one:\n%+v\n%+v", serial, fanned)
				}
				same := math.Float64bits(serial.PE) == math.Float64bits(fanned.PE) &&
					math.Float64bits(serial.MAE) == math.Float64bits(fanned.MAE)
				for i := range serial.Predictions {
					same = same && math.Float64bits(serial.Predictions[i].Predicted) == math.Float64bits(fanned.Predictions[i].Predicted)
				}
				if !same {
					t.Fatal("fanned-out PE, MAE or predictions differ in their bits")
				}
			})
		}
	}
}

var errPredict = errors.New("predict refused")

// refusingModel is a Last Value model whose Predict fails when its
// training targets end on one of the failAt days, i.e. in the windows
// whose test day that is.
type refusingModel struct {
	regress.LastValue
	hours  []float64
	failAt []int
	fail   bool
}

func (m *refusingModel) Fit(x [][]float64, y []float64) error {
	for s := 0; s+len(y) <= len(m.hours); s++ {
		if slices.Equal(m.hours[s:s+len(y)], y) {
			m.fail = slices.Contains(m.failAt, s+len(y))
			break
		}
	}
	return m.LastValue.Fit(x, y)
}

func (m *refusingModel) Predict(row []float64) (float64, error) {
	if m.fail {
		return 0, errPredict
	}
	return m.LastValue.Predict(row)
}

// TestEvaluateFanOutFirstError pins error identity: when the windows
// at strided positions k and k+3 both fail to predict, the evaluation
// reports window k at every worker count, as the serial loop did.
func TestEvaluateFanOutFirstError(t *testing.T) {
	d := testDataset(t, 42, 200)
	cfg := fastConfig()
	const k = 4
	windows, err := timeseries.Enumerate(d.Len(), cfg.W, cfg.Strategy)
	if err != nil {
		t.Fatal(err)
	}
	first, later := windows[k*cfg.Stride], windows[(k+3)*cfg.Stride]
	cfg.ModelFactory = func() (regress.Regressor, error) {
		return &refusingModel{hours: d.Hours, failAt: []int{first.TrainTo, later.TrainTo}}, nil
	}
	p, err := NewPlanContext(context.Background(), d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("core: vehicle %s window %d: %v", d.VehicleID, k*cfg.Stride, errPredict)
	for _, procs := range []int{1, 4} {
		_, err := evaluateAt(procs, p)
		if !errors.Is(err, errPredict) || err.Error() != want {
			t.Errorf("GOMAXPROCS %d: err = %v, want %q", procs, err, want)
		}
	}
}

// TestEvaluateSpanWorkers checks the plan.evaluate span reports how
// many window workers the evaluation started.
func TestEvaluateSpanWorkers(t *testing.T) {
	d := testDataset(t, 43, 200)
	c := trace.NewCollector(trace.Options{SampleRate: 1})
	ctx, root := c.StartTrace(context.Background(), "evaluate")
	if _, err := EvaluateVehicleContext(ctx, d, fastConfig()); err != nil {
		t.Fatal(err)
	}
	root.End()
	traces := c.Traces()
	if len(traces) != 1 {
		t.Fatalf("%d traces stored, want 1", len(traces))
	}
	want := strconv.Itoa(runtime.GOMAXPROCS(0))
	for _, sp := range traces[0].Spans {
		if sp.Name != "plan.evaluate" {
			continue
		}
		for _, a := range sp.Attrs {
			if a.Key == "workers" {
				if a.Value != want {
					t.Errorf("workers = %s, want GOMAXPROCS %s", a.Value, want)
				}
				return
			}
		}
		t.Fatalf("plan.evaluate has no workers attribute: %v", sp.Attrs)
	}
	t.Fatal("no plan.evaluate span")
}

// TestFleetSweepJobsCountVehicles checks that the window fan-out
// inside each vehicle's evaluation does not leak into the fleet
// sweep's per-stage job count, the Section 4.5 speedup signal: the
// sweep stage counts one job per vehicle, the windows land under
// their own stage.
func TestFleetSweepJobsCountVehicles(t *testing.T) {
	cfg := fastConfig()
	cfg.Stage = "fanout_test_fleet"
	datasets := []*etl.VehicleDataset{testDataset(t, 44, 200), testDataset(t, 45, 200), testDataset(t, 46, 200)}
	sweep := obs.Label{Name: "stage", Value: cfg.Stage}
	windows := obs.Label{Name: "stage", Value: "evaluate_windows"}
	// The registry is process-wide and -cpu/-count rerun this test in
	// the same process, so counts are checked as deltas.
	before := obs.Default.Gather()
	sweepBefore, _ := obs.FindSample(before, "sweep_job_seconds", sweep)
	windowsBefore, _ := obs.FindSample(before, "sweep_job_seconds", windows)
	if _, err := EvaluateFleetContext(context.Background(), datasets, cfg, 2); err != nil {
		t.Fatal(err)
	}
	after := obs.Default.Gather()
	sweepAfter, _ := obs.FindSample(after, "sweep_job_seconds", sweep)
	windowsAfter, _ := obs.FindSample(after, "sweep_job_seconds", windows)
	if got := sweepAfter.Count - sweepBefore.Count; got != uint64(len(datasets)) {
		t.Errorf("sweep stage counted %d jobs, want one per vehicle (%d)", got, len(datasets))
	}
	if windowsAfter.Count <= windowsBefore.Count {
		t.Error("no window jobs counted under the evaluate_windows stage")
	}
}
