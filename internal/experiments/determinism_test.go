package experiments

import (
	"context"
	"reflect"
	"testing"
)

// TestDeterminismAcrossWorkers is the headline contract of the sweep
// engine: a parallel run must be byte-identical to the sequential one.
// It runs the two most fan-out-heavy experiments (tuning: per-vehicle
// matrix builds + per-family grid searches; fig5b: per-algorithm ×
// per-vehicle evaluations) at Workers=1 and Workers=4 and compares the
// full reports. CI runs it under -race with -cpu 1,4.
func TestDeterminismAcrossWorkers(t *testing.T) {
	for _, id := range []string{"tuning", "fig5b"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			seq := Tiny()
			seq.Workers = 1
			par := Tiny()
			par.Workers = 4

			a, err := RunContext(context.Background(), id, seq)
			if err != nil {
				t.Fatalf("%s workers=1: %v", id, err)
			}
			b, err := RunContext(context.Background(), id, par)
			if err != nil {
				t.Fatalf("%s workers=4: %v", id, err)
			}
			if a.Text != b.Text {
				t.Errorf("%s: rendered text differs between workers=1 and workers=4:\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s", id, a.Text, b.Text)
			}
			if !reflect.DeepEqual(a.Tables, b.Tables) {
				t.Errorf("%s: tables differ between workers=1 and workers=4:\nworkers=1: %+v\nworkers=4: %+v", id, a.Tables, b.Tables)
			}
			if a.Render() != b.Render() {
				t.Errorf("%s: full render differs", id)
			}
		})
	}
}

// TestDeterminismDatasets pins the pre-fan-out RNG split order: the
// datasets every evaluation figure trains on must not depend on the
// worker count.
func TestDeterminismDatasets(t *testing.T) {
	seq := Tiny()
	seq.Workers = 1
	par := Tiny()
	par.Workers = 4
	a, err := evalDatasets(seq)
	if err != nil {
		t.Fatal(err)
	}
	b, err := evalDatasets(par)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("dataset count differs: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].VehicleID != b[i].VehicleID {
			t.Fatalf("dataset %d order differs: %s vs %s", i, a[i].VehicleID, b[i].VehicleID)
		}
		if !reflect.DeepEqual(a[i].Hours, b[i].Hours) {
			t.Errorf("dataset %d (%s): hours differ between worker counts", i, a[i].VehicleID)
		}
		if !reflect.DeepEqual(a[i].Channels, b[i].Channels) {
			t.Errorf("dataset %d (%s): channels differ between worker counts", i, a[i].VehicleID)
		}
	}
}
