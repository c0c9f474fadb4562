package fstore

// Store throughput benchmarks: snapshot encode/decode per vehicle, and
// full-fleet save/cold-boot for a 1 000-vehicle year — the numbers
// recorded in BENCH_store.json. Fleets are built synthetically (not via
// fleet.Generate) so the benchmark measures the store, not the
// simulator.

import (
	"fmt"
	"math"
	"os"
	"testing"
	"time"

	"vup/internal/etl"
	"vup/internal/fleet"
)

// benchChannels matches the study's analog channel count (Table 1).
var benchChannels = []string{"engine_speed", "fuel_rate", "coolant_temp", "oil_pressure", "boost_pressure"}

// studyChannels has the channel count of the served study fleet
// (canbus.AnalogChannels): ten series per snapshot.
var studyChannels = []string{"engine_speed", "fuel_rate", "coolant_temp", "oil_pressure", "boost_pressure",
	"speed", "load", "hydraulic_pressure", "intake_temp", "battery_voltage"}

// synthDataset builds one deterministic vehicle-year without running
// the fleet simulator.
func synthDataset(id, days int) *etl.VehicleDataset {
	return synthChannels(id, days, benchChannels)
}

// synthChannels is synthDataset over the given channel names.
func synthChannels(id, days int, channels []string) *etl.VehicleDataset {
	d := &etl.VehicleDataset{
		VehicleID: fmt.Sprintf("veh-%04d", id),
		Type:      fleet.Type(id % 3),
		ModelID:   fmt.Sprintf("model-%d", id%7),
		Country:   "IT",
		Start:     time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC),
		Hours:     make([]float64, days),
		Observed:  make([]bool, days),
		Channels:  make(map[string][]float64, len(channels)),
	}
	for _, name := range channels {
		d.Channels[name] = make([]float64, days)
	}
	for i := 0; i < days; i++ {
		phase := float64(id)/10 + float64(i)/7
		d.Hours[i] = 4 + 3*math.Sin(phase)
		d.Observed[i] = i%11 != 0
		for c, name := range channels {
			d.Channels[name][i] = float64(c+1) * (100 + 10*math.Cos(phase+float64(c)))
		}
	}
	d.Enrich()
	return d
}

func synthFleet(n, days int) []*etl.VehicleDataset {
	out := make([]*etl.VehicleDataset, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, synthDataset(i, days))
	}
	return out
}

func BenchmarkEncodeDataset(b *testing.B) {
	d := synthDataset(0, 365)
	enc, err := EncodeDataset(d)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(enc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeDataset(d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeDataset decodes one snapshot: a vehicle-year and a
// study-length (1 369-day) series of five channels, and the study
// fleet's shape, 1 369 days of ten channels — the snapshot a cold
// forecast faults in.
func BenchmarkDecodeDataset(b *testing.B) {
	for _, tc := range []struct {
		name     string
		days     int
		channels []string
	}{
		{"days=365", 365, benchChannels},
		{"days=1369", 1369, benchChannels},
		{"days=1369/channels=10", 1369, studyChannels},
	} {
		b.Run(tc.name, func(b *testing.B) {
			enc, err := EncodeDataset(synthChannels(0, tc.days, tc.channels))
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(enc)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := DecodeDataset(enc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// fleetBytes is the on-disk size of a fleet's snapshots, for MB/s.
func fleetBytes(b *testing.B, datasets []*etl.VehicleDataset) int64 {
	b.Helper()
	var total int64
	for _, d := range datasets {
		enc, err := EncodeDataset(d)
		if err != nil {
			b.Fatal(err)
		}
		total += int64(len(enc))
	}
	return total
}

// BenchmarkStoreSave writes a full 1 000-vehicle-year snapshot
// (fsync-per-file durability included — this is the shutdown path).
func BenchmarkStoreSave(b *testing.B) {
	datasets := synthFleet(1000, 365)
	b.SetBytes(fleetBytes(b, datasets))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dir, err := Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := dir.Save(datasets); err != nil {
			b.Fatal(err)
		}
		if err := dir.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreColdBoot measures what vup-server -data-dir pays on
// start: open the directory, decode every snapshot, verify every
// checksum and fingerprint.
func BenchmarkStoreColdBoot(b *testing.B) {
	datasets := synthFleet(1000, 365)
	path := b.TempDir()
	dir, err := Open(path)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := dir.Save(datasets); err != nil {
		b.Fatal(err)
	}
	if err := dir.Close(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(fleetBytes(b, datasets))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dir, err := Open(path)
		if err != nil {
			b.Fatal(err)
		}
		loaded, _, err := dir.Load()
		if err != nil {
			b.Fatal(err)
		}
		if len(loaded) != len(datasets) {
			b.Fatalf("loaded %d vehicles, want %d", len(loaded), len(datasets))
		}
		if err := dir.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// savedFleetDir saves a synthetic fleet once and returns its path.
func savedFleetDir(b *testing.B, n, days int) string {
	b.Helper()
	datasets := synthFleet(n, days)
	path := b.TempDir()
	dir, err := Open(path)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := dir.Save(datasets); err != nil {
		b.Fatal(err)
	}
	if err := dir.Close(); err != nil {
		b.Fatal(err)
	}
	return path
}

// benchFleetSizes returns the fleet sizes to benchmark boots at. The
// 10 000-vehicle point takes minutes to set up; it is gated behind
// VUP_BENCH_LARGE=1 (the BENCH_boot.json capture sets it).
func benchFleetSizes() []int {
	if os.Getenv("VUP_BENCH_LARGE") == "1" {
		return []int{1000, 10000}
	}
	return []int{1000}
}

// BenchmarkBootManifest measures what a lazy vup-server pays on start:
// open the directory, parse the manifest and index the log — no
// snapshot is decoded. Compare against BenchmarkBootEager at the same
// fleet size; the gap is what -lazy-load buys (BENCH_boot.json).
func BenchmarkBootManifest(b *testing.B) {
	for _, n := range benchFleetSizes() {
		b.Run(fmt.Sprintf("vehicles=%d", n), func(b *testing.B) {
			path := savedFleetDir(b, n, 365)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dir, err := Open(path)
				if err != nil {
					b.Fatal(err)
				}
				if got := len(dir.VehicleIDs()); got != n {
					b.Fatalf("roster lists %d vehicles, want %d", got, n)
				}
				if err := dir.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBootEager is the whole-fleet-in-RAM boot at the same fleet
// sizes: decode and verify every snapshot. (BenchmarkStoreColdBoot is
// its throughput-oriented sibling; this one exists to pair with
// BenchmarkBootManifest point for point.)
func BenchmarkBootEager(b *testing.B) {
	for _, n := range benchFleetSizes() {
		b.Run(fmt.Sprintf("vehicles=%d", n), func(b *testing.B) {
			path := savedFleetDir(b, n, 365)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dir, err := Open(path)
				if err != nil {
					b.Fatal(err)
				}
				loaded, _, err := dir.Load()
				if err != nil {
					b.Fatal(err)
				}
				if len(loaded) != n {
					b.Fatalf("loaded %d vehicles, want %d", len(loaded), n)
				}
				if err := dir.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLazyFirstLoad is the per-vehicle fault a lazy server pays
// on a cold request: decode one snapshot and verify it against the
// manifest. This is the latency a cold vehicle's first forecast
// carries on top of the model fit.
func BenchmarkLazyFirstLoad(b *testing.B) {
	path := savedFleetDir(b, 100, 365)
	dir, err := Open(path)
	if err != nil {
		b.Fatal(err)
	}
	ids := dir.VehicleIDs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dir.LoadVehicle(ids[i%len(ids)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLogAppend measures streaming ingest: one fsynced log record
// per day appended.
func BenchmarkLogAppend(b *testing.B) {
	datasets := synthFleet(1, 365)
	dir, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := dir.Save(datasets); err != nil {
		b.Fatal(err)
	}
	d := datasets[0]
	chans := make(map[string]float64, len(d.Channels))
	for name := range d.Channels {
		chans[name] = 1
	}
	next := d.Date(d.Len() - 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next = next.AddDate(0, 0, 1)
		if err := dir.Append(d.VehicleID, Day{Date: next, Hours: 5, Observed: true, Channels: chans}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := dir.Close(); err != nil {
		b.Fatal(err)
	}
}
