package etl

import (
	"fmt"
	"math"
	"testing"
	"time"

	"vup/internal/canbus"
	"vup/internal/fleet"
	"vup/internal/randx"
)

// TestFingerprintRowsAppend pins the property the row-order definition
// exists for: the fingerprint of a prefix, with the remaining rows
// folded into it, is the fingerprint of the whole series.
func TestFingerprintRowsAppend(t *testing.T) {
	d := testDataset(t, 60)
	sub, err := d.Subset([]int{0, 2, 3, 7, 11, 12})
	if err != nil {
		t.Fatal(err)
	}
	for _, full := range []*VehicleDataset{d, sub} {
		names := full.ChannelNames()
		for _, cut := range []int{0, 1, 3, full.Len() / 2, full.Len() - 1, full.Len()} {
			prefix := full.Clone()
			prefix.Hours = prefix.Hours[:cut]
			prefix.Observed = prefix.Observed[:cut]
			if prefix.Dates != nil {
				prefix.Dates = prefix.Dates[:cut]
			}
			tail := make([][]float64, len(names))
			for j, name := range names {
				prefix.Channels[name] = prefix.Channels[name][:cut]
				tail[j] = full.Channels[name][cut:]
			}
			var dates []time.Time
			if full.Dates != nil {
				dates = full.Dates[cut:]
			}
			got := fingerprintRows(prefix.Fingerprint(), full.Hours[cut:], full.Observed[cut:], dates, tail)
			if want := full.Fingerprint(); got != want {
				t.Errorf("explicit dates %v, cut %d: extended %016x, full %016x", full.Dates != nil, cut, got, want)
			}
		}
	}
}

// referenceFingerprint computes the definition word by word, as
// written: the header words, then per row a row hash folded from
// fpSeed over the row's words, each row hash folded into the state.
func referenceFingerprint(d *VehicleDataset) uint64 {
	fold := func(h uint64, words []uint64) uint64 {
		for _, w := range words {
			h = fpMix(h, w)
		}
		return h
	}
	var header []uint64
	str := func(s string) {
		header = append(header, uint64(len(s)))
		for lo := 0; lo < len(s); lo += 8 {
			var w uint64
			for j := min(lo+8, len(s)) - 1; j >= lo; j-- {
				w = w<<8 | uint64(s[j])
			}
			header = append(header, w)
		}
	}
	str(d.VehicleID)
	str(d.ModelID)
	str(d.Country)
	header = append(header, uint64(d.Type), uint64(d.Start.Unix()), b2u(d.Dates != nil))
	names := d.ChannelNames()
	header = append(header, uint64(len(names)))
	for _, name := range names {
		str(name)
	}
	h := fold(fpSeed, header)
	for i := 0; i < d.Len(); i++ {
		row := []uint64{math.Float64bits(d.Hours[i]), b2u(d.Observed[i])}
		if d.Dates != nil {
			row = append(row, uint64(d.Dates[i].Unix()))
		}
		for _, name := range names {
			row = append(row, math.Float64bits(d.Channels[name][i]))
		}
		h = fpMix(h, fold(fpSeed, row))
	}
	return h
}

// TestFingerprintMatchesDefinition holds the unrolled row loop to the
// word-by-word definition at every length modulo the unroll, with and
// without explicit dates.
func TestFingerprintMatchesDefinition(t *testing.T) {
	d := testDataset(t, 40)
	d.VehicleID = "a-vehicle-id-longer-than-eight-bytes"
	for n := 1; n <= 9; n++ {
		idx := make([]int, n)
		for k := range idx {
			idx[k] = 3 * k
		}
		sub, err := d.Subset(idx)
		if err != nil {
			t.Fatal(err)
		}
		contiguous := sub.Clone()
		contiguous.Dates = nil
		for _, ds := range []*VehicleDataset{sub, contiguous} {
			if got, want := ds.Fingerprint(), referenceFingerprint(ds); got != want {
				t.Errorf("%d rows, explicit dates %v: Fingerprint %016x, definition %016x", n, ds.Dates != nil, got, want)
			}
		}
	}
}

// TestFingerprintCoversEveryInput changes one input at a time and
// expects a new fingerprint each time.
func TestFingerprintCoversEveryInput(t *testing.T) {
	base := testDataset(t, 20)
	seen := map[uint64]string{base.Fingerprint(): "base"}
	for name, mutate := range map[string]func(d *VehicleDataset){
		"vehicle id":    func(d *VehicleDataset) { d.VehicleID += "x" },
		"model id":      func(d *VehicleDataset) { d.ModelID += "x" },
		"country":       func(d *VehicleDataset) { d.Country = "DE" },
		"type":          func(d *VehicleDataset) { d.Type++ },
		"start":         func(d *VehicleDataset) { d.Start = d.Start.AddDate(0, 0, 1) },
		"hours":         func(d *VehicleDataset) { d.Hours[7] = math.Nextafter(d.Hours[7], 100) },
		"observed":      func(d *VehicleDataset) { d.Observed[3] = !d.Observed[3] },
		"channel value": func(d *VehicleDataset) { d.Channels[canbus.ChanSpeed][9]++ },
		"added channel": func(d *VehicleDataset) { d.Channels[ChanFaultCount] = make([]float64, d.Len()) },
		"channel rename": func(d *VehicleDataset) {
			d.Channels["zz"] = d.Channels[canbus.ChanSpeed]
			delete(d.Channels, canbus.ChanSpeed)
		},
		"high bits": func(d *VehicleDataset) {
			// The top bit of two consecutive words: an xor-multiply
			// without the xor-shift would let these flips cancel.
			names := d.ChannelNames()
			d.Channels[names[0]][5] = -d.Channels[names[0]][5]
			d.Channels[names[1]][5] = -d.Channels[names[1]][5]
		},
		"explicit dates": func(d *VehicleDataset) {
			// The same calendar, materialized: only the flag differs.
			for i := 0; i < d.Len(); i++ {
				d.Dates = append(d.Dates, d.Date(i))
			}
		},
	} {
		d := base.Clone()
		mutate(d)
		fp := d.Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Errorf("%s: fingerprint %016x collides with %s", name, fp, prev)
		}
		seen[fp] = name
	}
}

// BenchmarkFingerprint times one fingerprint of a study-shaped dataset
// (10 channels) at two and at the study's 1 369 days.
func BenchmarkFingerprint(b *testing.B) {
	for _, days := range []int{730, 1369} {
		b.Run(fmt.Sprintf("days=%d", days), func(b *testing.B) {
			u := testUnit()
			d, err := FromUsage(u, u.Model.Simulate(fleet.StudyStart, days), randx.New(2))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Fingerprint()
			}
		})
	}
}
