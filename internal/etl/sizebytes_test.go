package etl

import "testing"

// SizeBytes is the unit the serving store's resident-bytes accountant
// charges per dataset. It must be deterministic (two loads of the same
// bytes agree, or eviction accounting drifts) and must scale with the
// day count and channel set, since those dominate real heap use.
func TestSizeBytes(t *testing.T) {
	small := testDataset(t, 60)
	big := testDataset(t, 600)

	if got := small.SizeBytes(); got <= 0 {
		t.Fatalf("SizeBytes = %d, want > 0", got)
	}
	if small.SizeBytes() != small.SizeBytes() {
		t.Fatal("SizeBytes is not deterministic on the same dataset")
	}
	if big.SizeBytes() <= small.SizeBytes() {
		t.Fatalf("600-day dataset sized %d, not larger than 60-day %d",
			big.SizeBytes(), small.SizeBytes())
	}

	// Per-day floor: hours (8) + observed (1) + context (2) already
	// cost 11 bytes a day before channels; anything under that means a
	// term dropped.
	if n, got := int64(small.Len()), small.SizeBytes(); got < n*11 {
		t.Fatalf("SizeBytes = %d for %d days, below the %d per-day floor", got, n, n*11)
	}

	// A clone with one extra channel must charge for it.
	clone := small.Clone()
	vals := make([]float64, clone.Len())
	clone.Channels["extra_channel"] = vals
	if clone.SizeBytes() <= small.SizeBytes() {
		t.Fatalf("extra channel did not grow SizeBytes: %d vs %d",
			clone.SizeBytes(), small.SizeBytes())
	}
}
