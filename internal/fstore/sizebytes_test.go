package fstore

import (
	"runtime"
	"testing"
)

// TestSizeBytesMatchesDecodedHeap: the resident budget charges a
// faulted-in dataset its SizeBytes, so that estimate must track what
// decoding a snapshot actually keeps on the heap. Decoding a
// study-length snapshot several times and holding the results must
// grow the live heap by SizeBytes per dataset, within ±10%.
func TestSizeBytesMatchesDecodedHeap(t *testing.T) {
	const copies = 16
	enc, err := EncodeDataset(synthChannels(3, 1369, studyChannels))
	if err != nil {
		t.Fatal(err)
	}
	heap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	if _, err := DecodeDataset(enc); err != nil { // warm the calendar memo
		t.Fatal(err)
	}
	before := heap()
	kept := make([]any, copies)
	var size int64
	for i := range kept {
		d, err := DecodeDataset(enc)
		if err != nil {
			t.Fatal(err)
		}
		kept[i], size = d, d.SizeBytes()
	}
	grew := float64(heap()-before) / copies
	runtime.KeepAlive(kept)
	if ratio := grew / float64(size); ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("decoding a 1369-day snapshot keeps %.0f B live, SizeBytes charges %d B (ratio %.3f, want within ±10%%)", grew, size, ratio)
	}
	t.Logf("live heap per decoded dataset %.0f B, SizeBytes %d B", grew, size)
}
