//go:build !race

package server

// Allocation guards for the single-pass request decoder. A body that
// silently fell back to encoding/json would still decode, so only its
// cost shows the fall-back. The canonical decoder copies no input: text
// inputs alias the body, and kind names are the wireNames constants, so
// a batch allocates only the growth of its request slice, whatever the
// size of its strings. The encoding/json fallback allocates a string
// per string field, and more on top of its scan.

import (
	"encoding/json"
	"math/rand"
	"runtime"
	"testing"

	"semilocal/internal/benchkit"
)

func TestDecodeBatchHotAllocs(t *testing.T) {
	body, err := json.Marshal(hotBatch(rand.New(rand.NewSource(1))))
	if err != nil {
		t.Fatal(err)
	}
	var bc batchCall
	// log2(16)+1 growths of the request slice, and nothing per field.
	const want = 5
	benchkit.AssertMaxAllocs(t, "decodeRequest(batch_hot)", want, 50, func() {
		if err := decodeRequest(body, &bc); err != nil {
			t.Fatal(err)
		}
	})
	if testing.AllocsPerRun(10, func() { _ = decodeFallback(body, &bc) }) <= want {
		t.Errorf("encoding/json decodes a batch_hot body within %d allocs; the guard above cannot tell a fall-back", want)
	}
}

// TestDecodeNearAllocs pins that a batch_near body (4 × 64 KiB of
// text) costs O(fields), not O(body bytes), to decode into engine
// requests: a few allocations, and bytes per decode far below the
// body's size.
func TestDecodeNearAllocs(t *testing.T) {
	body, err := json.Marshal(nearBatch(rand.New(rand.NewSource(1)), false))
	if err != nil {
		t.Fatal(err)
	}
	decode := func() {
		var bc batchCall
		if err := decodeRequest(body, &bc); err != nil {
			t.Fatal(err)
		}
		for _, w := range bc.reqs {
			if _, err := toEngineRequest(w, DefaultMaxPairBytes); err != nil {
				t.Fatal(err)
			}
		}
	}
	// log2(4)+1 growths of the request slice.
	benchkit.AssertMaxAllocs(t, "decodeRequest(batch_near)", 3, 20, decode)
	const maxBytes = 4 << 10
	if got := bytesPerRun(20, decode); got > maxBytes {
		t.Errorf("decoding a %d-byte batch_near body allocates %d bytes per run, want ≤ %d", len(body), got, maxBytes)
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the heap bytes f
// allocates per call, averaged over runs after one warm-up call.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}
