//go:build !race

package server

// Allocation guard for the single-pass request decoder. A batch_hot
// body that silently fell back to encoding/json would still decode, so
// only its cost shows the fall-back: the canonical decoder allocates one
// string per string field plus the growth of the request slice, and
// encoding/json allocates more than that on top of its scan.

import (
	"encoding/json"
	"math/rand"
	"testing"

	"semilocal/internal/benchkit"
)

func TestDecodeBatchHotAllocs(t *testing.T) {
	body, err := json.Marshal(hotBatch(rand.New(rand.NewSource(1))))
	if err != nil {
		t.Fatal(err)
	}
	var br BatchRequest
	// a, b and kind per request, and log2(16)+1 slice growths.
	const want = 16*3 + 5
	benchkit.AssertMaxAllocs(t, "decodeRequest(batch_hot)", want, 50, func() {
		if err := decodeRequest(body, &br); err != nil {
			t.Fatal(err)
		}
	})
	if testing.AllocsPerRun(10, func() { _ = decodeJSON(body, &br) }) <= want {
		t.Errorf("encoding/json decodes a batch_hot body within %d allocs; the guard above cannot tell a fall-back", want)
	}
}
