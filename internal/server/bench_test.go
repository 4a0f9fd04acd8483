package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"semilocal/internal/query"
)

// nearPair returns a random n-base string and a copy with edits planted
// substitutions, insertions and deletions spread along it.
func nearPair(r *rand.Rand, n, edits int) (string, string) {
	a := dna(r, n)
	b := []byte(a)
	for e := 0; e < edits; e++ {
		at := (2*e + 1) * len(b) / (2 * edits)
		switch e % 3 {
		case 0:
			b[at] = "CGTA"[r.Intn(4)]
		case 1:
			b = append(b[:at], append([]byte{"ACGT"[r.Intn(4)]}, b[at:]...)...)
		default:
			b = append(b[:at], b[at+1:]...)
		}
	}
	return a, string(b)
}

// BenchmarkHandleBatchNear times one batch_near-shaped /v1/batch call
// end to end through the tier's handler: 4 score requests on distinct
// near-duplicate 32 KiB pairs, 2 shards, the banded fast path on. Every
// request is answered by the banded BFS, so the call is decode, route,
// probe, BFS and encode — no kernel, and so no content key.
func BenchmarkHandleBatchNear(b *testing.B) {
	body, err := json.Marshal(nearBatch(rand.New(rand.NewSource(1)), false))
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(Config{Shards: 2, Engine: query.Options{Workers: 2, Banded: query.BandedConfig{Enabled: true}}})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	var w *httptest.ResponseRecorder
	for b.Loop() {
		w = httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body)
		}
	}
	var resp BatchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		b.Fatal(err)
	}
	for i, res := range resp.Results {
		if res.Error != "" {
			b.Fatalf("request %d failed: %s (%s)", i, res.Error, res.ErrorKind)
		}
	}
	if st := s.Stats(); st["requests_banded"] == 0 || st["requests_banded"] != st["requests"] {
		b.Fatalf("%d of %d requests answered on the banded path, want all", st["requests_banded"], st["requests"])
	}
}
