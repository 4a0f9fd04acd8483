package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"semilocal/internal/query"
)

// fuzzServer is the one hardened tier instance the fuzz target hammers:
// tight limits so fuzzer-crafted inputs can never buy unbounded
// Θ(m·n) solves, and a quota so the admission path is exercised too.
// Go fuzz workers are separate processes, each driving the target
// sequentially, so sharing one server per process is safe.
func fuzzServer(f *testing.F) *Server {
	f.Helper()
	s, err := New(Config{
		Shards:       3,
		TenantQuota:  4,
		MaxBodyBytes: 64 << 10,
		MaxBatch:     16,
		MaxPairBytes: 256,
		Engine:       query.Options{MaxKernels: 4},
	})
	if err != nil {
		f.Fatalf("New: %v", err)
	}
	f.Cleanup(s.Close)
	return s
}

// FuzzServerRequest throws arbitrary bodies at both POST endpoints and
// pins the tier's crash-safety contract: the handler never panics,
// never answers 5xx, always answers JSON, and a 200 batch response
// keeps request/result alignment with a known error-kind taxonomy.
// The seed corpus under testdata/fuzz covers the adversarial request
// shapes (malformed JSON, unknown fields, trailing garbage, oversized
// fields, bad tenants, ambiguous encodings) and is replayed by every
// plain `go test` run.
func FuzzServerRequest(f *testing.F) {
	seeds := []struct {
		body   string
		stream bool
	}{
		{`{"requests":[{"a":"abc","b":"abd","kind":"score"}]}`, false},
		{`{"tenant":"alice","requests":[{"a":"x","b":"y","kind":"best-window","width":2}]}`, false},
		{`{"requests":[{"a64":"AAECwP8=","b64":"/8AAAQ==","kind":"windows","width":1}]}`, false},
		{`{"requests":[{"a":"x","a64":"eA==","b":"y","kind":"score"}]}`, false},
		{`{"requests":[{"kind":"no-such-kind"}]}`, false},
		{`{"requests":[{"kind":"score","timeout_ms":-5}]}`, false},
		{`{"requests": [`, false},
		{`{"requestz": []}`, false},
		{`{"requests": []} trailing`, false},
		{`{"requests": []}]]]garbage`, false},
		{`{"tenant":"bad tenant!","requests":[]}`, false},
		{`null`, false},
		{`[]`, false},
		{`{"pattern":"abc","ops":[{"op":"append","chunk":"defg"},{"op":"query","kind":"score"}]}`, true},
		{`{"pattern":"abc","ops":[{"op":"slide","n":-3}]}`, true},
		{`{"pattern":"abc","ops":[{"op":"rewind"}]}`, true},
		{`{"pattern64":"not base64!!","ops":[]}`, true},
	}
	for _, s := range seeds {
		f.Add([]byte(s.body), s.stream)
	}
	srv := fuzzServer(f)
	knownKinds := map[string]bool{
		"": true, "shed": true, "quota": true, "closed": true, "too_large": true,
		"unavailable": true, "deadline": true, "canceled": true, "injected": true, "invalid": true,
	}
	f.Fuzz(func(t *testing.T, body []byte, stream bool) {
		path := "/v1/batch"
		if stream {
			path = "/v1/stream"
		}
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)

		if rec.Code >= 500 {
			t.Fatalf("5xx (%d) for body %q", rec.Code, body)
		}
		raw := rec.Body.Bytes()
		if !json.Valid(raw) {
			t.Fatalf("non-JSON response %q for body %q", raw, body)
		}
		if rec.Code != http.StatusOK {
			var eb errorBody
			if err := json.Unmarshal(raw, &eb); err != nil || eb.Error == "" {
				t.Fatalf("%d response without error body: %q", rec.Code, raw)
			}
			return
		}
		if stream {
			var resp StreamResponse
			if err := json.Unmarshal(raw, &resp); err != nil {
				t.Fatalf("200 stream response undecodable: %v", err)
			}
			for _, r := range resp.Results {
				if !knownKinds[r.ErrorKind] {
					t.Fatalf("unknown stream error kind %q", r.ErrorKind)
				}
			}
			return
		}
		var bc batchCall
		var resp BatchResponse
		if err := json.Unmarshal(raw, &resp); err != nil {
			t.Fatalf("200 batch response undecodable: %v", err)
		}
		// The request decoded (we got a 200), so alignment must hold.
		if err := decodeRequest(body, &bc); err == nil {
			if len(resp.Results) != len(bc.reqs) {
				t.Fatalf("alignment broken: %d requests, %d results", len(bc.reqs), len(resp.Results))
			}
		}
		for _, r := range resp.Results {
			if !knownKinds[r.ErrorKind] {
				t.Fatalf("unknown batch error kind %q", r.ErrorKind)
			}
			if r.Error == "" && r.ErrorKind != "" {
				t.Fatalf("error kind %q without error text", r.ErrorKind)
			}
		}
	})
}

// FuzzDecodeRequest is the differential wall behind the single-pass
// decoder: whenever it accepts a body, encoding/json (with unknown
// fields disallowed and no trailing data) must accept the same bytes,
// and the fallback's copy of its value into the handler's decoded form
// must equal the canonical decode, down to "[]" being an empty non-nil
// slice.
// The seeds sit on the subset's borders: escapes, non-ASCII and invalid
// UTF-8 text, case-folded and repeated keys, null, non-canonical
// numbers, trailing brackets and every kind of JSON whitespace.
func FuzzDecodeRequest(f *testing.F) {
	seeds := []struct {
		body   string
		stream bool
	}{
		{`{"requests":[{"a":"ab\"c","b":"x","kind":"score"}]}`, false},
		{`{"requests":[{"a":"x\\y\nz","b":"x","kind":"score"}]}`, false},
		{`{"requests":[{"a":"é","b":"x","kind":"score"}]}`, false},
		{"{\"requests\":[{\"a\":\"\xe2\x82\xac\",\"kind\":\"score\"}]}", false},
		{"{\"requests\":[{\"a\":\"\xff\xfe\xfd\xfc\xfb\xfa\xf9\xf8\",\"kind\":\"score\"}]}", false},
		{"{\"requests\":[{\"a\":\"abcdefg\thijklmnop\",\"kind\":\"score\"}]}", false},
		{`{"requests":[{"KIND":"score"}]}`, false},
		{`{"requests":[{"a":"x","kind":"score"}],"requests":[{"kind":"windows"}]}`, false},
		{`{"requests":null}`, false},
		{`null`, false},
		{`{"requests":[{"kind":"score","from":-0,"to":0}]}`, false},
		{`{"requests":[{"kind":"score","from":01}]}`, false},
		{`{"requests":[{"kind":"score","from":1.0}]}`, false},
		{`{"requests":[{"kind":"score","from":1e2}]}`, false},
		{`{"requests":[{"kind":"score","timeout_ms":9223372036854775808}]}`, false},
		{`{"requests":[{"kind":"score","timeout_ms":-9223372036854775808}]}`, false},
		{`{"requests":[]}]`, false},
		{`{"requests":[]}`, false},
		{"{\t\"tenant\" :\r\n\"t\",\"requests\":[ {\"a\":\"x\" , \"b\":\"y\",\"kind\":\"score\"}\t]}\r\n", false},
		{`{"pattern":"abc","ops":[{"op":"append","chunk":"defg"},{"op":"slide","n":1},{"op":"query","kind":"score","pat":0}]}`, true},
		{`{"patterns64":["YWJj","ZGVm"],"ops":[{"op":"append","chunk64":"eHl6"}]}`, true},
		{`{"patterns":[],"ops":[]}`, true},
		{`{"patterns":["a",null],"ops":[]}`, true},
	}
	for _, s := range seeds {
		f.Add([]byte(s.body), s.stream)
	}
	f.Fuzz(func(t *testing.T, body []byte, stream bool) {
		fast, ref := any(new(batchCall)), any(new(batchCall))
		if stream {
			fast, ref = new(streamCall), new(streamCall)
		}
		if !decodeCanonical(body, fast) {
			return
		}
		if err := decodeFallback(body, ref); err != nil {
			t.Fatalf("canonical decoder accepted %q, encoding/json rejects it: %v", body, err)
		}
		if !reflect.DeepEqual(fast, ref) {
			t.Fatalf("decodes of %q differ:\ncanonical %+v\nreference %+v", body, fast, ref)
		}
	})
}
