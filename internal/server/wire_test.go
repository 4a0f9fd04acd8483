package server

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"semilocal/internal/chaos"
	"semilocal/internal/oracle"
	"semilocal/internal/query"
)

// dna returns n random bases, the alphabet of the benchmark's inputs.
func dna(r *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = "ACGT"[r.Intn(4)]
	}
	return string(b)
}

// hotBatch is a batch_hot-shaped request: 16 mixed queries, each over a
// 1 KiB + 1 KiB pair spelled as text.
func hotBatch(r *rand.Rand) BatchRequest {
	kinds := []string{"score", "string-substring", "substring-string", "suffix-prefix", "prefix-suffix", "best-window"}
	var br BatchRequest
	for i := 0; i < 16; i++ {
		w := WireRequest{A: dna(r, 1024), B: dna(r, 1024), Kind: kinds[i%len(kinds)]}
		switch w.Kind {
		case "best-window":
			w.Width = 64
		case "score":
		default:
			w.From, w.To = r.Intn(512), 512+r.Intn(512)
		}
		br.Requests = append(br.Requests, w)
	}
	return br
}

// nearBatch is a batch_near-shaped request: 4 score queries, each over
// a distinct near-duplicate 32 KiB pair, spelled as text or as base64.
func nearBatch(r *rand.Rand, b64 bool) BatchRequest {
	var br BatchRequest
	for i := 0; i < 4; i++ {
		a, b := nearPair(r, 32768, 16)
		w := WireRequest{A: a, B: b, Kind: "score"}
		if b64 {
			w = WireRequest{
				A64:  base64.StdEncoding.EncodeToString([]byte(a)),
				B64:  base64.StdEncoding.EncodeToString([]byte(b)),
				Kind: "score",
			}
		}
		br.Requests = append(br.Requests, w)
	}
	return br
}

// canonicalBodies are request bodies built the way clients and the
// benchmark build them, json.Marshal of the wire types: batch_hot-,
// batch_near- and stream-shaped, with text and base64 inputs.
func canonicalBodies() map[string]any {
	r := rand.New(rand.NewSource(1))
	b64 := func(n int) string { return base64.StdEncoding.EncodeToString([]byte(dna(r, n))) }
	near := dna(r, 32768)
	script := []WireOp{
		{Op: "append", Chunk: dna(r, 256)},
		{Op: "append", Chunk64: b64(256)},
		{Op: "slide", N: 1},
		{Op: "query", Kind: "string-substring", From: 3, To: 200},
		{Op: "query", Kind: "best-window", Width: 32, Pat: 1},
		{Op: "query", Kind: "score"},
	}
	return map[string]any{
		"batch_hot": hotBatch(r),
		"batch_hot_b64": BatchRequest{Tenant: "alice", Requests: []WireRequest{
			{A64: b64(1024), B64: b64(1024), Kind: "score", TimeoutMS: 250},
			{A64: b64(1024), B: dna(r, 1024), Kind: "prefix-suffix", From: 7, To: 1000},
		}},
		"batch_near": BatchRequest{Requests: []WireRequest{
			{A: near, B: near[:16000] + "ACGT" + near[16000:], Kind: "score"},
			{A: near, B: near[1:], Kind: "score"},
		}},
		"batch_empty":    BatchRequest{Requests: []WireRequest{}},
		"stream_single":  StreamRequest{Pattern: dna(r, 64), Ops: script},
		"stream_b64":     StreamRequest{Tenant: "bob", Pattern64: b64(64), Ops: script},
		"stream_group":   StreamRequest{Patterns: []string{dna(r, 32), dna(r, 32), dna(r, 32)}, Ops: script},
		"stream_group64": StreamRequest{Patterns64: []string{b64(32), b64(32)}, Ops: script},
	}
}

// callOf returns the decoded form of a wire value (a BatchRequest or
// StreamRequest) as the encoding/json fallback builds it, and a fresh
// destination of the same type for a decoder.
func callOf(v any) (want, dst any) {
	switch v := v.(type) {
	case BatchRequest:
		bc := batchCallOf(v)
		return &bc, new(batchCall)
	case StreamRequest:
		sc := streamCallOf(v)
		return &sc, new(streamCall)
	}
	panic("callOf: not a wire request")
}

// TestCanonicalBodiesTakeFastPath pins the single-pass decoder to real
// traffic: every marshalled request body must decode without falling
// back to encoding/json, to the value that was marshalled, and to the
// value the encoding/json fallback decodes.
func TestCanonicalBodiesTakeFastPath(t *testing.T) {
	for name, v := range canonicalBodies() {
		body, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		want, got := callOf(v)
		if !decodeCanonical(body, got) {
			t.Errorf("%s: canonical decoder rejected a marshalled body", name)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: canonical decode differs from the marshalled value", name)
		}
		_, ref := callOf(v)
		if err := decodeFallback(body, ref); err != nil {
			t.Fatalf("%s: reference decode: %v", name, err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("%s: canonical and reference decodes differ", name)
		}
	}
}

// TestCanonicalRejects pins bodies outside the canonical subset: the
// single-pass decoder declines them, and decodeRequest still answers
// as encoding/json does. The strings that break the subset put the
// offending byte in each stage of plainRun's scan: a 32-byte step, an
// 8-byte step and the byte tail.
func TestCanonicalRejects(t *testing.T) {
	long := strings.Repeat("ACGT", 20) // two 32-byte and two 8-byte steps
	var bodies []string
	for _, bad := range []string{`\"`, `\\`, `\n`, `\/`, "\t", "\x00", "\x1f", "\x7f\x80", "é", "\xff"} {
		for _, at := range []int{0, 5, 31, 32, 40, 63, 64, 70, 75} {
			for _, a := range []string{long[:at] + bad + long[at:], long[:at] + bad} {
				bodies = append(bodies, `{"requests":[{"a":"`+a+`","kind":"score"}]}`)
			}
		}
	}
	bodies = append(bodies,
		`{"requests":[{"a":"\"","kind":"score"}]}`,
		`{"requests":[{"a":"é","kind":"score"}]}`,
		`{"requests":[{"a":"0123456789abcdef\"x","kind":"score"}]}`,
		`{"requests":[{"a":"x\\y\nz","kind":"score"}]}`,
		"{\"requests\":[{\"a\":\"\xff\xfe\xfd\xfc\xfb\xfa\xf9\xf8\",\"kind\":\"score\"}]}",
		`{"requests":[{"a":"`+long,
		`{"requests":[{"a":"`+long[:40],
		`{"requests":[{"a":"x`,
		`{"requests":[{"a":"`,
		`{"requests":[{"KIND":"score"}]}`,
		`{"requests":[{"kind":"score"}],"requests":[{"a":"x"}]}`,
		`{"requests":null}`,
		`{"requests":[{"from":01}]}`,
		`{"requests":[{"from":1.0}]}`,
		`{"requests":[{"from":9223372036854775808}]}`,
		`{"requests":[]}]`,
		`{"requestz":[]}`,
		`null`,
	)
	for _, body := range bodies {
		var fast batchCall
		if decodeCanonical([]byte(body), &fast) {
			t.Errorf("canonical decoder accepted %q", body)
		}
		var got, want batchCall
		gotErr := decodeRequest([]byte(body), &got)
		wantErr := decodeFallback([]byte(body), &want)
		if (gotErr == nil) != (wantErr == nil) || !reflect.DeepEqual(got, want) {
			t.Errorf("%q: decodeRequest = %+v, %v; encoding/json = %+v, %v", body, got, gotErr, want, wantErr)
		}
	}
}

// TestPlainRun pins the string scan against the byte table it
// shortcuts: every length up to three 32-byte steps and a tail, with
// each byte value planted at every position, against plain.
func TestPlainRun(t *testing.T) {
	base := []byte(strings.Repeat("GATTACA ~!#", 10)[:100])
	for n := 0; n <= len(base); n++ {
		s := append([]byte(nil), base[:n]...)
		if !plainRun(s) {
			t.Fatalf("plainRun rejects the plain %q", s)
		}
		for at := 0; at < n; at++ {
			for v := 0; v < 256; v++ {
				if v == '"' {
					continue // raw cuts the run at the first quote
				}
				s[at] = byte(v)
				if got := plainRun(s); got != plain[v] {
					t.Fatalf("plainRun with byte %#x at %d of %d = %v, want %v", v, at, n, got, plain[v])
				}
			}
			s[at] = base[at]
		}
	}
}

// TestCanonicalInputsAliasBody pins body ownership: canonical text
// inputs are sub-slices of the body whose capacity ends at their
// length, so an append downstream copies instead of writing into the
// body; base64 inputs and every input of the encoding/json fallback
// come back in fresh buffers.
func TestCanonicalInputsAliasBody(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	a, b, p := dna(r, 100), dna(r, 40), dna(r, 16)
	// s (non-empty, no zero byte) shares memory with body exactly when
	// clearing body clears s too.
	inBody := func(body, s []byte) bool {
		saved := bytes.Clone(body)
		defer copy(body, saved)
		clear(body)
		return len(s) > 0 && s[0] == 0
	}
	checkAlias := func(name string, body, s []byte) {
		t.Helper()
		if !inBody(body, s) || cap(s) != len(s) {
			t.Errorf("%s: len %d cap %d, aliased %v; want a sub-slice of the body with cap == len", name, len(s), cap(s), inBody(body, s))
			return
		}
		before := string(body)
		_ = append(s, "XXXX"...)
		if string(body) != before {
			t.Errorf("%s: append wrote into the body", name)
		}
	}
	checkFresh := func(name string, body, s []byte) {
		t.Helper()
		if inBody(body, s) {
			t.Errorf("%s: aliases the body, want a fresh buffer", name)
		}
	}

	body, _ := json.Marshal(BatchRequest{Requests: []WireRequest{
		{A: a, B: b, Kind: "score"},
		{A64: base64.StdEncoding.EncodeToString([]byte(a)), B: b, Kind: "score"},
	}})
	var bc batchCall
	if err := decodeRequest(body, &bc); err != nil {
		t.Fatal(err)
	}
	checkAlias("a", body, bc.reqs[0].a)
	checkAlias("b", body, bc.reqs[0].b)
	req, err := toEngineRequest(bc.reqs[0], 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	checkAlias("engine a", body, req.A)
	if req, err = toEngineRequest(bc.reqs[1], 1<<20); err != nil {
		t.Fatal(err)
	}
	checkFresh("engine a64", body, req.A)
	if string(req.A) != a {
		t.Errorf("a64 decoded to %q, want %q", req.A, a)
	}
	checkAlias("engine b beside a64", body, req.B)

	body, _ = json.Marshal(StreamRequest{Patterns: []string{p, b}, Ops: []WireOp{{Op: "append", Chunk: a}}})
	var sc streamCall
	if err := decodeRequest(body, &sc); err != nil {
		t.Fatal(err)
	}
	s := &Server{maxBatch: 16, maxPair: 1 << 20}
	pats, err := s.streamPatterns(sc)
	if err != nil {
		t.Fatal(err)
	}
	checkAlias("patterns[0]", body, pats[0])
	checkAlias("patterns[1]", body, pats[1])
	checkAlias("chunk", body, sc.ops[0].chunk)

	body, _ = json.Marshal(StreamRequest{Patterns64: []string{base64.StdEncoding.EncodeToString([]byte(p))}, Ops: []WireOp{}})
	if err := decodeRequest(body, &sc); err != nil {
		t.Fatal(err)
	}
	if pats, err = s.streamPatterns(sc); err != nil {
		t.Fatal(err)
	}
	checkFresh("patterns64[0]", body, pats[0])

	// A body outside the canonical subset (an escaped quote in b) takes
	// the encoding/json fallback, whose inputs are copies.
	body = []byte(`{"requests":[{"a":"` + a + `","b":"x\"y","kind":"score"}]}`)
	if decodeCanonical(body, new(batchCall)) {
		t.Fatal("canonical decoder accepted an escaped quote")
	}
	if err := decodeRequest(body, &bc); err != nil {
		t.Fatal(err)
	}
	checkFresh("fallback a", body, bc.reqs[0].a)
	if string(bc.reqs[0].a) != a || string(bc.reqs[0].b) != `x"y` {
		t.Errorf("fallback decoded a=%q b=%q", bc.reqs[0].a, bc.reqs[0].b)
	}
}

// TestDetachedSolveOwnsItsInputs drives a kernel request whose solve
// outlives it: an injected 400 ms solve start against a 50 ms timeout.
// The request answers "deadline" while the solve still runs, and the
// test then overwrites the body its inputs alias. The solve works on
// its own copy, so the kernel it caches, and a later hit on it, must
// match the oracle on the original pair.
func TestDetachedSolveOwnsItsInputs(t *testing.T) {
	inj, err := chaos.New(chaos.Config{Rules: []chaos.Rule{
		{Point: chaos.PointSolveStart, Fault: chaos.FaultLatency, PerMille: 1000, Latency: 400 * time.Millisecond},
	}})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Engine: query.Options{Chaos: inj}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	r := rand.New(rand.NewSource(3))
	a, b := dna(r, 48), dna(r, 40)
	body, _ := json.Marshal(BatchRequest{Requests: []WireRequest{{A: a, B: b, Kind: "score", TimeoutMS: 50}}})
	var bc batchCall
	if err := decodeRequest(body, &bc); err != nil {
		t.Fatal(err)
	}
	req, err := toEngineRequest(bc.reqs[0], DefaultMaxPairBytes)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]WireResult, 1)
	s.solveRouted(context.Background(), []routedReq{{idx: 0, req: req}}, results)
	eng := s.shards[0]
	if results[0].ErrorKind != "deadline" || eng.Stats()["cache_misses"] != 1 {
		t.Fatalf("request answered %+v after %d solves started, want a deadline error while its solve runs", results[0], eng.Stats()["cache_misses"])
	}
	copy(body, bytes.Repeat([]byte("T"), len(body)))
	if string(req.A) == a {
		t.Fatal("the request's input does not alias the body; the overwrite tests nothing")
	}

	k, err := eng.Acquire(context.Background(), []byte(a), []byte(b))
	if err != nil {
		t.Fatal(err)
	}
	if err := oracle.CheckKernel(k, []byte(a), []byte(b)); err != nil {
		t.Errorf("kernel solved from an overwritten body: %v", err)
	}
	res := eng.BatchSolve(context.Background(), []query.Request{{A: []byte(a), B: []byte(b), Kind: query.Score}})
	if want := oracle.Score([]byte(a), []byte(b)); res[0].Err != nil || res[0].Score != want {
		t.Errorf("later hit = %d, %v; want %d", res[0].Score, res[0].Err, want)
	}
	if st := eng.Stats(); st["cache_misses"] != 1 || st["cache_hits"] < 1 {
		t.Errorf("cache_misses %d, cache_hits %d; want one solve and a hit on it", st["cache_misses"], st["cache_hits"])
	}
}

// BenchmarkDecodeBatchHot decodes one batch_hot-shaped body (16 ×
// 1 KiB + 1 KiB pairs) per iteration: the single-pass decoder against
// the encoding/json one it shortcuts. Run with -benchmem.
func BenchmarkDecodeBatchHot(b *testing.B) {
	benchmarkDecode(b, hotBatch(rand.New(rand.NewSource(1))))
}

// BenchmarkDecodeNear decodes one batch_near-shaped body (4 near-
// duplicate 32 KiB + 32 KiB pairs) per iteration, spelled as text and
// as base64. Text inputs alias the body, so their decode is the scan
// alone; base64 inputs are decoded into fresh buffers.
func BenchmarkDecodeNear(b *testing.B) {
	for _, spell := range []string{"text", "b64"} {
		b.Run(spell, func(b *testing.B) {
			benchmarkDecode(b, nearBatch(rand.New(rand.NewSource(1)), spell == "b64"))
		})
	}
}

// benchmarkDecode times the handler's decode of br's marshalled body,
// through toEngineRequest (which decodes base64) on every request:
// decodeRequest as the handler runs it, and the encoding/json fallback
// that the canonical path shortcuts.
func benchmarkDecode(b *testing.B, br BatchRequest) {
	body, err := json.Marshal(br)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name   string
		decode func([]byte, any) error
	}{{"request", decodeRequest}, {"encoding_json", decodeFallback}} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for b.Loop() {
				var call batchCall
				if err := bc.decode(body, &call); err != nil {
					b.Fatal(err)
				}
				for _, w := range call.reqs {
					if _, err := toEngineRequest(w, DefaultMaxPairBytes); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
