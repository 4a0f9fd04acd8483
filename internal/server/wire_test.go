package server

import (
	"encoding/base64"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"
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

// TestCanonicalBodiesTakeFastPath pins the single-pass decoder to real
// traffic: every marshalled request body must decode without falling
// back to encoding/json, to the value that was marshalled, and to the
// value encoding/json decodes.
func TestCanonicalBodiesTakeFastPath(t *testing.T) {
	for name, v := range canonicalBodies() {
		body, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		got := reflect.New(reflect.TypeOf(v))
		if !decodeCanonical(body, got.Interface()) {
			t.Errorf("%s: canonical decoder rejected a marshalled body", name)
			continue
		}
		if !reflect.DeepEqual(got.Elem().Interface(), v) {
			t.Errorf("%s: canonical decode differs from the marshalled value", name)
		}
		ref := reflect.New(reflect.TypeOf(v))
		if err := decodeJSON(body, ref.Interface()); err != nil {
			t.Fatalf("%s: reference decode: %v", name, err)
		}
		if !reflect.DeepEqual(got.Interface(), ref.Interface()) {
			t.Errorf("%s: canonical and reference decodes differ", name)
		}
	}
}

// TestCanonicalRejects pins bodies outside the canonical subset: the
// single-pass decoder declines them, and decodeRequest still answers
// as encoding/json does.
func TestCanonicalRejects(t *testing.T) {
	for _, body := range []string{
		`{"requests":[{"a":"\"","kind":"score"}]}`,
		`{"requests":[{"a":"é","kind":"score"}]}`,
		`{"requests":[{"a":"0123456789abcdef\"x","kind":"score"}]}`,
		`{"requests":[{"a":"x\\y\nz","kind":"score"}]}`,
		"{\"requests\":[{\"a\":\"\xff\xfe\xfd\xfc\xfb\xfa\xf9\xf8\",\"kind\":\"score\"}]}",
		`{"requests":[{"KIND":"score"}]}`,
		`{"requests":[{"kind":"score"}],"requests":[{"a":"x"}]}`,
		`{"requests":null}`,
		`{"requests":[{"from":01}]}`,
		`{"requests":[{"from":1.0}]}`,
		`{"requests":[{"from":9223372036854775808}]}`,
		`{"requests":[]}]`,
		`{"requestz":[]}`,
		`null`,
	} {
		var fast BatchRequest
		if decodeCanonical([]byte(body), &fast) {
			t.Errorf("canonical decoder accepted %s", body)
		}
		var got, want BatchRequest
		gotErr := decodeRequest([]byte(body), &got)
		wantErr := decodeJSON([]byte(body), &want)
		if (gotErr == nil) != (wantErr == nil) || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: decodeRequest = %+v, %v; encoding/json = %+v, %v", body, got, gotErr, want, wantErr)
		}
	}
}

// BenchmarkDecodeBatchHot decodes one batch_hot-shaped body (16 ×
// 1 KiB + 1 KiB pairs) per iteration: the single-pass decoder against
// the encoding/json one it shortcuts. Run with -benchmem.
func BenchmarkDecodeBatchHot(b *testing.B) {
	body, err := json.Marshal(hotBatch(rand.New(rand.NewSource(1))))
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name   string
		decode func([]byte, any) error
	}{{"request", decodeRequest}, {"encoding_json", decodeJSON}} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for b.Loop() {
				var br BatchRequest
				if err := bc.decode(body, &br); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
