package server

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"semilocal/internal/chaos"
	"semilocal/internal/query"
)

// Wire format of the serving tier. Everything is HTTP/JSON: a batch
// call posts a BatchRequest to /v1/batch and gets a BatchResponse with
// one result per request in request order; a stream call posts a
// StreamRequest to /v1/stream and gets one result per op in script
// order. Inputs are JSON strings for text, or base64 (`a64`, `b64`,
// `chunk64`, `pattern64`) for arbitrary bytes — exactly one of the two
// spellings per field.
//
// Failures never break batch alignment: a request that sheds, times
// out, exceeds limits or fails validation carries its error (and a
// stable machine-readable kind) in its own result slot. Whole-call
// errors — malformed JSON, oversized bodies, invalid tenants — are
// HTTP-level 4xx responses with an errorBody.

// BatchRequest is the body of POST /v1/batch.
type BatchRequest struct {
	// Tenant scopes quota accounting; empty is the anonymous tenant.
	Tenant string `json:"tenant,omitempty"`
	// Requests are answered in order.
	Requests []WireRequest `json:"requests"`
}

// WireRequest is one query over one input pair.
type WireRequest struct {
	A   string `json:"a,omitempty"`
	B   string `json:"b,omitempty"`
	A64 string `json:"a64,omitempty"`
	B64 string `json:"b64,omitempty"`
	// Kind is the query family name: score, string-substring,
	// substring-string, suffix-prefix, prefix-suffix, windows,
	// best-window.
	Kind  string `json:"kind"`
	From  int    `json:"from,omitempty"`
	To    int    `json:"to,omitempty"`
	Width int    `json:"width,omitempty"`
	// TimeoutMS bounds this request alone, on top of the engine default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// WireResult is one answered request.
type WireResult struct {
	Score   int   `json:"score"`
	From    int   `json:"from,omitempty"`
	Windows []int `json:"windows,omitempty"`
	// Shard is the engine shard that answered (-1 when the request
	// never reached a shard), exposed for operations and the test wall.
	Shard int `json:"shard"`
	// Error and ErrorKind report per-request failures; ErrorKind is the
	// stable machine-readable classification (see errorKind).
	Error     string `json:"error,omitempty"`
	ErrorKind string `json:"error_kind,omitempty"`
}

// BatchResponse is the body of a successful /v1/batch call.
type BatchResponse struct {
	Results []WireResult `json:"results"`
}

// StreamRequest is the body of POST /v1/stream: one op script executed
// in order against a session group over the pattern set, on the shard
// owning the length-framed patterns' content hash. Every append/slide
// mutates all pattern spines in lockstep with the chunk's text-side
// work shared across patterns, and query ops address a pattern by
// index via WireOp.Pat.
//
// The set is spelled Patterns (or Patterns64), or Pattern (or
// Pattern64) for a set of one — {"pattern": p} and {"patterns": [p]}
// are the same request. Exactly one spelling may be used: Pattern,
// Pattern64, Patterns and Patterns64 are mutually exclusive.
type StreamRequest struct {
	Tenant    string   `json:"tenant,omitempty"`
	Pattern   string   `json:"pattern,omitempty"`
	Pattern64 string   `json:"pattern64,omitempty"`
	Patterns  []string `json:"patterns,omitempty"`
	// Patterns64 carries the group patterns base64-coded, element for
	// element; mutually exclusive with Patterns.
	Patterns64 []string `json:"patterns64,omitempty"`
	Ops        []WireOp `json:"ops"`
}

// WireOp is one stream operation: {"op":"append","chunk":...},
// {"op":"slide","n":...}, or {"op":"query","kind":...,...}. A query op
// answers for pattern index Pat (default 0); append and slide always
// mutate the whole group.
type WireOp struct {
	Op      string `json:"op"`
	Chunk   string `json:"chunk,omitempty"`
	Chunk64 string `json:"chunk64,omitempty"`
	N       int    `json:"n,omitempty"`
	Pat     int    `json:"pat,omitempty"`
	Kind    string `json:"kind,omitempty"`
	From    int    `json:"from,omitempty"`
	To      int    `json:"to,omitempty"`
	Width   int    `json:"width,omitempty"`
}

// StreamOpResult is one executed op: mutations report the published
// generation, queries report their answer (echoing the pattern index
// in Pat), failures carry the error in place (later ops still
// run against the last consistent generation).
type StreamOpResult struct {
	Gen       uint64 `json:"gen,omitempty"`
	Window    int    `json:"window,omitempty"`
	Leaves    int    `json:"leaves,omitempty"`
	Pat       int    `json:"pat,omitempty"`
	Score     int    `json:"score"`
	From      int    `json:"from,omitempty"`
	Windows   []int  `json:"windows,omitempty"`
	Error     string `json:"error,omitempty"`
	ErrorKind string `json:"error_kind,omitempty"`
}

// StreamResponse is the body of a successful /v1/stream call. It
// reports the pattern count and the number of distinct spines actually
// maintained (duplicate patterns collapse).
type StreamResponse struct {
	Shard    int              `json:"shard"`
	Patterns int              `json:"patterns,omitempty"`
	Distinct int              `json:"distinct,omitempty"`
	Results  []StreamOpResult `json:"results"`
}

// errorBody is the JSON shape of every HTTP-level error response.
type errorBody struct {
	Error string `json:"error"`
}

// Decode limits; see Config for the knobs.
const (
	DefaultMaxBodyBytes = 8 << 20
	DefaultMaxBatch     = 4096
	DefaultMaxPairBytes = 1 << 20
)

// decodeJSON strictly decodes one JSON document from r into v:
// unknown fields and trailing garbage are errors, so a malformed
// request can never silently half-parse (FuzzServerRequest leans on
// this).
func decodeJSON(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("server: trailing data after JSON body")
	}
	return nil
}

// pairBytes resolves one input field given its two spellings, rejecting
// ambiguous requests that set both.
func pairBytes(text, b64, name string) ([]byte, error) {
	if b64 == "" {
		return []byte(text), nil
	}
	if text != "" {
		return nil, fmt.Errorf("server: both %s and %s64 set", name, name)
	}
	raw, err := base64.StdEncoding.DecodeString(b64)
	if err != nil {
		return nil, fmt.Errorf("server: bad %s64: %w", name, err)
	}
	return raw, nil
}

// toEngineRequest validates one wire request into an engine request.
// maxPair bounds len(a)+len(b): a kernel solve is Θ(len(a)·len(b))
// work, so the wire must not let one request buy unbounded compute.
func toEngineRequest(w WireRequest, maxPair int) (query.Request, error) {
	a, err := pairBytes(w.A, w.A64, "a")
	if err != nil {
		return query.Request{}, err
	}
	b, err := pairBytes(w.B, w.B64, "b")
	if err != nil {
		return query.Request{}, err
	}
	if len(a)+len(b) > maxPair {
		return query.Request{}, fmt.Errorf("server: input pair %d bytes exceeds limit %d: %w", len(a)+len(b), maxPair, errPairTooLarge)
	}
	kind, err := query.ParseKind(w.Kind)
	if err != nil {
		return query.Request{}, err
	}
	if w.TimeoutMS < 0 {
		return query.Request{}, fmt.Errorf("server: negative timeout_ms %d", w.TimeoutMS)
	}
	return query.Request{
		A: a, B: b, Kind: kind,
		From: w.From, To: w.To, Width: w.Width,
		Timeout: time.Duration(w.TimeoutMS) * time.Millisecond,
	}, nil
}

// errPairTooLarge classifies oversized input pairs (errorKind
// "too_large"); the pair never reaches a shard.
var errPairTooLarge = errors.New("server: input pair too large")

// errNoHealthyShard is returned when every shard on the ring was
// killed or marked down — the only way the tier answers worse than
// "degraded".
var errNoHealthyShard = errors.New("server: no healthy shard")

// errorKind maps an error to its stable wire classification. The chaos
// test wall pins these: under error/cancel chaos a response is either
// bit-identical to the fault-free answer or carries one of the typed
// kinds below — never a wrong answer, never free-text-only.
func errorKind(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, query.ErrShed):
		return "shed"
	case errors.Is(err, ErrTenantQuota):
		return "quota"
	case errors.Is(err, query.ErrEngineClosed):
		return "closed"
	case errors.Is(err, errPairTooLarge):
		return "too_large"
	case errors.Is(err, errNoHealthyShard):
		return "unavailable"
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	case errors.Is(err, context.Canceled):
		return "canceled"
	case errors.Is(err, chaos.ErrInjected), query.IsTransient(err):
		return "injected"
	default:
		return "invalid"
	}
}

// toWireResult renders one engine result (answered by shard) for the
// wire.
func toWireResult(res query.Result, shard int) WireResult {
	if res.Err != nil {
		return WireResult{Shard: shard, Error: res.Err.Error(), ErrorKind: errorKind(res.Err)}
	}
	return WireResult{Score: res.Score, From: res.From, Windows: res.Windows, Shard: shard}
}
