package server

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
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
// owning the length-framed patterns' placement. Every append/slide
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

// readBody reads a whole request body, presized from its declared
// length (capped at limit, so a client cannot make the server reserve
// more than it would accept).
func readBody(r io.Reader, declared, limit int64) ([]byte, error) {
	if declared < 0 || declared > limit {
		declared = 0
	}
	buf := bytes.NewBuffer(make([]byte, 0, declared+bytes.MinRead))
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// decodeRequest strictly decodes one whole request body into v, a
// *BatchRequest or *StreamRequest: unknown fields and anything but
// JSON whitespace after the value are errors, so a malformed request
// can never silently half-parse (FuzzServerRequest leans on this).
//
// A body in the canonical subset that json.Marshal emits takes one
// pass (decodeCanonical). Every other body goes to encoding/json
// (decodeJSON), which alone handles escapes, non-ASCII text, null,
// case-folded keys and repeated keys, where its semantics are subtle
// (U+FFFD substitution, slice elements reused when a key repeats). The
// choice is made by the input alone; both paths agree on every body
// the canonical one accepts (FuzzDecodeRequest pins this).
func decodeRequest(body []byte, v any) error {
	if decodeCanonical(body, v) {
		return nil
	}
	return decodeJSON(body, v)
}

// decodeJSON decodes body into v with encoding/json, disallowing
// unknown fields and non-whitespace trailing data.
func decodeJSON(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	c := canon{buf: body, pos: int(dec.InputOffset())}
	if !c.end() {
		return errors.New("server: trailing data after JSON body")
	}
	return nil
}

// decodeCanonical decodes body into v (a *BatchRequest or
// *StreamRequest) if the body lies in the canonical subset, reporting
// whether it did; v is untouched otherwise. The subset is:
//   - exact lowercase field tags, each at most once per object;
//   - strings with no byte below 0x20, no backslash and no byte ≥ 0x80;
//   - integers matching -?(0|[1-9][0-9]*) that fit their Go field;
//   - JSON whitespace only, and nothing after the top-level object.
//
// Every body in it is valid JSON that encoding/json decodes to the same
// value, "[]" included (an empty, non-nil slice).
func decodeCanonical(body []byte, v any) bool {
	c := canon{buf: body}
	switch v := v.(type) {
	case *BatchRequest:
		var br BatchRequest
		if !c.batch(&br) || !c.end() {
			return false
		}
		*v = br
	case *StreamRequest:
		var sr StreamRequest
		if !c.stream(&sr) || !c.end() {
			return false
		}
		*v = sr
	default:
		return false
	}
	return true
}

// canon is the single-pass reader behind decodeCanonical. Each method
// reads one value at pos (after optional whitespace) and reports false
// on anything outside the canonical subset, leaving pos undefined.
type canon struct {
	buf []byte
	pos int
}

// Field tags of the wire types, in the order canon.object tracks them.
var (
	batchFields   = []string{"tenant", "requests"}
	requestFields = []string{"a", "b", "a64", "b64", "kind", "from", "to", "width", "timeout_ms"}
	streamFields  = []string{"tenant", "pattern", "pattern64", "patterns", "patterns64", "ops"}
	opFields      = []string{"op", "chunk", "chunk64", "n", "pat", "kind", "from", "to", "width"}
)

func (c *canon) batch(br *BatchRequest) bool {
	return c.object(batchFields, func(field string) bool {
		switch field {
		case "tenant":
			return c.str(&br.Tenant)
		case "requests":
			br.Requests = []WireRequest{}
			return c.array(func() bool {
				br.Requests = append(br.Requests, WireRequest{})
				return c.request(&br.Requests[len(br.Requests)-1])
			})
		}
		return false
	})
}

func (c *canon) request(w *WireRequest) bool {
	return c.object(requestFields, func(field string) bool {
		switch field {
		case "a":
			return c.str(&w.A)
		case "b":
			return c.str(&w.B)
		case "a64":
			return c.str(&w.A64)
		case "b64":
			return c.str(&w.B64)
		case "kind":
			return c.str(&w.Kind)
		case "from":
			return c.int(&w.From)
		case "to":
			return c.int(&w.To)
		case "width":
			return c.int(&w.Width)
		case "timeout_ms":
			n, ok := c.integer(64)
			w.TimeoutMS = n
			return ok
		}
		return false
	})
}

func (c *canon) stream(sr *StreamRequest) bool {
	return c.object(streamFields, func(field string) bool {
		switch field {
		case "tenant":
			return c.str(&sr.Tenant)
		case "pattern":
			return c.str(&sr.Pattern)
		case "pattern64":
			return c.str(&sr.Pattern64)
		case "patterns":
			return c.strs(&sr.Patterns)
		case "patterns64":
			return c.strs(&sr.Patterns64)
		case "ops":
			sr.Ops = []WireOp{}
			return c.array(func() bool {
				sr.Ops = append(sr.Ops, WireOp{})
				return c.op(&sr.Ops[len(sr.Ops)-1])
			})
		}
		return false
	})
}

func (c *canon) op(op *WireOp) bool {
	return c.object(opFields, func(field string) bool {
		switch field {
		case "op":
			return c.str(&op.Op)
		case "chunk":
			return c.str(&op.Chunk)
		case "chunk64":
			return c.str(&op.Chunk64)
		case "n":
			return c.int(&op.N)
		case "pat":
			return c.int(&op.Pat)
		case "kind":
			return c.str(&op.Kind)
		case "from":
			return c.int(&op.From)
		case "to":
			return c.int(&op.To)
		case "width":
			return c.int(&op.Width)
		}
		return false
	})
}

// object reads one object whose keys are among fields, each at most
// once, calling member with the key to read its value.
func (c *canon) object(fields []string, member func(field string) bool) bool {
	if !c.punct('{') {
		return false
	}
	if c.punct('}') {
		return true
	}
	var seen uint32
	for {
		key, ok := c.raw()
		if !ok || !c.punct(':') {
			return false
		}
		i := 0
		for i < len(fields) && fields[i] != string(key) {
			i++
		}
		if i == len(fields) || seen&(1<<i) != 0 || !member(fields[i]) {
			return false
		}
		seen |= 1 << i
		if !c.punct(',') {
			return c.punct('}')
		}
	}
}

// array reads one array, calling elem to read each element.
func (c *canon) array(elem func() bool) bool {
	if !c.punct('[') {
		return false
	}
	if c.punct(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if !c.punct(',') {
			return c.punct(']')
		}
	}
}

// strs reads an array of strings.
func (c *canon) strs(p *[]string) bool {
	*p = []string{}
	return c.array(func() bool {
		var s string
		ok := c.str(&s)
		*p = append(*p, s)
		return ok
	})
}

func (c *canon) str(p *string) bool {
	raw, ok := c.raw()
	*p = string(raw)
	return ok
}

// plain marks the bytes a canonical string holds verbatim: printable
// ASCII other than the quote and the backslash.
var plain = func() (t [256]bool) {
	for b := 0x20; b < 0x80; b++ {
		t[b] = b != '"' && b != '\\'
	}
	return t
}()

// raw reads a string's bytes, which alias buf. Request bodies are
// almost all string bytes, so it skips eight plain bytes at a time.
func (c *canon) raw() ([]byte, bool) {
	if !c.punct('"') {
		return nil, false
	}
	buf, start := c.buf, c.pos
	i := start
	for i+8 <= len(buf) && !special(binary.LittleEndian.Uint64(buf[i:])) {
		i += 8
	}
	for i < len(buf) && plain[buf[i]] {
		i++
	}
	if i == len(buf) || buf[i] != '"' {
		return nil, false
	}
	c.pos = i + 1
	return buf[start:i], true
}

// special reports whether any of the eight bytes in x is not plain: a
// control byte, a quote, a backslash or a byte ≥ 0x80. (v-ones)&^v has
// a byte's high bit set where that byte of v is zero, and only above
// the first such byte otherwise.
func special(x uint64) bool {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	quote, slash := x^(ones*'"'), x^(ones*'\\')
	ctl := (x - ones*0x20) & ^x
	return (ctl|(quote-ones)&^quote|(slash-ones)&^slash|x)&highs != 0
}

func (c *canon) int(p *int) bool {
	n, ok := c.integer(strconv.IntSize)
	*p = int(n)
	return ok
}

// integer reads -?(0|[1-9][0-9]*) that fits a signed integer of the
// given bit size.
func (c *canon) integer(bits int) (int64, bool) {
	c.space()
	neg := c.pos < len(c.buf) && c.buf[c.pos] == '-'
	if neg {
		c.pos++
	}
	start := c.pos
	var u uint64
	for c.pos < len(c.buf) && '0' <= c.buf[c.pos] && c.buf[c.pos] <= '9' {
		u = u*10 + uint64(c.buf[c.pos]-'0')
		c.pos++
	}
	// 19 digits cannot wrap a uint64; the bound below rejects the rest.
	digits := c.pos - start
	if digits == 0 || digits > 19 || (digits > 1 && c.buf[start] == '0') {
		return 0, false
	}
	limit := uint64(1) << (bits - 1) // -limit is the least value
	if neg {
		return -int64(u), u <= limit
	}
	return int64(u), u < limit
}

// punct reads the byte b.
func (c *canon) punct(b byte) bool {
	c.space()
	if c.pos < len(c.buf) && c.buf[c.pos] == b {
		c.pos++
		return true
	}
	return false
}

// end reports whether only JSON whitespace is left.
func (c *canon) end() bool {
	c.space()
	return c.pos == len(c.buf)
}

func (c *canon) space() {
	for c.pos < len(c.buf) {
		switch c.buf[c.pos] {
		case ' ', '\t', '\n', '\r':
			c.pos++
		default:
			return
		}
	}
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
