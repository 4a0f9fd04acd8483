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
// more than it would accept). The buffer it returns belongs to the
// handler for the whole call, and nothing writes to it after the read:
// the decoded call's text inputs are sub-slices of it (see batchCall).
func readBody(r io.Reader, declared, limit int64) ([]byte, error) {
	if declared < 0 || declared > limit {
		declared = 0
	}
	buf := bytes.NewBuffer(make([]byte, 0, declared+bytes.MinRead))
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// batchCall is a decoded /v1/batch body: the one form the handler
// validates (toEngineRequest), whichever decoder produced it.
//
// Body ownership. On the canonical path every text input (a, b,
// pattern, patterns, chunk) is a sub-slice of the request body, cut
// with a full slice expression so that its capacity ends at its length
// and no append downstream can write into the body. A base64 spelling
// holds the body's base64 text until toEngineRequest or streamPatterns
// decodes it into one fresh buffer. The body is never written after
// readBody, and whatever outlives the call copies its inputs (a kernel
// solve that outlives its request clones the pair; a stream group
// copies its patterns and keeps no chunk), so the aliases are valid for
// the whole call. The encoding/json fallback copies each string once
// into the same form (batchCallOf, streamCallOf).
type batchCall struct {
	tenant string
	reqs   []callRequest
}

// callRequest is one WireRequest with its inputs as bytes; an absent
// or empty input is nil.
type callRequest struct {
	a, b, a64, b64  []byte
	kind            string
	from, to, width int
	timeoutMS       int64
}

// streamCall is a decoded /v1/stream body; see batchCall.
type streamCall struct {
	tenant               string
	pattern, pattern64   []byte
	patterns, patterns64 [][]byte
	ops                  []callOp
}

// callOp is one WireOp with its chunk as bytes.
type callOp struct {
	op              string
	chunk, chunk64  []byte
	n, pat          int
	kind            string
	from, to, width int
}

// batchCallOf copies a batch body decoded by encoding/json into the
// decoded form, one copy per input.
func batchCallOf(br BatchRequest) batchCall {
	bc := batchCall{tenant: br.Tenant}
	if br.Requests != nil {
		bc.reqs = make([]callRequest, len(br.Requests))
	}
	for i, w := range br.Requests {
		bc.reqs[i] = callRequest{
			a: bytesOf(w.A), b: bytesOf(w.B), a64: bytesOf(w.A64), b64: bytesOf(w.B64),
			kind: w.Kind, from: w.From, to: w.To, width: w.Width, timeoutMS: w.TimeoutMS,
		}
	}
	return bc
}

// streamCallOf copies a stream body decoded by encoding/json into the
// decoded form, one copy per input.
func streamCallOf(sr StreamRequest) streamCall {
	sc := streamCall{
		tenant:  sr.Tenant,
		pattern: bytesOf(sr.Pattern), pattern64: bytesOf(sr.Pattern64),
		patterns: bytesList(sr.Patterns), patterns64: bytesList(sr.Patterns64),
	}
	if sr.Ops != nil {
		sc.ops = make([]callOp, len(sr.Ops))
	}
	for i, op := range sr.Ops {
		sc.ops[i] = callOp{
			op: op.Op, chunk: bytesOf(op.Chunk), chunk64: bytesOf(op.Chunk64),
			n: op.N, pat: op.Pat, kind: op.Kind, from: op.From, to: op.To, width: op.Width,
		}
	}
	return sc
}

// bytesOf copies s, with "" as nil, as the canonical decoder reads it.
func bytesOf(s string) []byte {
	if s == "" {
		return nil
	}
	return []byte(s)
}

// bytesList copies ss element by element; a nil list stays nil and
// "[]" stays empty, as encoding/json decodes them.
func bytesList(ss []string) [][]byte {
	if ss == nil {
		return nil
	}
	out := make([][]byte, len(ss))
	for i, s := range ss {
		out[i] = bytesOf(s)
	}
	return out
}

// decodeRequest strictly decodes one whole request body into v, a
// *batchCall or *streamCall: unknown fields and anything but JSON
// whitespace after the value are errors, so a malformed request can
// never silently half-parse (FuzzServerRequest leans on this).
//
// A body in the canonical subset that json.Marshal emits takes one
// pass (decodeCanonical), and its text inputs alias body. Every other
// body goes to encoding/json and is copied into the same form
// (decodeFallback): encoding/json alone handles escapes, non-ASCII
// text, null, case-folded keys and repeated keys, where its semantics
// are subtle (U+FFFD substitution, slice elements reused when a key
// repeats). The choice is made by the input alone; both paths agree
// on every body the canonical one accepts (FuzzDecodeRequest pins
// this).
func decodeRequest(body []byte, v any) error {
	if decodeCanonical(body, v) {
		return nil
	}
	return decodeFallback(body, v)
}

// decodeFallback decodes body into v (a *batchCall or *streamCall)
// through the wire type encoding/json fills, copying each input once.
func decodeFallback(body []byte, v any) error {
	switch v := v.(type) {
	case *batchCall:
		var br BatchRequest
		if err := decodeJSON(body, &br); err != nil {
			return err
		}
		*v = batchCallOf(br)
	case *streamCall:
		var sr StreamRequest
		if err := decodeJSON(body, &sr); err != nil {
			return err
		}
		*v = streamCallOf(sr)
	default:
		// v is not formatted here: that would move every caller's
		// decoded call to the heap.
		return errors.New("server: request decoded into an unknown type")
	}
	return nil
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

// decodeCanonical decodes body into v (a *batchCall or *streamCall)
// if the body lies in the canonical subset, reporting whether it did;
// v is untouched otherwise. The subset is:
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
	case *batchCall:
		var bc batchCall
		if !c.batch(&bc) || !c.end() {
			return false
		}
		*v = bc
	case *streamCall:
		var sc streamCall
		if !c.stream(&sc) || !c.end() {
			return false
		}
		*v = sc
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

// wireNames are the query kind and stream op names. canon.name returns
// these constants instead of copying a known name out of the body.
var wireNames = [...]string{
	"score", "string-substring", "substring-string", "suffix-prefix", "prefix-suffix", "windows", "best-window",
	"append", "slide", "query",
}

func (c *canon) batch(bc *batchCall) bool {
	return c.object(batchFields, func(field string) bool {
		switch field {
		case "tenant":
			return c.str(&bc.tenant)
		case "requests":
			bc.reqs = []callRequest{}
			return c.array(func() bool {
				bc.reqs = append(bc.reqs, callRequest{})
				return c.request(&bc.reqs[len(bc.reqs)-1])
			})
		}
		return false
	})
}

func (c *canon) request(w *callRequest) bool {
	return c.object(requestFields, func(field string) bool {
		switch field {
		case "a":
			return c.text(&w.a)
		case "b":
			return c.text(&w.b)
		case "a64":
			return c.text(&w.a64)
		case "b64":
			return c.text(&w.b64)
		case "kind":
			return c.name(&w.kind)
		case "from":
			return c.int(&w.from)
		case "to":
			return c.int(&w.to)
		case "width":
			return c.int(&w.width)
		case "timeout_ms":
			n, ok := c.integer(64)
			w.timeoutMS = n
			return ok
		}
		return false
	})
}

func (c *canon) stream(sc *streamCall) bool {
	return c.object(streamFields, func(field string) bool {
		switch field {
		case "tenant":
			return c.str(&sc.tenant)
		case "pattern":
			return c.text(&sc.pattern)
		case "pattern64":
			return c.text(&sc.pattern64)
		case "patterns":
			return c.texts(&sc.patterns)
		case "patterns64":
			return c.texts(&sc.patterns64)
		case "ops":
			sc.ops = []callOp{}
			return c.array(func() bool {
				sc.ops = append(sc.ops, callOp{})
				return c.op(&sc.ops[len(sc.ops)-1])
			})
		}
		return false
	})
}

func (c *canon) op(op *callOp) bool {
	return c.object(opFields, func(field string) bool {
		switch field {
		case "op":
			return c.name(&op.op)
		case "chunk":
			return c.text(&op.chunk)
		case "chunk64":
			return c.text(&op.chunk64)
		case "n":
			return c.int(&op.n)
		case "pat":
			return c.int(&op.pat)
		case "kind":
			return c.name(&op.kind)
		case "from":
			return c.int(&op.from)
		case "to":
			return c.int(&op.to)
		case "width":
			return c.int(&op.width)
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

// texts reads an array of strings as sub-slices of the body.
func (c *canon) texts(p *[][]byte) bool {
	*p = [][]byte{}
	return c.array(func() bool {
		var s []byte
		ok := c.text(&s)
		*p = append(*p, s)
		return ok
	})
}

// text reads a string as a sub-slice of the body (see raw), or nil
// when it is empty.
func (c *canon) text(p *[]byte) bool {
	raw, ok := c.raw()
	if len(raw) == 0 {
		raw = nil
	}
	*p = raw
	return ok
}

// str reads a string into a fresh copy.
func (c *canon) str(p *string) bool {
	raw, ok := c.raw()
	*p = string(raw)
	return ok
}

// name reads a string that is usually one of wireNames, copying it
// only when it is not.
func (c *canon) name(p *string) bool {
	raw, ok := c.raw()
	for _, n := range wireNames {
		if string(raw) == n {
			*p = n
			return ok
		}
	}
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

// raw reads a string's bytes as a sub-slice of buf whose capacity ends
// at its length, so appending to it cannot write into buf. The closing
// quote is the first one (bytes.IndexByte); plainRun then checks the
// bytes before it in one pass.
func (c *canon) raw() ([]byte, bool) {
	if !c.punct('"') {
		return nil, false
	}
	start := c.pos
	n := bytes.IndexByte(c.buf[start:], '"')
	if n < 0 {
		return nil, false
	}
	end := start + n
	s := c.buf[start:end:end]
	if !plainRun(s) {
		return nil, false
	}
	c.pos = end + 1
	return s, true
}

// plainRun reports whether every byte of s, which holds no quote, is
// plain. Request bodies are almost all string bytes, so it ORs the
// unplain terms of four words together and branches once per 32 bytes.
func plainRun(s []byte) bool {
	const highs = 0x8080808080808080
	for len(s) >= 32 {
		w := s[:32:32]
		acc := unplain(binary.LittleEndian.Uint64(w[0:8])) |
			unplain(binary.LittleEndian.Uint64(w[8:16])) |
			unplain(binary.LittleEndian.Uint64(w[16:24])) |
			unplain(binary.LittleEndian.Uint64(w[24:32]))
		if acc&highs != 0 {
			return false
		}
		s = s[32:]
	}
	for len(s) >= 8 {
		if unplain(binary.LittleEndian.Uint64(s))&highs != 0 {
			return false
		}
		s = s[8:]
	}
	for _, b := range s {
		if !plain[b] {
			return false
		}
	}
	return true
}

// unplain sets the high bit of every byte of x that is a control
// byte, a backslash or ≥ 0x80, and perhaps of bytes above the first of
// them, but of no byte when x holds none: x holds a byte that is not
// plain exactly when unplain(x)&0x80…80 ≠ 0 (a quote cannot occur, as
// raw cuts the run at the first). It ORs three terms:
//   - x−0x20…20 sets a byte's high bit, and borrows from the next, only
//     at a byte below 0x20 (a byte in [0x20, 0x80) stays below 0x60);
//   - (v−0x01…01)&^v does the same at each zero byte of v = x^'\'…'\';
//   - x itself marks the bytes ≥ 0x80.
func unplain(x uint64) uint64 {
	const ones = 0x0101010101010101
	slash := x ^ (ones * '\\')
	return (x - ones*0x20) | (slash-ones)&^slash | x
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

// decode64 base64-decodes src into one fresh buffer.
func decode64(src []byte) ([]byte, error) {
	dst := make([]byte, base64.StdEncoding.DecodedLen(len(src)))
	n, err := base64.StdEncoding.Decode(dst, src)
	return dst[:n], err
}

// pairBytes resolves one input field given its two spellings, rejecting
// ambiguous requests that set both. Text comes back as it is (on the
// canonical path, a sub-slice of the body); base64 is decoded into a
// fresh buffer.
func pairBytes(text, b64 []byte, name string) ([]byte, error) {
	if len(b64) == 0 {
		return text, nil
	}
	if len(text) > 0 {
		return nil, fmt.Errorf("server: both %s and %s64 set", name, name)
	}
	raw, err := decode64(b64)
	if err != nil {
		return nil, fmt.Errorf("server: bad %s64: %w", name, err)
	}
	return raw, nil
}

// toEngineRequest validates one decoded request into an engine
// request. maxPair bounds len(a)+len(b): a kernel solve is
// Θ(len(a)·len(b)) work, so the wire must not let one request buy
// unbounded compute.
func toEngineRequest(w callRequest, maxPair int) (query.Request, error) {
	a, err := pairBytes(w.a, w.a64, "a")
	if err != nil {
		return query.Request{}, err
	}
	b, err := pairBytes(w.b, w.b64, "b")
	if err != nil {
		return query.Request{}, err
	}
	if len(a)+len(b) > maxPair {
		return query.Request{}, fmt.Errorf("server: input pair %d bytes exceeds limit %d: %w", len(a)+len(b), maxPair, errPairTooLarge)
	}
	kind, err := query.ParseKind(w.kind)
	if err != nil {
		return query.Request{}, err
	}
	if w.timeoutMS < 0 {
		return query.Request{}, fmt.Errorf("server: negative timeout_ms %d", w.timeoutMS)
	}
	return query.Request{
		A: a, B: b, Kind: kind,
		From: w.from, To: w.to, Width: w.width,
		Timeout: time.Duration(w.timeoutMS) * time.Millisecond,
	}, nil
}

// errPairTooLarge classifies oversized input pairs (errorKind
// "too_large"); the pair never reaches a shard.
var errPairTooLarge = errors.New("server: input pair too large")

// errNoHealthyShard is returned when every shard was killed or marked
// down — the only way the tier answers worse than
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
