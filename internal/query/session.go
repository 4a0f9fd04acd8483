// Package query is the serving layer over semi-local LCS kernels: one
// O(mn) kernel solve (package core) pays for unlimited sublinear
// queries, and this package amortizes that solve across many requests.
//
// A Session is a solved core.Kernel: the kernel is its own query handle
// for the four semi-local query families and sliding-window sweeps
// (O(1) amortized per window). NewSession builds the kernel's dominance
// tree eagerly, so every query costs O(log(m+n)) from the first call.
// The engine cache instead keeps kernels unprepared: a query counts
// directly in O(m+n) until the kernel's scan work pays for the tree,
// which is then built once (core.Kernel.H), so a cached kernel queried
// a few times costs little more than its permutation. Answer is the one
// validated dispatch of a Request onto a kernel; the engine, streams
// and the CLI all answer through it.
//
// An Engine adds an LRU cache of MaxKernels kernels keyed by the pair's
// content hash (store.Key, the identity the persistent store shares),
// with singleflight deduplication (concurrent requests for the same
// pair trigger exactly one solve) and a batch entry point that fans
// independent requests across a worker pool under per-request context
// deadlines. The solve configuration only decides how a miss is solved.
// Engine.Stats reports the cache traffic counters.
package query

import (
	"fmt"

	"semilocal/internal/core"
)

// Session is the query handle over one solved kernel: the kernel
// itself. Every method is safe for concurrent use, and out-of-range
// indices panic (see core.Kernel); Answer validates a Request first and
// returns an error instead, so use it when inputs are untrusted.
type Session = core.Kernel

// NewSession prepares k for querying: it builds the kernel's dominance
// tree now (through the kernel's sync.Once, so a shared kernel is safe)
// and returns k, so query latency is flat from the first call.
func NewSession(k *core.Kernel) *Session { return k.Prepare() }

// Kind names one query family a Request can ask for.
type Kind int

const (
	// Score asks for LCS(a, b); From/To/Width are ignored.
	Score Kind = iota
	// StringSubstring asks for LCS(a, b[From:To)).
	StringSubstring
	// SubstringString asks for LCS(a[From:To), b).
	SubstringString
	// SuffixPrefix asks for LCS(a[From:], b[:To]).
	SuffixPrefix
	// PrefixSuffix asks for LCS(a[:From), b[To:]).
	PrefixSuffix
	// Windows asks for the full sweep LCS(a, b[l:l+Width)) for every l.
	Windows
	// BestWindow asks for the best Width-wide window of b (position in
	// Result.From, score in Result.Score).
	BestWindow
)

var kindNames = map[Kind]string{
	Score:           "score",
	StringSubstring: "string-substring",
	SubstringString: "substring-string",
	SuffixPrefix:    "suffix-prefix",
	PrefixSuffix:    "prefix-suffix",
	Windows:         "windows",
	BestWindow:      "best-window",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ParseKind resolves the CLI/wire name of a query kind.
func ParseKind(s string) (Kind, error) {
	for k, name := range kindNames {
		if name == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("query: unknown kind %q", s)
}

// Validate checks r's kind and ranges against string lengths m = |a|
// and n = |b|, returning the error Answer and Engine.BatchSolve report
// instead of letting the kernel accessors panic on untrusted input.
func (r Request) Validate(m, n int) error {
	from, to, width := r.From, r.To, r.Width
	switch r.Kind {
	case Score:
		return nil
	case StringSubstring:
		if from < 0 || to > n || from > to {
			return fmt.Errorf("query: string-substring range [%d,%d) out of [0,%d]", from, to, n)
		}
	case SubstringString:
		if from < 0 || to > m || from > to {
			return fmt.Errorf("query: substring-string range [%d,%d) out of [0,%d]", from, to, m)
		}
	case SuffixPrefix:
		if from < 0 || from > m || to < 0 || to > n {
			return fmt.Errorf("query: suffix-prefix indices (%d,%d) out of range m=%d n=%d", from, to, m, n)
		}
	case PrefixSuffix:
		if from < 0 || from > m || to < 0 || to > n {
			return fmt.Errorf("query: prefix-suffix indices (%d,%d) out of range m=%d n=%d", from, to, m, n)
		}
	case Windows, BestWindow:
		if width < 0 || width > n {
			return fmt.Errorf("query: window width %d out of [0,%d]", width, n)
		}
	default:
		return fmt.Errorf("query: unknown kind %d", int(r.Kind))
	}
	return nil
}

// Answer validates req against k's string lengths and answers it on k:
// the one query dispatch shared by the engine, streams and the CLI.
// A request out of range gets Result.Err, never a panic; A, B and
// Timeout are ignored.
func Answer(k *core.Kernel, req Request) Result {
	if err := req.Validate(k.M(), k.N()); err != nil {
		return Result{Err: err}
	}
	switch req.Kind {
	case Score:
		return Result{Score: k.Score()}
	case StringSubstring:
		return Result{Score: k.StringSubstring(req.From, req.To)}
	case SubstringString:
		return Result{Score: k.SubstringString(req.From, req.To)}
	case SuffixPrefix:
		return Result{Score: k.SuffixPrefix(req.From, req.To)}
	case PrefixSuffix:
		return Result{Score: k.PrefixSuffix(req.From, req.To)}
	case Windows:
		return Result{Windows: k.WindowScores(req.Width)}
	default: // BestWindow: Validate admits no other kind
		l, score := k.BestWindow(req.Width)
		return Result{From: l, Score: score}
	}
}
