// Package query is the serving layer over semi-local LCS kernels: one
// O(mn) kernel solve (package core) pays for unlimited sublinear
// queries, and this package amortizes that solve across many requests.
//
// A Session wraps one solved kernel for the four semi-local query
// families and sliding-window sweeps (O(1) amortized per window).
// NewSession builds the kernel's dominance tree eagerly, so every query
// costs O(log(m+n)) from the first call. The engine cache instead
// wraps kernels unprepared: a query counts directly in O(m+n) until
// the kernel's scan work pays for the tree, which is then built once
// (core.Kernel.H), so a cached kernel queried a few times costs little
// more than its permutation.
//
// An Engine adds a sharded LRU cache of sessions keyed by the pair's
// content hash (store.Key, the identity the persistent store and the
// server's ring share), with singleflight deduplication (concurrent
// requests for the same pair trigger exactly one solve) and a batch
// entry point that fans independent requests across a worker pool
// under per-request context deadlines. The solve configuration only decides how a miss is solved.
// Engine.Stats reports the cache traffic counters.
package query

import (
	"fmt"

	"semilocal/internal/core"
	"semilocal/internal/recycle"
)

// Session is an immutable query handle over one solved kernel. A
// Session from NewSession is fully preprocessed, so query latency is
// flat from the first call; one from the engine cache builds its
// dominance structure on demand, once its queries have paid for it.
// Either way the answers are identical and all methods are safe for
// concurrent use.
//
// Range-validation mirrors core.Kernel: out-of-range indices panic.
// Engine.BatchSolve validates requests up front and returns errors
// instead; use it when inputs are untrusted.
type Session struct {
	k *core.Kernel
}

// NewSession preprocesses k for querying. The kernel may be shared;
// building the dominance structure through the kernel's sync.Once keeps
// concurrent construction safe.
func NewSession(k *core.Kernel) *Session {
	return &Session{k: k.Prepare()}
}

// Kernel exposes the underlying kernel.
func (s *Session) Kernel() *core.Kernel { return s.k }

// M returns len(a); N returns len(b).
func (s *Session) M() int { return s.k.M() }
func (s *Session) N() int { return s.k.N() }

// MemoryBytes is the session's resident-size reservation: the kernel
// plus every query structure it can grow, built or not
// (core.Kernel.MemoryBytes). The engine cache budgets against it.
func (s *Session) MemoryBytes() int { return s.k.MemoryBytes() }

// Score returns the global LCS score LCS(a, b).
func (s *Session) Score() int { return s.k.Score() }

// ScoreWindow returns LCS(a, b[l:r)) — the string-substring query under
// its serving-layer name.
func (s *Session) ScoreWindow(l, r int) int { return s.k.StringSubstring(l, r) }

// StringSubstring returns LCS(a, b[l:r)).
func (s *Session) StringSubstring(l, r int) int { return s.k.StringSubstring(l, r) }

// SubstringString returns LCS(a[u:v), b).
func (s *Session) SubstringString(u, v int) int { return s.k.SubstringString(u, v) }

// SuffixPrefix returns LCS(a[u:], b[:j]).
func (s *Session) SuffixPrefix(u, j int) int { return s.k.SuffixPrefix(u, j) }

// PrefixSuffix returns LCS(a[:v), b[j:]).
func (s *Session) PrefixSuffix(v, j int) int { return s.k.PrefixSuffix(v, j) }

// WindowScores returns LCS(a, b[l:l+width)) for every l in
// [0, n-width], O(1) amortized per window.
func (s *Session) WindowScores(width int) []int { return s.k.WindowScores(width) }

// windowScratch recycles the sweep buffers BestWindow reduces over and
// discards. Sessions are queried from any goroutine, so this is the
// synchronized recycler flavor; the alloc-parity guards pin that the
// steady-state path stays allocation-free through it.
var windowScratch = recycle.NewShared[int](0)

// BestWindow returns the left edge and score of the width-wide window
// of b with the highest LCS against a (the leftmost on ties). It panics
// if width is out of [0, n].
func (s *Session) BestWindow(width int) (l, score int) {
	var scratch []int
	if width >= 0 && width <= s.k.N() {
		scratch = windowScratch.Get(s.k.N() - width + 1)
	}
	scores := s.k.WindowScoresInto(width, scratch)
	best, at := -1, 0
	for i, sc := range scores {
		if sc > best {
			best, at = sc, i
		}
	}
	windowScratch.Put(scores)
	return at, best
}

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

// validate checks the request ranges against string lengths m, n,
// returning the error that Engine.BatchSolve reports instead of letting
// the kernel accessors panic on untrusted input.
func (q Kind) validate(from, to, width, m, n int) error {
	switch q {
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
		return fmt.Errorf("query: unknown kind %d", int(q))
	}
	return nil
}
