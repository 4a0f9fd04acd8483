package query_test

import (
	"testing"

	"semilocal/internal/core"
	"semilocal/internal/oracle"
	"semilocal/internal/query"
)

// FuzzSessionQueries drives arbitrary input pairs and query indices
// through every Session query family and one window sweep, comparing
// each answer to direct substring DP. It answers every query a second
// time on an unprepared kernel over the same permutation, which must
// agree with the prepared session: that kernel takes the engine
// cache's on-demand path, direct counting and, on kernels of a few
// strands, the tree build of the query that crosses the scan budget.
// The raw fuzz bytes x, y, w are folded into valid ranges, so every
// generated input exercises real queries; lengths are capped to keep
// the quadratic oracle fast. The seed corpus under testdata/fuzz covers
// the adversarial families and is replayed by every plain `go test`
// run.
func FuzzSessionQueries(f *testing.F) {
	f.Add([]byte("abcabba"), []byte("cbabac"), byte(1), byte(5), byte(3))
	f.Add([]byte{}, []byte{}, byte(0), byte(0), byte(0))
	f.Fuzz(func(t *testing.T, a, b []byte, x, y, w byte) {
		if len(a) > 40 {
			a = a[:40]
		}
		if len(b) > 40 {
			b = b[:40]
		}
		m, n := len(a), len(b)
		k, err := core.Solve(a, b, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		lazy := core.NewKernel(k.Permutation(), m, n)
		s := query.NewSession(k)

		// Fold the fuzzed bytes into valid ranges.
		l := int(x) % (n + 1)
		r := l + int(y)%(n-l+1)
		u := int(x) % (m + 1)
		v := u + int(y)%(m-u+1)
		j := int(w) % (n + 1)
		width := int(w) % (n + 1)

		for _, q := range []struct {
			name            string
			got, lazy, want int
		}{
			{"Score", s.Score(), lazy.Score(), oracle.Score(a, b)},
			{"StringSubstring", s.StringSubstring(l, r), lazy.StringSubstring(l, r), oracle.StringSubstring(a, b, l, r)},
			{"SubstringString", s.SubstringString(u, v), lazy.SubstringString(u, v), oracle.SubstringString(a, b, u, v)},
			{"SuffixPrefix", s.SuffixPrefix(u, j), lazy.SuffixPrefix(u, j), oracle.SuffixPrefix(a, b, u, j)},
			{"PrefixSuffix", s.PrefixSuffix(u, j), lazy.PrefixSuffix(u, j), oracle.PrefixSuffix(a, b, u, j)},
		} {
			if q.got != q.want {
				t.Fatalf("%s (l=%d r=%d u=%d v=%d j=%d) = %d, oracle %d", q.name, l, r, u, v, j, q.got, q.want)
			}
			if q.lazy != q.got {
				t.Fatalf("%s (l=%d r=%d u=%d v=%d j=%d) on an unprepared kernel = %d, prepared %d", q.name, l, r, u, v, j, q.lazy, q.got)
			}
		}
		lazyWindows := lazy.WindowScores(width)
		for pos, sc := range s.WindowScores(width) {
			if want := oracle.StringSubstring(a, b, pos, pos+width); sc != want {
				t.Fatalf("WindowScores(%d)[%d] = %d, oracle %d", width, pos, sc, want)
			}
			if lazyWindows[pos] != sc {
				t.Fatalf("WindowScores(%d)[%d] on an unprepared kernel = %d, prepared %d", width, pos, lazyWindows[pos], sc)
			}
		}
	})
}
