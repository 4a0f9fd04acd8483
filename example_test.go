package semilocal_test

import (
	"fmt"

	"semilocal"
)

// The basic workflow: one solve, many queries.
func Example() {
	a := []byte("ABCABBA")
	b := []byte("CBABAC")
	k, err := semilocal.Solve(a, b, semilocal.Config{})
	if err != nil {
		panic(err)
	}
	fmt.Println(k.Score())
	fmt.Println(k.StringSubstring(1, 5))
	// Output:
	// 4
	// 4
}

// Sliding-window scores localize the best-matching region of b in
// O(m+n) after the solve.
func ExampleKernel_windowScores() {
	pattern := []byte("GATTACA")
	text := []byte("CCCCGATTACACCCC")
	k, err := semilocal.Solve(pattern, text, semilocal.Config{
		Algorithm: semilocal.AntidiagBranchless,
	})
	if err != nil {
		panic(err)
	}
	scores := k.WindowScores(len(pattern))
	best, at := -1, 0
	for l, s := range scores {
		if s > best {
			best, at = s, l
		}
	}
	fmt.Printf("text[%d:%d) matches with LCS %d\n", at, at+len(pattern), best)
	// Output:
	// text[4:11) matches with LCS 7
}

// Binary strings use the bit-parallel scorer: Boolean word operations
// only.
func ExampleBinaryLCS() {
	x := []byte{0, 1, 1, 0, 1}
	y := []byte{1, 1, 0, 0, 1}
	fmt.Println(semilocal.BinaryLCS(x, y, 1))
	// Output:
	// 4
}

// A session group matches many fixed patterns against one shared
// streaming window, paying the text-side work once per chunk:
// patterns with the same relabeling structure share leaf solves, and
// duplicate patterns share whole spines.
func ExampleNewStreamGroup() {
	patterns := [][]byte{[]byte("gattaca"), []byte("tac"), []byte("gattaca")}
	g, err := semilocal.NewStreamGroup(patterns, semilocal.StreamGroupConfig{})
	if err != nil {
		panic(err)
	}
	for _, chunk := range []string{"gatt", "acat", "acgat"} {
		if err := g.Append([]byte(chunk)); err != nil {
			panic(err)
		}
	}
	for i := range patterns {
		st := g.Snapshot(i)
		fmt.Printf("%s: LCS %d over %d bytes\n", patterns[i], st.Kernel.Score(), st.Window)
	}
	fmt.Println("distinct spines:", g.DistinctPatterns())
	// Output:
	// gattaca: LCS 7 over 13 bytes
	// tac: LCS 3 over 13 bytes
	// gattaca: LCS 7 over 13 bytes
	// distinct spines: 2
}

// Semi-local edit distance answers approximate-matching queries.
func ExampleSolveEdit() {
	pattern := []byte("kitten")
	text := []byte("the sitting cat")
	k, err := semilocal.SolveEdit(pattern, text, semilocal.Config{})
	if err != nil {
		panic(err)
	}
	pos, dist := k.BestMatch(len(pattern))
	fmt.Printf("best window %q at distance %d\n", text[pos:pos+len(pattern)], dist)
	fmt.Println(semilocal.EditDistance(pattern, []byte("sitting")))
	// Output:
	// best window "sittin" at distance 2
	// 3
}

// Answer is the validated query dispatch: requests built from
// untrusted input get an error instead of a kernel panic.
func ExampleAnswer() {
	k, err := semilocal.Solve([]byte("ABCABBA"), []byte("CBABAC"), semilocal.Config{})
	if err != nil {
		panic(err)
	}
	res := semilocal.Answer(k, semilocal.BatchRequest{Kind: semilocal.QueryBestWindow, Width: 3})
	fmt.Println(res.From, res.Score, res.Err)
	res = semilocal.Answer(k, semilocal.BatchRequest{Kind: semilocal.QueryStringSubstring, From: 5, To: 9})
	fmt.Println(res.Err)
	// Output:
	// 0 3 <nil>
	// query: string-substring range [5,9) out of [0,6]
}
