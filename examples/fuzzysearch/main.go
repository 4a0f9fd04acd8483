// Fuzzysearch is an agrep-style approximate search tool built on the
// semi-local edit-distance kernel: it reports every occurrence of a
// pattern in a text within a given edit distance, from a single
// semi-local solve — the Sellers / Landau–Vishkin approximate-matching
// problem that the paper's related work identifies as "essentially a
// form of semi-local string comparison".
//
// A second stage turns the one-shot search into a serving workload: a
// batch of candidate patterns — with duplicates, as real query traffic
// has — goes through the concurrent batch query engine, which caches
// kernels per pattern and answers repeated patterns without re-solving.
//
//	go run ./examples/fuzzysearch
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"
	"strings"

	"semilocal"
)

// occurrences returns the locally best windows with edit distance ≤ k:
// positions whose window distance is a local minimum under the
// threshold, deduplicated so each occurrence is reported once.
func occurrences(ek *semilocal.EditKernel, width, k int) []struct{ pos, dist int } {
	ds := ek.WindowDistances(width)
	var out []struct{ pos, dist int }
	for l := 0; l < len(ds); l++ {
		if ds[l] > k {
			continue
		}
		// Walk the plateau/valley of qualifying windows and keep its best.
		best, bestAt := ds[l], l
		j := l
		for j+1 < len(ds) && ds[j+1] <= k {
			j++
			if ds[j] < best {
				best, bestAt = ds[j], j
			}
		}
		out = append(out, struct{ pos, dist int }{bestAt, best})
		l = j
	}
	return out
}

func main() {
	text := []byte(strings.Join([]string{
		"the sticky braid is combed in row major order;",
		"a stickybraid can be combed along antidiagonals too;",
		"steaky brayd multiplication composes the partial kernels;",
		"unrelated filler text about dynamic programming grids",
	}, " "))
	pattern := []byte("sticky braid")
	const maxDist = 3

	// Corrupt the text a little more for good measure.
	rng := rand.New(rand.NewSource(5))
	noisy := append([]byte{}, text...)
	for i := 0; i < 3; i++ {
		noisy[rng.Intn(len(noisy))] = byte('a' + rng.Intn(26))
	}

	ek, err := semilocal.SolveEdit(pattern, noisy, semilocal.Config{
		Algorithm: semilocal.AntidiagBranchless,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("pattern %q, max edit distance %d, text length %d\n\n", pattern, maxDist, len(noisy))
	hits := occurrences(ek, len(pattern), maxDist)
	if len(hits) == 0 {
		fmt.Println("no occurrences")
		return
	}
	for _, h := range hits {
		fmt.Printf("  at %3d  dist %d  %q\n", h.pos, h.dist, noisy[h.pos:h.pos+len(pattern)])
	}
	if len(hits) < 3 {
		log.Fatalf("expected at least the three planted variants, found %d", len(hits))
	}

	// Serving mode: a stream of pattern lookups against the same corpus,
	// answered through the batch query engine. The duplicate patterns in
	// the batch are solved once each — the engine's singleflight + LRU
	// cache turns repeats into sublinear cache hits.
	patterns := []string{
		"sticky braid", "combed", "dynamic programming",
		"sticky braid", "partial kernels", "combed", "sticky braid",
	}
	rec := semilocal.NewStageRecorder()
	engine := semilocal.NewEngine(semilocal.EngineOptions{
		Config:  semilocal.Config{Algorithm: semilocal.AntidiagBranchless},
		Workers: 4,
		Obs:     rec,
	})
	defer engine.Close()
	reqs := make([]semilocal.BatchRequest, len(patterns))
	for i, p := range patterns {
		reqs[i] = semilocal.BatchRequest{
			A: []byte(p), B: noisy,
			Kind: semilocal.QueryBestWindow, Width: len(p),
		}
	}
	results := engine.BatchSolve(context.Background(), reqs)
	fmt.Printf("\nbatch of %d pattern lookups through the query engine:\n", len(reqs))
	for i, res := range results {
		if res.Err != nil {
			log.Fatalf("pattern %q: %v", patterns[i], res.Err)
		}
		fmt.Printf("  %-20q best window b[%d:%d)  LCS %d/%d\n",
			patterns[i], res.From, res.From+len(patterns[i]), res.Score, len(patterns[i]))
	}
	fmt.Printf("engine counters: %s\n", engine.StatsLine())
	if misses := engine.Stats()[semilocal.CounterCacheMisses.String()]; misses != 4 {
		log.Fatalf("expected 4 kernel solves for 4 distinct patterns, got %d", misses)
	}

	// The stage recorder attached above traced the whole serving path;
	// its snapshot shows where the batch's time went (solver passes vs.
	// cache waits vs. queue time) and how much work was combed.
	snap := rec.Snapshot()
	if solves := snap.Stages[semilocal.StageSolve].Count; solves != 4 {
		log.Fatalf("stage trace disagrees with cache counters: %d solves", solves)
	}
	fmt.Printf("\nstage trace of the batch (p95 request latency %v):\n",
		snap.Stages[semilocal.StageRequest].Quantile(0.95))
	snap.WriteBreakdown(os.Stdout)
}
