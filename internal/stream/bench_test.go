package stream

import (
	"bytes"
	"flag"
	"testing"

	"semilocal/internal/core"
)

// streamN and streamM size the streamed-vs-from-scratch fill
// benchmarks. The defaults keep bench-smoke fast; the EXPERIMENTS.md
// comparison runs them at -stream-n 1000000 for both a small pattern
// (-stream-m 64) and a large one (-stream-m 4096).
var (
	streamN = flag.Int("stream-n", 1<<18, "total window bytes for the Fill benchmarks")
	streamM = flag.Int("stream-m", 64, "pattern length for the stream benchmarks")
)

const benchChunk = 4096

func benchPattern() []byte { return bytes.Repeat([]byte("acgt"), *streamM/4)[:*streamM] }

func benchChunks(total int) [][]byte {
	text := bytes.Repeat([]byte("gattacacatgattaca"), total/16+1)[:total]
	var out [][]byte
	for off := 0; off < total; off += benchChunk {
		end := off + benchChunk
		if end > total {
			end = total
		}
		out = append(out, text[off:end])
	}
	return out
}

// BenchmarkStreamedFill streams -stream-n bytes in 4k chunks through
// one session: per-chunk cost is one leaf comb plus the amortized
// O(log) compositions and the publish fold.
func BenchmarkStreamedFill(b *testing.B) {
	a := benchPattern()
	chunks := benchChunks(*streamN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := New(a, Config{})
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range chunks {
			if err := s.Append(c); err != nil {
				b.Fatal(err)
			}
		}
		if s.g.Window() != *streamN {
			b.Fatal("window size mismatch")
		}
	}
}

// BenchmarkScratchFill is the baseline the streaming subsystem
// replaces: after every chunk arrival, re-solve the whole window from
// scratch with the same sequential configuration. Total work is
// quadratic in the number of chunks.
func BenchmarkScratchFill(b *testing.B) {
	a := benchPattern()
	chunks := benchChunks(*streamN)
	cfg := DefaultSolveConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var window []byte
		for _, c := range chunks {
			window = append(window, c...)
			if _, err := core.Solve(a, window, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkStreamSteadyStateAppend measures the per-arrival cost of a
// saturated sliding window: every iteration drops the oldest 4k chunk
// and appends a fresh one. Allocation counts here are the streaming
// hot-path budget (leaf solve + publish; merges run in the retained
// arena).
func BenchmarkStreamSteadyStateAppend(b *testing.B) {
	a := benchPattern()
	leaves := 64
	chunks := benchChunks(leaves * benchChunk)
	s, err := New(a, Config{})
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range chunks {
		if err := s.Append(c); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Slide(1); err != nil {
			b.Fatal(err)
		}
		if err := s.Append(chunks[i%leaves]); err != nil {
			b.Fatal(err)
		}
	}
}
