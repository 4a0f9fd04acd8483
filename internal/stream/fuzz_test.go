package stream

import (
	"bytes"
	"testing"

	"semilocal/internal/oracle"
)

// FuzzStreamAppend drives a session through a fuzzer-chosen op
// sequence — appends of varying sizes, slides, checkpoints — and
// checks at every checkpoint (and at the end) that the streamed kernel
// is bit-identical to a from-scratch solve of the surviving window and
// agrees with the quadratic DP oracle.
//
// Decoding: each op byte b selects by b%8 — 6 slides by (b>>3) mod
// (leaves+1), 7 is a checkpoint, anything else appends (b>>3)%7+1
// bytes drawn cyclically from the text argument. The window is capped
// at 48 bytes and the pattern at 16 so the from-scratch reference
// stays cheap under fuzzing throughput.
func FuzzStreamAppend(f *testing.F) {
	f.Add([]byte("abca"), []byte{0x09, 0x11, 0x3f, 0x0e, 0x36, 0x07, 0x1f}, []byte("mississippi"))
	f.Add([]byte("pattern"), []byte{0x08, 0x08, 0x08, 0x3e, 0x0f, 0x08, 0x07}, []byte("aabb"))
	f.Add([]byte(""), []byte{0x21, 0x07, 0x16, 0x3f}, []byte("zzz"))
	f.Add([]byte("aaaa"), bytes.Repeat([]byte{0x08, 0x0f}, 12), []byte("a"))
	f.Fuzz(func(t *testing.T, a, ops, text []byte) {
		if len(a) > 16 {
			a = a[:16]
		}
		s, err := New(a, Config{})
		if err != nil {
			t.Fatal(err)
		}
		var chunks [][]byte
		windowOf := func() []byte {
			var w []byte
			for _, c := range chunks {
				w = append(w, c...)
			}
			return w
		}
		total := 0
		cursor := 0
		take := func(n int) []byte {
			out := make([]byte, n)
			for i := range out {
				if len(text) == 0 {
					out[i] = 'x'
				} else {
					out[i] = text[(cursor+i)%len(text)]
				}
			}
			cursor += n
			return out
		}
		check := func(label string) {
			checkIdentical(t, s, a, windowOf(), label)
			if got, want := s.Kernel().Score(), oracle.Score(a, windowOf()); got != want {
				t.Fatalf("%s: score %d, oracle says %d", label, got, want)
			}
		}
		for i, op := range ops {
			if i >= 40 {
				break // bound per-input work
			}
			switch op % 8 {
			case 6:
				drop := int(op>>3) % (len(chunks) + 1)
				if err := s.Slide(drop); err != nil {
					t.Fatalf("op %d: Slide(%d): %v", i, drop, err)
				}
				for _, c := range chunks[:drop] {
					total -= len(c)
				}
				chunks = chunks[drop:]
			case 7:
				check("checkpoint")
			default:
				n := int(op>>3)%7 + 1
				if total+n > 48 {
					continue
				}
				c := take(n)
				if err := s.Append(c); err != nil {
					t.Fatalf("op %d: Append(%d bytes): %v", i, n, err)
				}
				chunks = append(chunks, c)
				total += n
			}
		}
		check("final")
		checkSpine(t, s.g.states[0], "final")
	})
}
