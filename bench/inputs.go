package main

// Input generation. Everything the benchmark sends is a pure function
// of the workload seed, so two runs with one seed send the same bytes.

// rng is splitmix64: fast enough to fabricate batch_cold's never-seen
// pairs per call at a small fraction of the call's cost, and seedable
// per stream so independent inputs never share a sequence.
type rng struct{ s uint64 }

// newRNG derives an independent generator for one named input stream
// of a seed.
func newRNG(seed int64, stream uint64) *rng {
	r := &rng{s: uint64(seed)*0x9E3779B97F4A7C15 ^ stream*0xD1B54A32D192ED03}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// intn returns a value in [0, n); the modulo bias is far below anything
// the benchmark could observe.
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// span returns a random [from, to) with 0 ≤ from ≤ to ≤ n.
func (r *rng) span(n int) (from, to int) {
	from, to = r.intn(n+1), r.intn(n+1)
	if from > to {
		from, to = to, from
	}
	return from, to
}

const dna = "ACGT"

// dna returns n letters over the σ=4 alphabet, 32 letters per draw.
func (r *rng) dna(n int) []byte {
	out := make([]byte, n)
	var w uint64
	for i := range out {
		if i%32 == 0 {
			w = r.next()
		}
		out[i] = dna[w&3]
		w >>= 2
	}
	return out
}

// mutate returns a copy of s with edits planted substitutions,
// insertions and deletions at random positions.
func (r *rng) mutate(s []byte, edits int) []byte {
	out := append([]byte(nil), s...)
	for e := 0; e < edits; e++ {
		at := r.intn(len(out))
		switch e % 3 {
		case 0:
			out[at] = dna[(indexOf(out[at])+1+r.intn(3))%4]
		case 1:
			out = append(out[:at], append([]byte{dna[r.intn(4)]}, out[at:]...)...)
		default:
			out = append(out[:at], out[at+1:]...)
		}
	}
	return out
}

// substitute returns a copy of s with edits substitutions spread evenly,
// far enough apart that the edit distance is exactly edits.
func (r *rng) substitute(s []byte, edits int) []byte {
	out := append([]byte(nil), s...)
	for e := 0; e < edits; e++ {
		at := (2*e + 1) * len(out) / (2 * edits)
		out[at] = dna[(indexOf(out[at])+1+r.intn(3))%4]
	}
	return out
}

func indexOf(c byte) int {
	for i := 0; i < len(dna); i++ {
		if dna[i] == c {
			return i
		}
	}
	return 0
}

// Input streams of one seed.
const (
	streamHot uint64 = iota + 1
	streamHotBodies
	streamFiller
	streamCold
	streamNear
	streamNearBodies
	streamText
	streamScripts
	streamLadder
)

// maskLetters are bytes outside the text alphabet. Group patterns mask
// some positions with one of them; two patterns that differ only in
// the mask letter relabel into one class against any chunk of text.
const maskLetters = "NBDEFHIJKLMOPQRSUVWXYZbdefhijklmnopqrsuvwxyz"

// groupPatterns builds p patterns of length m from 4 bases: pattern i
// is base i%4 with every eighth position masked by maskLetters[i/8].
// Consecutive variants of a base are exact duplicates (one spine), and
// variants with different mask letters share leaf solves by relabeling.
func groupPatterns(r *rng, p, m int) [][]byte {
	bases := make([][]byte, 4)
	for i := range bases {
		bases[i] = r.dna(m)
	}
	out := make([][]byte, p)
	for i := range out {
		pat := append([]byte(nil), bases[i%4]...)
		mask := maskLetters[(i/8)%len(maskLetters)]
		for j := 7; j < m; j += 8 {
			pat[j] = mask
		}
		out[i] = pat
	}
	return out
}
