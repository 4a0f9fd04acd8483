package dataset

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestNormalZeroFraction(t *testing.T) {
	// For σ = 1 the proportion of zero characters should be ≈ 0.683
	// (erfc identity quoted in the paper §5).
	s := Normal(200000, 1, 1)
	zeros := 0
	for _, c := range s {
		if c == 128 {
			zeros++
		}
	}
	frac := float64(zeros) / float64(len(s))
	if math.Abs(frac-0.683) > 0.01 {
		t.Fatalf("zero fraction for σ=1 is %.3f, want ≈ 0.683", frac)
	}
}

func TestNormalSigmaControlsAlphabet(t *testing.T) {
	distinct := func(s []byte) int {
		var seen [256]bool
		n := 0
		for _, c := range s {
			if !seen[c] {
				seen[c] = true
				n++
			}
		}
		return n
	}
	small := distinct(Normal(50000, 0.5, 2))
	large := distinct(Normal(50000, 8, 2))
	if small >= large {
		t.Fatalf("alphabet should grow with σ: %d vs %d", small, large)
	}
}

func TestNormalDeterministic(t *testing.T) {
	if !bytes.Equal(Normal(1000, 2, 7), Normal(1000, 2, 7)) {
		t.Fatal("same seed must give same string")
	}
	if bytes.Equal(Normal(1000, 2, 7), Normal(1000, 2, 8)) {
		t.Fatal("different seeds should differ")
	}
}

func TestUniformAndBinary(t *testing.T) {
	u := Uniform(10000, 4, 3)
	for _, c := range u {
		if c >= 4 {
			t.Fatalf("uniform character %d out of alphabet", c)
		}
	}
	b := Binary(10000, 0.25, 4)
	ones := 0
	for _, c := range b {
		if c > 1 {
			t.Fatalf("non-binary character %d", c)
		}
		ones += int(c)
	}
	frac := float64(ones) / float64(len(b))
	if math.Abs(frac-0.25) > 0.02 {
		t.Fatalf("ones fraction %.3f, want ≈ 0.25", frac)
	}
}

func TestMutateRates(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := RandomGenome("x", 50000, rng)
	mut := Mutate(g.Seq, 0.02, 0.001, rng)
	// Length should stay close.
	if math.Abs(float64(len(mut)-len(g.Seq))) > float64(len(g.Seq))/50 {
		t.Fatalf("mutated length %d too far from %d", len(mut), len(g.Seq))
	}
	// Hamming-style difference over the common prefix should be small
	// but nonzero.
	diff := 0
	n := len(g.Seq)
	if len(mut) < n {
		n = len(mut)
	}
	for i := 0; i < n; i++ {
		if g.Seq[i] != mut[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("mutation had no effect")
	}
}

func TestSimulateGenomes(t *testing.T) {
	gs := SimulateGenomes(6, 10000, 9)
	if len(gs) != 6 {
		t.Fatalf("got %d genomes", len(gs))
	}
	for _, g := range gs {
		if len(g.Seq) < 9000 || len(g.Seq) > 11000 {
			t.Fatalf("genome %s length %d drifted too far", g.Name, len(g.Seq))
		}
		for _, c := range g.Seq {
			if c != 'A' && c != 'C' && c != 'G' && c != 'T' {
				t.Fatalf("genome %s has non-nucleotide %q", g.Name, c)
			}
		}
	}
	if len(SimulateGenomes(0, 100, 1)) != 0 {
		t.Fatal("count 0 should be empty")
	}
}

func TestGenomePairSimilarity(t *testing.T) {
	a, b := GenomePair(5000, 11)
	if len(a) == 0 || len(b) == 0 {
		t.Fatal("empty pair")
	}
	// Related genomes must share far more than random 4-letter sequences
	// (expected random LCS ratio ≈ 0.65; relatives should be > 0.9).
	common := lcsLen(a, b)
	ratio := float64(common) / float64(min(len(a), len(b)))
	if ratio < 0.9 {
		t.Fatalf("pair LCS ratio %.2f, want > 0.9", ratio)
	}
}

func lcsLen(a, b []byte) int {
	row := make([]int, len(b)+1)
	for i := 0; i < len(a); i++ {
		diag := 0
		for j := 1; j <= len(b); j++ {
			up := row[j]
			switch {
			case a[i] == b[j-1]:
				row[j] = diag + 1
			case row[j-1] > up:
				row[j] = row[j-1]
			}
			diag = up
		}
	}
	return row[len(b)]
}

func TestFASTARoundTrip(t *testing.T) {
	gs := SimulateGenomes(3, 500, 12)
	var buf bytes.Buffer
	if err := WriteFASTA(&buf, gs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFASTA(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(gs) {
		t.Fatalf("round trip lost records: %d vs %d", len(back), len(gs))
	}
	for i := range gs {
		if back[i].Name != gs[i].Name || !bytes.Equal(back[i].Seq, gs[i].Seq) {
			t.Fatalf("record %d corrupted", i)
		}
	}
}

func TestReadFASTAErrors(t *testing.T) {
	if _, err := ReadFASTA(strings.NewReader("ACGT\n")); err == nil {
		t.Fatal("headerless sequence accepted")
	}
	gs, err := ReadFASTA(strings.NewReader("\n\n>empty\n\n>x\nAC\nGT\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(gs) != 2 || gs[0].Name != "empty" || len(gs[0].Seq) != 0 || string(gs[1].Seq) != "ACGT" {
		t.Fatalf("parse result wrong: %+v", gs)
	}
}
