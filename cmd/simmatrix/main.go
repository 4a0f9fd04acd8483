// Simmatrix computes the pairwise LCS-similarity matrix of every record
// in a FASTA file — the whole-collection version of the paper's
// real-life genome comparison — using a kernel algorithm of choice.
//
//	datagen -kind genomes -count 8 -n 30000 -out viruses.fa
//	simmatrix -alg grid -workers 8 viruses.fa
//
// Similarity is LCS(x, y) / min(|x|, |y|); output is a CSV matrix with
// record names.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"semilocal"
	"semilocal/internal/dataset"
)

func main() {
	alg := flag.String("alg", "grid", "algorithm: rowmajor, antidiag, simd, load-balanced, recursive, hybrid, grid")
	workers := flag.Int("workers", 1, "worker goroutines per comparison")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: simmatrix [-alg A] [-workers N] records.fa")
		os.Exit(2)
	}
	if err := run(*alg, *workers, flag.Arg(0), os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "simmatrix:", err)
		os.Exit(1)
	}
}

var algorithms = map[string]semilocal.Algorithm{
	"rowmajor":      semilocal.RowMajor,
	"antidiag":      semilocal.Antidiag,
	"simd":          semilocal.AntidiagBranchless,
	"load-balanced": semilocal.LoadBalanced,
	"recursive":     semilocal.Recursive,
	"hybrid":        semilocal.Hybrid,
	"grid":          semilocal.GridReduction,
}

func run(alg string, workers int, path string, out io.Writer) error {
	algorithm, ok := algorithms[alg]
	if !ok {
		return fmt.Errorf("unknown algorithm %q", alg)
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	gs, err := dataset.ReadFASTA(f)
	if err != nil {
		return err
	}
	if len(gs) < 2 {
		return fmt.Errorf("%s: need at least two records, found %d", path, len(gs))
	}

	n := len(gs)
	sim := make([][]float64, n)
	for i := range sim {
		sim[i] = make([]float64, n)
		sim[i][i] = 1
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			k, err := semilocal.Solve(gs[i].Seq, gs[j].Seq, semilocal.Config{
				Algorithm: algorithm, Workers: workers, Use16: true,
			})
			if err != nil {
				return err
			}
			d := min(len(gs[i].Seq), len(gs[j].Seq))
			s := 1.0
			if d > 0 {
				s = float64(k.Score()) / float64(d)
			}
			sim[i][j], sim[j][i] = s, s
		}
	}

	// CSV: header row of names, then one row per record.
	names := make([]string, n)
	for i, g := range gs {
		names[i] = strings.ReplaceAll(g.Name, ",", ";")
	}
	fmt.Fprintf(out, "name,%s\n", strings.Join(names, ","))
	for i := range sim {
		cells := make([]string, n)
		for j, v := range sim[i] {
			cells[j] = fmt.Sprintf("%.4f", v)
		}
		fmt.Fprintf(out, "%s,%s\n", names[i], strings.Join(cells, ","))
	}
	return nil
}
