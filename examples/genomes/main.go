// Genomes reproduces the paper's real-life use case on a simulated virus
// family: pairwise whole-genome similarity by LCS, computed with the
// parallel hybrid algorithm, plus a semi-local refinement that locates
// the most conserved region between the two closest genomes.
//
//	go run ./examples/genomes
package main

import (
	"fmt"
	"log"

	"semilocal"
	"semilocal/internal/dataset"
)

func main() {
	const (
		family = 6
		length = 8000
	)
	genomes := dataset.SimulateGenomes(family, length, 7)
	fmt.Printf("simulated family of %d genomes (ancestor length %d)\n\n", family, length)

	// Pairwise similarity matrix: LCS / min length.
	sim := make([][]float64, family)
	bestI, bestJ, best := 0, 1, -1.0
	for i := range sim {
		sim[i] = make([]float64, family)
		sim[i][i] = 1
	}
	for i := 0; i < family; i++ {
		for j := i + 1; j < family; j++ {
			gi, gj := genomes[i].Seq, genomes[j].Seq
			k, err := semilocal.Solve(gi, gj, semilocal.Config{
				Algorithm: semilocal.GridReduction,
				Workers:   4,
				Use16:     true,
			})
			if err != nil {
				log.Fatal(err)
			}
			s := float64(k.Score()) / float64(min(len(gi), len(gj)))
			sim[i][j], sim[j][i] = s, s
			if s > best {
				best, bestI, bestJ = s, i, j
			}
		}
	}

	fmt.Print("similarity matrix (LCS / min length):\n      ")
	for j := range genomes {
		fmt.Printf("  g%-4d", j)
	}
	fmt.Println()
	for i := range genomes {
		fmt.Printf("  g%-4d", i)
		for j := range genomes {
			fmt.Printf(" %.3f ", sim[i][j])
		}
		fmt.Println()
	}

	fmt.Printf("\nclosest pair: g%d and g%d (%.1f%% similar)\n", bestI, bestJ, 100*best)
	fmt.Printf("  g%d = %s\n  g%d = %s\n", bestI, genomes[bestI].Name, bestJ, genomes[bestJ].Name)

	// Semi-local refinement on the closest pair: slide a 1 kbp window of
	// genome j against the whole of genome i to find the most conserved
	// region — one solve, n-window queries.
	a, b := genomes[bestI].Seq, genomes[bestJ].Seq
	k, err := semilocal.Solve(a, b, semilocal.Config{Algorithm: semilocal.Hybrid, Workers: 4})
	if err != nil {
		log.Fatal(err)
	}
	const window = 1000
	scores := k.WindowScores(window)
	bestL, bestScore := 0, -1
	for l, s := range scores {
		if s > bestScore {
			bestL, bestScore = l, s
		}
	}
	fmt.Printf("\nmost conserved %d bp window of g%d against all of g%d: [%d:%d), LCS %d\n",
		window, bestJ, bestI, bestL, bestL+window, bestScore)
}
