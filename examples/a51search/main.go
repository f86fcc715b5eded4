// A5/1 decomposition-set search: the analogue of the paper's Table 1 and
// Figures 1-2 on a weakened instance.
//
// The program estimates the hand-built "clocking control" decomposition set
// (the S1 of the paper) and then runs both metaheuristics — simulated
// annealing and tabu search — to find competing sets, printing the same kind
// of comparison the paper reports.
//
// Run with:
//
//	go run ./examples/a51search
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/paper-repro/pdsat-go/internal/expts"
)

func main() {
	ctx := context.Background()

	scale := expts.QuickScale()

	fmt.Println("searching A5/1 decomposition sets...")
	result, err := expts.RunA51(ctx, scale)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println()
	fmt.Print(result.Table1().String())
	fmt.Print(result.Figure1().String())
	fmt.Print(result.Figure2a().String())
	fmt.Print(result.Figure2b().String())

	best := result.S1
	for _, s := range []expts.SetReport{result.S2, result.S3} {
		if s.F < best.F {
			best = s
		}
	}
	fmt.Printf("best decomposition set: %s with F = %.4g %s\n", best.Name, best.F, scale.CostUnit())
}
