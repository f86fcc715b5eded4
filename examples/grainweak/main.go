// Weakened Grain key recovery with decomposition-set search: the analogue of
// the paper's Grain experiments (Figure 4 and the GrainK rows of Table 3).
//
// The program has two parts:
//
//  1. On a moderately weakened instance (part of the NFSR and part of the
//     LFSR unknown) it searches for a decomposition set with the tabu search
//     — the method the paper uses for Grain — and reports how the found set
//     splits between the NFSR and the LFSR; the paper's observation is that
//     the best sets live entirely in the LFSR.
//  2. On a heavily weakened instance (11 unknown state bits) it runs the
//     Table 3 protocol: predict the family-processing cost, process the
//     whole family, recover the state and compare.
//
// Run with:
//
//	go run ./examples/grainweak
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/paper-repro/pdsat-go/internal/crypto"
	"github.com/paper-repro/pdsat-go/internal/encoder"
	"github.com/paper-repro/pdsat-go/pdsat"
)

func main() {
	ctx := context.Background()

	// --- Part 1: decomposition-set search and the NFSR/LFSR split ---------
	searchInst, err := encoder.NewInstance(encoder.Grain(), encoder.Config{
		KeystreamLen: 80,
		KnownPrefix:  75, // first 75 NFSR cells known
		KnownSuffix:  55, // last 55 LFSR cells known -> 5 NFSR + 25 LFSR unknown
		Seed:         91,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("search instance %s: %d unknown state bits\n", searchInst.Name, len(searchInst.UnknownStartVars()))

	searchEngine, err := pdsat.NewSession(pdsat.FromInstance(searchInst), pdsat.Config{
		Runner: pdsat.RunnerConfig{SampleSize: 15, Seed: 5, CostMetric: pdsat.CostPropagations},
		Search: pdsat.SearchOptions{Seed: 5, MaxEvaluations: 70},
		Cores:  480,
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := searchEngine.Run(ctx, pdsat.SearchJob{Method: pdsat.MethodTabu})
	if err != nil {
		log.Fatal(err)
	}
	outcome := res.Search
	nfsr, lfsr := 0, 0
	for _, v := range outcome.Result.BestPoint.SortedVars() {
		isLFSR := false
		for i := crypto.GrainNFSRLen; i < crypto.GrainStateBits; i++ {
			if searchInst.StartVars[i] == v {
				isLFSR = true
				break
			}
		}
		if isLFSR {
			lfsr++
		} else {
			nfsr++
		}
	}
	fmt.Printf("tabu search visited %d points (%s)\n", outcome.Result.Evaluations, outcome.Result.Stop)
	fmt.Printf("best set: %d variables (NFSR %d, LFSR %d), F = %.4g propagations\n",
		outcome.Result.BestPoint.Count(), nfsr, lfsr, outcome.Result.BestValue)
	fmt.Println("(the paper's 69-variable Grain set lies entirely in the LFSR)")
	fmt.Println()

	// --- Part 2: Table 3 protocol on a heavily weakened instance ----------
	solveInst, err := encoder.NewInstance(encoder.Grain(), encoder.Config{
		KeystreamLen: 80,
		KnownSuffix:  149, // Grain149: 11 unknown state bits
		Seed:         92,
	})
	if err != nil {
		log.Fatal(err)
	}
	solveEngine, err := pdsat.NewSession(pdsat.FromInstance(solveInst), pdsat.Config{
		Runner: pdsat.RunnerConfig{SampleSize: 300, Seed: 5, CostMetric: pdsat.CostPropagations},
		Cores:  480,
	})
	if err != nil {
		log.Fatal(err)
	}
	cmp, err := solveEngine.PredictAndSolve(ctx, solveInst.UnknownStartVars())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("solve instance %s: %d unknown state bits\n", solveInst.Name, cmp.SetSize)
	fmt.Printf("predicted family cost:   %.4g propagations\n", cmp.Predicted1Core)
	fmt.Printf("measured family cost:    %.4g propagations (deviation %.1f%%)\n",
		cmp.MeasuredTotal, 100*cmp.Deviation)
	fmt.Printf("state recovered: %v, reproduces keystream: %v\n", cmp.FoundSat, cmp.KeyValid)
}
