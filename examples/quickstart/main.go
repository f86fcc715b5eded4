// Quickstart: estimate and solve a partitioning of a weakened A5/1
// cryptanalysis instance.
//
// The program walks through the whole workflow of the paper on an instance
// small enough to finish in a few seconds:
//
//  1. generate a cryptanalysis SAT instance (secret state -> keystream ->
//     Tseitin-encoded circuit with keystream constraints),
//  2. evaluate the predictive function F for the starting decomposition set
//     (the unknown state bits) with the Monte Carlo method,
//  3. process the whole decomposition family in parallel and recover the
//     secret state, and
//  4. compare the measured total cost with the prediction.
//
// Run with:
//
//	go run ./examples/quickstart
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

	// 1. Build the instance: A5/1 with 52 of the 64 state bits known, so 12
	// remain unknown and the decomposition family has 2^12 members.
	inst, err := encoder.NewInstance(encoder.A51(), encoder.Config{
		KeystreamLen: 48,
		KnownSuffix:  52,
		Seed:         2024,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("instance:  %s\n", inst.Name)
	fmt.Printf("variables: %d, clauses: %d\n", inst.CNF.NumVars, inst.CNF.NumClauses())
	fmt.Printf("keystream: %s\n", crypto.BitsToString(inst.Keystream))
	fmt.Printf("unknown state bits: %d\n\n", len(inst.UnknownStartVars()))

	engine, err := pdsat.NewSession(pdsat.FromInstance(inst), pdsat.Config{
		Runner: pdsat.RunnerConfig{
			SampleSize: 200,
			Seed:       7,
			CostMetric: pdsat.CostPropagations,
		},
		Search: pdsat.SearchOptions{Seed: 7, MaxEvaluations: 10},
		Cores:  480,
	})
	if err != nil {
		log.Fatal(err)
	}

	// 2. Predictive function for the starting decomposition set (an
	// EstimateJob naming no variables estimates the whole start set).
	res, err := engine.Run(ctx, pdsat.EstimateJob{})
	if err != nil {
		log.Fatal(err)
	}
	est := res.Estimate
	fmt.Printf("predictive function F (1 core):   %.4g propagations\n", est.Estimate.Value)
	fmt.Printf("extrapolated to %d cores:        %.4g propagations\n\n", est.Cores, est.PerCores)

	// 3 + 4. Process the whole family and compare with the prediction.
	cmp, err := engine.PredictAndSolve(ctx, inst.UnknownStartVars())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("measured family cost:             %.4g propagations\n", cmp.MeasuredTotal)
	fmt.Printf("prediction vs measurement:        %.1f%% deviation\n", 100*cmp.Deviation)
	fmt.Printf("secret state recovered:           %v (keystream check: %v)\n", cmp.FoundSat, cmp.KeyValid)
}
