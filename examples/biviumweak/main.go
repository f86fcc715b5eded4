// Weakened Bivium key recovery: the analogue of one row of the paper's
// Table 3.
//
// A BiviumK-style instance (K state bits known) is generated, the predictive
// function of its unknown starting variables is computed with the Monte
// Carlo method, the whole decomposition family is processed by the
// leader/worker runner, and the measured cost is compared with the
// prediction.  Three instances are solved with the set estimated on the
// first one, exactly as in Section 4.4 of the paper.
//
// Run with:
//
//	go run ./examples/biviumweak
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/paper-repro/pdsat-go/internal/encoder"
	"github.com/paper-repro/pdsat-go/internal/montecarlo"
	"github.com/paper-repro/pdsat-go/pdsat"
)

func main() {
	ctx := context.Background()
	const (
		knownBits = 166 // Bivium166 in the paper's BiviumK notation
		instances = 3
	)

	var (
		prediction float64
		vars       = []int{}
	)
	fmt.Printf("Bivium%d: %d unknown state bits, %d instances\n\n", knownBits, 177-knownBits, instances)

	for i := 0; i < instances; i++ {
		inst, err := encoder.NewInstance(encoder.Bivium(), encoder.Config{
			KeystreamLen: 200,
			KnownSuffix:  knownBits,
			Seed:         int64(400 + i),
		})
		if err != nil {
			log.Fatal(err)
		}
		engine, err := pdsat.NewSession(pdsat.FromInstance(inst), pdsat.Config{
			Runner: pdsat.RunnerConfig{SampleSize: 300, Seed: 11, CostMetric: pdsat.CostPropagations},
			Cores:  480,
		})
		if err != nil {
			log.Fatal(err)
		}

		if i == 0 {
			res, eerr := engine.Run(ctx, pdsat.EstimateJob{})
			if eerr != nil {
				log.Fatal(eerr)
			}
			est := res.Estimate
			prediction = est.Estimate.Value
			vars = make([]int, len(est.Vars))
			for j, v := range est.Vars {
				vars[j] = int(v)
			}
			fmt.Printf("decomposition set (|set|=%d): %v\n", len(vars), vars)
			fmt.Printf("predicted family cost (1 core):    %.4g propagations\n", prediction)
			fmt.Printf("predicted on 480 cores:            %.4g propagations\n\n", est.PerCores)
		}

		res, err := engine.Run(ctx, pdsat.SolveJob{Vars: inst.UnknownStartVars()})
		if err != nil {
			log.Fatal(err)
		}
		report := res.Solve
		ok := engine.Problem().KeyValid(report.Model)
		dev := montecarlo.RelativeDeviation(prediction, report.TotalCost)
		fmt.Printf("instance %d: family cost %.4g, to first SAT %.4g, key found=%v valid=%v, deviation from prediction %.1f%%\n",
			i+1, report.TotalCost, report.CostToFirstSat, report.FoundSat, ok, 100*dev)
	}
}
