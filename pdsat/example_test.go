package pdsat_test

import (
	"context"
	"fmt"
	"log"

	"github.com/paper-repro/pdsat-go/pdsat"
)

// ExampleSession_Submit submits an asynchronous estimation job and
// consumes its typed progress-event stream: one SampleProgress per solved
// subproblem of the Monte Carlo sample, then the single terminal Done.
func ExampleSession_Submit() {
	// A weakened A5/1 key-recovery instance: 12 unknown state bits.
	problem, err := pdsat.FromGenerator("a5/1", pdsat.GeneratorConfig{
		KeystreamLen: 30,
		KnownSuffix:  52,
		Seed:         1,
	})
	if err != nil {
		log.Fatal(err)
	}
	session, err := pdsat.NewSession(problem, pdsat.Config{
		Runner: pdsat.RunnerConfig{
			SampleSize: 16,
			Workers:    2,
			Seed:       1,
			CostMetric: pdsat.CostPropagations,
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	// Submit the job; an empty Vars list estimates the full start set.
	job, err := session.Submit(context.Background(), pdsat.EstimateJob{})
	if err != nil {
		log.Fatal(err)
	}

	// Watch it progress.  The stream is ordered and ends with exactly one
	// Done event, after which the channel closes.
	samples := 0
	for ev := range job.Events() {
		switch e := ev.(type) {
		case pdsat.SampleProgress:
			samples++
		case pdsat.Done:
			fmt.Printf("done (err=%q)\n", e.Err)
		}
	}

	// Collect the result.
	res, err := job.Result(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	est := res.Estimate
	fmt.Printf("samples solved: %d\n", samples)
	fmt.Printf("dimension d=%d over a sample of N=%d\n", est.Estimate.Dimension, est.Estimate.SampleSize)
	fmt.Printf("predictive function F is positive: %v\n", est.Estimate.Value > 0)
	// Output:
	// done (err="")
	// samples solved: 16
	// dimension d=12 over a sample of N=16
	// predictive function F is positive: true
}
