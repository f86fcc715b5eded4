// Benchmarks of the paper's experiments and of the substrates.
// BenchmarkExperiments runs every entry of the experiment registry
// (internal/expts, the same entries cmd/experiments runs) at the quick scale
// and logs its tables, so
//
//	go test -bench 'BenchmarkExperiments/table1' -benchtime 1x -v .
//
// times Table 1 and prints it.  The values are deterministic solver effort
// (propagations) on weakened instances; see README.md and PAPER.md for the
// mapping to the paper's cluster-scale numbers.
package pdsatgo_test

import (
	"context"
	"math/rand"
	"testing"

	"github.com/paper-repro/pdsat-go/internal/cnf"
	"github.com/paper-repro/pdsat-go/internal/cnfgen"
	"github.com/paper-repro/pdsat-go/internal/decomp"
	"github.com/paper-repro/pdsat-go/internal/encoder"
	"github.com/paper-repro/pdsat-go/internal/expts"
	"github.com/paper-repro/pdsat-go/internal/pdsat"
	"github.com/paper-repro/pdsat-go/internal/solver"
)

// BenchmarkExperiments runs each registry entry, one sub-benchmark per
// table or figure, and logs the tables of its first run.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range expts.Experiments() {
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tables, err := e.Run(context.Background(), expts.QuickScale())
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					for _, t := range tables {
						b.Log("\n" + t.String())
					}
				}
			}
		})
	}
}

// --- substrate micro-benchmarks -----------------------------------------

// BenchmarkSolverPigeonhole measures raw CDCL performance on the classic
// UNSAT pigeonhole instance PHP(8,7).
func BenchmarkSolverPigeonhole(b *testing.B) {
	f, err := cnfgen.Pigeonhole(8, 7)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := solver.NewDefault(f).Solve()
		if res.Status != solver.Unsat {
			b.Fatalf("PHP(8,7) must be UNSAT, got %v", res.Status)
		}
	}
}

// BenchmarkSolverRandom3SAT measures CDCL performance on random 3-SAT below
// the phase transition.
func BenchmarkSolverRandom3SAT(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	formulas := make([]*cnf.Formula, 8)
	for i := range formulas {
		f, err := cnfgen.Random3SAT(rng, 120, 4.2)
		if err != nil {
			b.Fatal(err)
		}
		formulas[i] = f
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := solver.NewDefault(formulas[i%len(formulas)]).Solve()
		if res.Status == solver.Unknown {
			b.Fatal("unexpected unknown")
		}
	}
}

// BenchmarkEncoderBivium measures the circuit construction and Tseitin
// encoding of a full Bivium cryptanalysis instance.
func BenchmarkEncoderBivium(b *testing.B) {
	for i := 0; i < b.N; i++ {
		inst, err := encoder.NewInstance(encoder.Bivium(), encoder.Config{KeystreamLen: 200, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if inst.CNF.NumClauses() == 0 {
			b.Fatal("empty encoding")
		}
	}
}

// BenchmarkPredictiveFunctionEvaluation measures one Monte Carlo evaluation
// of the predictive function on a weakened A5/1 instance (the inner loop of
// every search).
func BenchmarkPredictiveFunctionEvaluation(b *testing.B) {
	inst, err := encoder.NewInstance(encoder.A51(), encoder.Config{KeystreamLen: 48, KnownSuffix: 46, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	space := decomp.NewSpace(inst.UnknownStartVars())
	point := space.FullPoint()
	runner := pdsat.NewRunner(inst.CNF, pdsat.Config{
		SampleSize: 20,
		Seed:       5,
		CostMetric: solver.CostPropagations,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runner.EvaluatePoint(context.Background(), point); err != nil {
			b.Fatal(err)
		}
	}
}
