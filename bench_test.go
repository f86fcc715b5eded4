// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation section, plus micro-benchmarks of the substrates.  Each
// experiment benchmark runs the corresponding experiment from
// internal/expts at a reduced scale and reports the headline quantities
// (predictive-function values, deviations, points visited) as custom
// benchmark metrics, so a single
//
//	go test -bench=. -benchmem
//
// regenerates the paper-shaped results.  The absolute values are measured in
// deterministic solver effort (propagations) on weakened instances; see
// README.md and PAPER.md for the mapping to the paper's cluster-scale
// numbers.
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

// benchScale returns the experiment scale used by the benchmark harness.
func benchScale(b *testing.B) expts.Scale {
	b.Helper()
	scale := expts.QuickScale()
	scale.Name = "bench"
	return scale
}

// BenchmarkTable1_A51DecompositionSets reproduces Table 1: the
// predictive-function values of the manual A5/1 decomposition set S1 and the
// sets S2/S3 found by simulated annealing and tabu search.
func BenchmarkTable1_A51DecompositionSets(b *testing.B) {
	scale := benchScale(b)
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		res, err := expts.RunA51(ctx, scale)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.S1.F, "F_S1")
		b.ReportMetric(res.S2.F, "F_S2")
		b.ReportMetric(res.S3.F, "F_S3")
		b.ReportMetric(float64(res.S1.Power), "size_S1")
		b.ReportMetric(float64(res.S2.Power), "size_S2")
		b.ReportMetric(float64(res.S3.Power), "size_S3")
		if i == 0 {
			b.Log("\n" + res.Table1().String())
		}
	}
}

// BenchmarkFigure1_A51ManualSet reproduces Figure 1: the manual decomposition
// set S1 laid out over the three A5/1 registers.
func BenchmarkFigure1_A51ManualSet(b *testing.B) {
	scale := benchScale(b)
	for i := 0; i < b.N; i++ {
		inst, err := expts.A51Instance(scale, scale.Seed)
		if err != nil {
			b.Fatal(err)
		}
		set := expts.ManualA51Set(inst)
		b.ReportMetric(float64(len(set)), "set_size")
		if i == 0 {
			fig, err := expts.FindExperiment("fig1")
			if err != nil {
				b.Fatal(err)
			}
			tables, err := fig.Run(context.Background(), scale)
			if err != nil {
				b.Fatal(err)
			}
			b.Log("\n" + tables[0].String())
		}
	}
}

// BenchmarkFigure2_A51SearchedSets reproduces Figures 2a/2b: the decomposition
// sets found by the two metaheuristics.
func BenchmarkFigure2_A51SearchedSets(b *testing.B) {
	scale := benchScale(b)
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		res, err := expts.RunA51(ctx, scale)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.SAEvaluations), "sa_points")
		b.ReportMetric(float64(res.TabuEvaluations), "tabu_points")
		if i == 0 {
			b.Log("\n" + res.Figure2a().String() + res.Figure2b().String())
		}
	}
}

// BenchmarkTable2_BiviumEstimates reproduces Table 2: three time estimations
// for the Bivium cryptanalysis problem (fixed strategy, solver-activity set,
// PDSAT tabu search) with increasing sample sizes.
func BenchmarkTable2_BiviumEstimates(b *testing.B) {
	scale := benchScale(b)
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		res, err := expts.RunBivium(ctx, scale)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Fixed.F, "F_fixed")
		b.ReportMetric(res.ActivityGuided.F, "F_activity")
		b.ReportMetric(res.Searched.F, "F_searched")
		if i == 0 {
			b.Log("\n" + res.Table2().String())
		}
	}
}

// BenchmarkFigure3_BiviumSet reproduces Figure 3: the Bivium decomposition
// set found by the tabu search, laid out over the two registers.
func BenchmarkFigure3_BiviumSet(b *testing.B) {
	scale := benchScale(b)
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		res, err := expts.RunBivium(ctx, scale)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Searched.Power), "set_size")
		b.ReportMetric(res.Searched.F, "F_searched")
		if i == 0 {
			b.Log("\n" + res.Figure3().String())
		}
	}
}

// BenchmarkFigure4_GrainSet reproduces Figure 4: the Grain decomposition set
// found by the tabu search and its NFSR/LFSR split (the paper's set lies
// entirely in the LFSR).
func BenchmarkFigure4_GrainSet(b *testing.B) {
	scale := benchScale(b)
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		res, err := expts.RunGrain(ctx, scale)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Searched.Power), "set_size")
		b.ReportMetric(float64(res.LFSRCount), "lfsr_vars")
		b.ReportMetric(float64(res.NFSRCount), "nfsr_vars")
		b.ReportMetric(res.Searched.F, "F_searched")
		if i == 0 {
			b.Log("\n" + res.Figure4().String())
		}
	}
}

// BenchmarkTable3_WeakenedSolving reproduces Table 3: weakened BiviumK/GrainK
// problems solved completely, with the measured family-processing cost
// compared against the Monte Carlo prediction (the paper reports an average
// deviation of about 8%).
func BenchmarkTable3_WeakenedSolving(b *testing.B) {
	scale := benchScale(b)
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		res, err := expts.RunTable3(ctx, scale)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.MeanDeviation, "mean_deviation_%")
		b.ReportMetric(float64(len(res.Rows)), "problems")
		if i == 0 {
			b.Log("\n" + res.Table3().String())
		}
	}
}

// BenchmarkMonteCarloConvergence validates eq. (2)/(3): the Monte Carlo
// estimate approaches the exhaustively computed family cost as the sample
// grows.
func BenchmarkMonteCarloConvergence(b *testing.B) {
	scale := benchScale(b)
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		res, err := expts.RunConvergence(ctx, scale)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Points) > 0 {
			b.ReportMetric(100*res.Points[len(res.Points)-1].Deviation, "final_deviation_%")
		}
		if i == 0 {
			b.Log("\n" + res.TableConvergence().String())
		}
	}
}

// BenchmarkSAvsTabu reproduces the Section 4.3 remark: under an equal
// evaluation budget, tabu search visits at least as many distinct points as
// simulated annealing (it never re-evaluates a point).
func BenchmarkSAvsTabu(b *testing.B) {
	scale := benchScale(b)
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		res, err := expts.RunSAvsTabu(ctx, scale)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.SAPoints), "sa_points")
		b.ReportMetric(float64(res.TabuPoints), "tabu_points")
		b.ReportMetric(res.SABest, "sa_bestF")
		b.ReportMetric(res.TabuBest, "tabu_bestF")
		if i == 0 {
			b.Log("\n" + res.TableSAvsTabu().String())
		}
	}
}

// BenchmarkSolverAblation measures the CDCL configuration ablation
// (restarts, phase saving, clause minimization on/off).
func BenchmarkSolverAblation(b *testing.B) {
	scale := benchScale(b)
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		res, err := expts.RunSolverAblation(ctx, scale)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) > 0 {
			b.ReportMetric(res.Rows[0].MeanCost, "default_mean_cost")
		}
		if i == 0 {
			b.Log("\n" + res.TableAblation().String())
		}
	}
}

// BenchmarkPortfolioVsPartitioning compares the portfolio baseline with the
// partitioning approach on the same weakened A5/1 instance (Section 1
// context: partitioning additionally offers a runtime prediction).
func BenchmarkPortfolioVsPartitioning(b *testing.B) {
	scale := benchScale(b)
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		res, err := expts.RunPortfolioVsPartitioning(ctx, scale)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.PortfolioCost, "portfolio_cost")
		b.ReportMetric(res.PartitioningCost, "partitioning_cost")
		if i == 0 {
			b.Log("\n" + res.TablePortfolio().String())
		}
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
