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
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"github.com/paper-repro/pdsat-go/internal/cluster"
	"github.com/paper-repro/pdsat-go/internal/cnf"
	"github.com/paper-repro/pdsat-go/internal/cnfgen"
	"github.com/paper-repro/pdsat-go/internal/decomp"
	"github.com/paper-repro/pdsat-go/internal/encoder"
	"github.com/paper-repro/pdsat-go/internal/eval"
	"github.com/paper-repro/pdsat-go/internal/expts"
	"github.com/paper-repro/pdsat-go/internal/optimize"
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

// BenchmarkEvalPolicyBiviumTabu measures the budget-aware evaluation
// engine (PR 4) on a Table-2-style weakened-Bivium tabu search: the same
// fixed-seed search once with the zero policy (every evaluation solves the
// full sample, the pre-engine behaviour) and once with the default policy
// (incumbent pruning + staged adaptive sampling + F-cache).  The headline
// metrics are the solved-subproblem counts per search and the reduction;
// the acceptance bar is a ≥30% reduction at equal best F, which the
// benchmark enforces.
func BenchmarkEvalPolicyBiviumTabu(b *testing.B) {
	inst, err := encoder.NewInstance(encoder.Bivium(), encoder.Config{
		KeystreamLen: 200,
		KnownSuffix:  160,
		Seed:         7,
	})
	if err != nil {
		b.Fatal(err)
	}
	space := decomp.NewSpace(inst.UnknownStartVars())
	run := func(pol eval.Policy) (float64, int) {
		r := pdsat.NewRunner(inst.CNF, pdsat.Config{
			SampleSize: 30,
			Seed:       3,
			CostMetric: solver.CostPropagations,
			Policy:     pol,
		})
		obj := pdsat.NewObjective(r.Scope, r, pol, nil, nil)
		res, err := optimize.TabuSearch(context.Background(), obj, space.FullPoint(),
			optimize.Options{Seed: 5, MaxEvaluations: 60})
		if err != nil {
			b.Fatal(err)
		}
		return res.BestValue, r.SubproblemsSolved()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bestOff, solvedOff := run(eval.Policy{})
		bestOn, solvedOn := run(eval.DefaultPolicy())
		if bestOn != bestOff {
			b.Fatalf("best F differs with the default policy: %v vs %v", bestOn, bestOff)
		}
		reduction := 100 * (1 - float64(solvedOn)/float64(solvedOff))
		if reduction < 30 {
			b.Fatalf("default policy saved only %.1f%% of subproblems (acceptance bar: 30%%)", reduction)
		}
		b.ReportMetric(float64(solvedOff), "subproblems_policy_off")
		b.ReportMetric(float64(solvedOn), "subproblems_policy_on")
		b.ReportMetric(reduction, "subproblem_reduction_%")
		b.ReportMetric(bestOn, "bestF")
	}
}

// BenchmarkFleetBiviumTabu measures the search-fleet coupling (PR 5) on a
// weakened-Bivium instance: the same four fixed-sub-seed searches (tabu:2,
// sa:2, default evaluation policy) run once sequentially with isolated
// incumbents and per-search F-caches, and once as a concurrent fleet
// sharing one incumbent and one cache over a single runner.  The headline
// metrics are the solved-subproblem totals and the reduction; the
// acceptance bar — which the benchmark enforces — is that the shared-
// incumbent fleet solves at least 10% fewer subproblems than the isolated
// sequential baseline.
func BenchmarkFleetBiviumTabu(b *testing.B) {
	inst, err := encoder.NewInstance(encoder.Bivium(), encoder.Config{
		KeystreamLen: 200,
		KnownSuffix:  160,
		Seed:         7,
	})
	if err != nil {
		b.Fatal(err)
	}
	space := decomp.NewSpace(inst.UnknownStartVars())
	const (
		root    = int64(3)
		members = 4
		evals   = 15
		sample  = 30
	)
	pol := eval.DefaultPolicy()
	method := func(i int) string {
		if i >= members/2 {
			return optimize.MethodSA
		}
		return optimize.MethodTabu
	}
	newRunner := func(seed int64) *pdsat.Runner {
		return pdsat.NewRunner(inst.CNF, pdsat.Config{
			SampleSize: sample,
			Seed:       seed,
			CostMetric: solver.CostPropagations,
		})
	}

	runSequential := func() int {
		total := 0
		for i := 0; i < members; i++ {
			r := newRunner(optimize.SubSeed(root, 3*i))
			obj := pdsat.NewObjective(r.Scope, r, pol, eval.NewCache(), nil) // isolated cache
			var err error
			switch method(i) {
			case optimize.MethodSA:
				_, err = optimize.SimulatedAnnealing(context.Background(), obj, space.FullPoint(),
					optimize.Options{Seed: optimize.SubSeed(root, 3*i+1), MaxEvaluations: evals})
			default:
				_, err = optimize.TabuSearch(context.Background(), obj, space.FullPoint(),
					optimize.Options{Seed: optimize.SubSeed(root, 3*i+1), MaxEvaluations: evals})
			}
			if err != nil {
				b.Fatal(err)
			}
			total += r.SubproblemsSolved()
		}
		return total
	}

	runFleet := func() int {
		r := newRunner(1)
		cache := eval.NewCache() // shared across the whole fleet
		fleet := make([]optimize.FleetMember, members)
		for i := 0; i < members; i++ {
			scope := r.NewScope(optimize.SubSeed(root, 3*i))
			fleet[i] = optimize.FleetMember{
				Method:    method(i),
				Objective: pdsat.NewObjective(scope, scope, pol, cache, nil),
				Start:     space.FullPoint(),
				Opts:      optimize.Options{Seed: optimize.SubSeed(root, 3*i+1), MaxEvaluations: evals},
			}
		}
		fr, err := optimize.RunFleet(context.Background(), fleet, optimize.FleetOptions{KeepRacing: true})
		if err != nil {
			b.Fatal(err)
		}
		if fr.Best < 0 {
			b.Fatal("fleet found no best point")
		}
		return r.SubproblemsSolved()
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sequential := runSequential()
		shared := runFleet()
		reduction := 100 * (1 - float64(shared)/float64(sequential))
		if reduction < 10 {
			b.Fatalf("shared-incumbent fleet saved only %.1f%% of subproblems over the isolated sequential baseline (acceptance bar: 10%%): %d vs %d",
				reduction, shared, sequential)
		}
		b.ReportMetric(float64(sequential), "subproblems_sequential")
		b.ReportMetric(float64(shared), "subproblems_fleet")
		b.ReportMetric(reduction, "fleet_reduction_%")
	}
}

// BenchmarkNeighborhoodBiviumTabu measures the neighbourhood-parallel
// evaluation scheduler (PR 6) on a weakened-Bivium tabu search: the same
// fixed-seed search once one candidate at a time (MaxConcurrentEvals = 1)
// and once with eight candidate evaluations in flight over a 4-worker
// in-process transport.
// The zero evaluation policy keeps both arms solving identical full
// samples, so the scheduler's determinism rule guarantees an equal best F
// — which the benchmark enforces unconditionally.  The headline metrics
// are the two wall-clock times — each arm's best of three repetitions, the
// reduction bench/README.md (Steadiness) settled on for a shared host — and
// the reduction between them; the acceptance bar of a ≥25% wall-clock
// reduction is enforced whenever the host actually has the four CPUs the
// four workers need (a single-core host cannot speed up CPU-bound solving
// by overlapping it, so there the bar is reported but not enforced).
func BenchmarkNeighborhoodBiviumTabu(b *testing.B) {
	inst, err := encoder.NewInstance(encoder.Bivium(), encoder.Config{
		KeystreamLen: 200,
		KnownSuffix:  160,
		Seed:         7,
	})
	if err != nil {
		b.Fatal(err)
	}
	space := decomp.NewSpace(inst.UnknownStartVars())
	const (
		workers = 4
		sample  = 6
		evals   = 40
		width   = 8
	)
	// Both arms share one in-process transport: pristine batches reset every
	// pooled solver, so fixed-seed results are bit-independent of the
	// pooling.  A warm-up run below builds the solvers that run reached for —
	// a worker draws one for the first task it solves, so that is the number
	// of goroutines that were solving at once, a handful, not the width ×
	// workers goroutines the wide arm starts.  A timed repetition that
	// reaches a new peak builds the difference inside its arm, which is one
	// more reason to compare the arms' best repetitions, not their sums.
	transport := cluster.NewInproc(inst.CNF, workers, solver.Options{})
	run := func(concurrency int) (float64, int, time.Duration) {
		r := pdsat.NewRunner(inst.CNF, pdsat.Config{
			SampleSize: sample,
			Seed:       3,
			CostMetric: solver.CostPropagations,
			Transport:  transport,
		})
		obj := pdsat.NewObjective(r.Scope, r, eval.Policy{}, nil, nil)
		start := time.Now()
		res, err := optimize.TabuSearch(context.Background(), obj, space.FullPoint(),
			optimize.Options{Seed: 5, MaxEvaluations: evals, MaxConcurrentEvals: concurrency})
		if err != nil {
			b.Fatal(err)
		}
		return res.BestValue, r.SubproblemsSolved(), time.Since(start)
	}
	run(width) // warm the solver pool
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Three paired runs per iteration, each arm read at its best, keep
		// scheduling noise and a late solver construction out of the CI gate;
		// the determinism claim (equal best F) is checked per pair.
		const reps = 3
		var bestSeq, bestConc float64
		var solvedSeq, solvedConc int
		wallSeq, wallConc := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
		for rep := 0; rep < reps; rep++ {
			var sSeq, sConc int
			var wSeq, wConc time.Duration
			bestSeq, sSeq, wSeq = run(1)
			bestConc, sConc, wConc = run(width)
			if bestConc != bestSeq {
				b.Fatalf("best F differs under the scheduler: %v vs %v", bestConc, bestSeq)
			}
			solvedSeq, solvedConc = sSeq, sConc
			wallSeq, wallConc = min(wallSeq, wSeq), min(wallConc, wConc)
		}
		reduction := 100 * (1 - wallConc.Seconds()/wallSeq.Seconds())
		if runtime.NumCPU() >= workers {
			if reduction < 25 {
				b.Fatalf("scheduler reduced wall clock by only %.1f%% on %d CPUs (acceptance bar: 25%%): %v vs %v",
					reduction, runtime.NumCPU(), wallConc, wallSeq)
			}
		} else {
			b.Logf("only %d CPU(s): wall-clock bar not enforceable (measured %.1f%% reduction)",
				runtime.NumCPU(), reduction)
		}
		b.ReportMetric(wallSeq.Seconds()*1e3, "wall_width1_ms")
		b.ReportMetric(wallConc.Seconds()*1e3, "wall_concurrent_ms")
		b.ReportMetric(reduction, "wall_reduction_%")
		b.ReportMetric(float64(solvedSeq), "subproblems_width1")
		b.ReportMetric(float64(solvedConc), "subproblems_concurrent")
		b.ReportMetric(bestConc, "bestF")
	}
}

// fixedDispatch is the reference arm of BenchmarkStragglerBiviumEstimate: a
// leader that sees none of the dispatch options the runner sets on every
// batch, so tasks stay where they were first assigned.
type fixedDispatch struct{ *cluster.Leader }

func (f fixedDispatch) RunDispatch(ctx context.Context, tasks []cluster.Task, opts cluster.BatchOptions, observe func(cluster.TaskResult), abort <-chan struct{}) ([]cluster.TaskResult, cluster.DispatchStats, error) {
	opts.Steal, opts.Speculate = false, false
	return f.Leader.RunDispatch(ctx, tasks, opts, observe, abort)
}

// BenchmarkStragglerBiviumEstimate measures the adaptive dispatch layer
// (PR 10) on a Table-2-style weakened-Bivium estimate over a real 4-worker
// loopback cluster in which one worker is a straggler (an injected half-
// second stall before every task it starts).  The same fixed-seed estimate
// runs once with dispatch pinned (fixedDispatch) — the batch tail waits out
// the straggler's queue — and once as every runner dispatches: work
// stealing and speculative re-dispatch.  The
// determinism rule is enforced unconditionally: both arms (and a pure
// in-process reference) must produce the bit-identical F, since the policies
// may only move subproblems between workers.  The acceptance bar of a ≥25%
// wall-clock reduction is enforced whenever the host has the CPUs the
// workers need (on fewer cores the healthy workers' solving serializes, so
// the bar is reported, not enforced).
func BenchmarkStragglerBiviumEstimate(b *testing.B) {
	inst, err := encoder.NewInstance(encoder.Bivium(), encoder.Config{
		KeystreamLen: 200,
		KnownSuffix:  160,
		Seed:         7,
	})
	if err != nil {
		b.Fatal(err)
	}
	space := decomp.NewSpace(inst.UnknownStartVars())
	point := space.FullPoint()
	const (
		workers = 4
		sample  = 24
		stall   = 500 * time.Millisecond
	)

	leader, err := cluster.Listen("127.0.0.1:0", inst.CNF, cluster.LeaderOptions{
		Heartbeat: 200 * time.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer leader.Close()
	addr := leader.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The straggler registers first, so fixed dispatch hands it the head of
	// every batch.
	go func() {
		_ = cluster.Serve(ctx, addr, cluster.WorkerOptions{
			Capacity: 1, Name: "straggler",
			TaskDelay: func(cluster.Task) time.Duration { return stall },
		})
	}()
	waitCtx, waitCancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer waitCancel()
	if err := leader.WaitForWorkers(waitCtx, 1); err != nil {
		b.Fatal(err)
	}
	for i := 1; i < workers; i++ {
		go func() {
			_ = cluster.Serve(ctx, addr, cluster.WorkerOptions{Capacity: 1})
		}()
	}
	if err := leader.WaitForWorkers(waitCtx, workers); err != nil {
		b.Fatal(err)
	}

	run := func(transport cluster.Transport) (*pdsat.Runner, float64, time.Duration) {
		r := pdsat.NewRunner(inst.CNF, pdsat.Config{
			SampleSize: sample,
			Seed:       3,
			CostMetric: solver.CostPropagations,
			Transport:  transport,
		})
		start := time.Now()
		res, err := r.EvaluatePoint(context.Background(), point)
		if err != nil {
			b.Fatal(err)
		}
		return r, res.Estimate.Value, time.Since(start)
	}

	// Pure in-process reference for the determinism gate.
	ref := pdsat.NewRunner(inst.CNF, pdsat.Config{
		SampleSize: sample,
		Seed:       3,
		CostMetric: solver.CostPropagations,
		Workers:    2,
	})
	refRes, err := ref.EvaluatePoint(context.Background(), point)
	if err != nil {
		b.Fatal(err)
	}

	run(leader) // warm the worker-side solver pools
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, fFixed, wallFixed := run(fixedDispatch{leader})
		r, fAdaptive, wallAdaptive := run(leader)
		if fFixed != refRes.Estimate.Value || fAdaptive != refRes.Estimate.Value {
			b.Fatalf("F drifted across dispatch modes: fixed %v, adaptive %v, in-process %v",
				fFixed, fAdaptive, refRes.Estimate.Value)
		}
		if r.TasksStolen()+r.SpeculationWins() == 0 {
			b.Fatalf("adaptive dispatch never engaged against the straggler (stolen=%d, wins=%d)",
				r.TasksStolen(), r.SpeculationWins())
		}
		reduction := 100 * (1 - wallAdaptive.Seconds()/wallFixed.Seconds())
		if runtime.NumCPU() >= workers {
			if reduction < 25 {
				b.Fatalf("adaptive dispatch cut the straggler wall clock by only %.1f%% on %d CPUs (acceptance bar: 25%%): %v vs %v",
					reduction, runtime.NumCPU(), wallAdaptive, wallFixed)
			}
		} else {
			b.Logf("only %d CPU(s): wall-clock bar not enforceable (measured %.1f%% reduction)",
				runtime.NumCPU(), reduction)
		}
		b.ReportMetric(wallFixed.Seconds()*1e3, "wall_fixed_ms")
		b.ReportMetric(wallAdaptive.Seconds()*1e3, "wall_adaptive_ms")
		b.ReportMetric(reduction, "wall_reduction_%")
		b.ReportMetric(float64(r.TasksStolen()), "tasks_stolen")
		b.ReportMetric(float64(r.SpeculativeDuplicates()), "speculative_duplicates")
		b.ReportMetric(float64(r.SpeculationWins()), "speculation_wins")
		b.ReportMetric(fAdaptive, "F")
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
