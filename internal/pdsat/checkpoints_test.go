package pdsat

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/paper-repro/pdsat-go/internal/cluster"
	"github.com/paper-repro/pdsat-go/internal/cnf"
	"github.com/paper-repro/pdsat-go/internal/decomp"
	"github.com/paper-repro/pdsat-go/internal/eval"
	"github.com/paper-repro/pdsat-go/internal/solver"
)

// syntheticFormula is what the synthetic tables are "about": the oracle never
// looks at it, the runner draws its sample of assumptions over its first
// eight variables from it.
func syntheticFormula() (*cnf.Formula, decomp.Point) {
	f := cnf.New(12)
	for v := 1; v < 12; v++ {
		f.AddClauseLits(cnf.NewLit(cnf.Var(v), true), cnf.NewLit(cnf.Var(v+1), false))
	}
	vars := make([]cnf.Var, 8)
	for i := range vars {
		vars[i] = cnf.Var(i + 1)
	}
	return f, decomp.NewSpace(vars).FullPoint()
}

// syntheticTable is a cost table over the synthetic formula's eight
// variables: member m costs costs[m] propagations, is satisfiable if listed
// in sat, and bumps two variables that depend on m.
func syntheticTable(costs []float64, sat ...int) *costTable {
	_, p := syntheticFormula()
	table := &costTable{Vars: p.Vars(), Members: make([]tableMember, len(costs))}
	for m, c := range costs {
		member := tableMember{
			Status:   solver.Unsat,
			Stats:    solver.Stats{Propagations: uint64(c), Conflicts: uint64(m % 3)},
			Activity: solver.SparseActivities{Vars: []cnf.Var{cnf.Var(1 + m%12), cnf.Var(1 + (m/3)%12)}, Acts: []float64{float64(1 + m%5), 1}},
		}
		if slices.Contains(sat, m) {
			member.Status = solver.Sat
		}
		table.Members[m] = member
	}
	return table
}

// runSynthetic evaluates a sample of n once, in a fresh scope of a fresh
// runner over the synthetic formula and the transport.
func runSynthetic(t *testing.T, tr cluster.Transport, n int, pol eval.Policy, incumbent float64) scopeOutcome {
	t.Helper()
	f, p := syntheticFormula()
	r := NewRunner(f, Config{SampleSize: n, Seed: 5, CostMetric: solver.CostPropagations, Transport: tr})
	out, _ := evaluateInScope(t, r, 9, p, pol, incumbent)
	if got := r.Counters(); got != out.counters {
		t.Errorf("the runner's table %+v is not its only scope's %+v", got, out.counters)
	}
	return out
}

// nonAborting is the oracle over the table, completing in the given order,
// whose RunDispatch ignores the abort: every task of a batch is answered
// whatever the evaluation decided.
func nonAborting(table *costTable, order []int) cluster.Transport {
	o := newOracle(table)
	o.order = order
	return deafOracle{o}
}

// deafOracle is an oracle that never hears a batch's abort.
type deafOracle struct{ *oracle }

func (n deafOracle) RunDispatch(ctx context.Context, tasks []cluster.Task, opts cluster.BatchOptions, observe func(cluster.TaskResult), _ <-chan struct{}) ([]cluster.TaskResult, cluster.DispatchStats, error) {
	return n.oracle.RunDispatch(ctx, tasks, opts, observe, nil)
}

// indexCosts are the costs the synthetic runs' sample of n draws from the
// table, in index order.
func indexCosts(t *testing.T, table *costTable, n int) []float64 {
	return runSynthetic(t, nonAborting(table, nil), n, eval.Policy{}, math.Inf(1)).sample
}

// stagedReference is the evaluation as a dispatch per stage computes it on a
// transport that cannot abort: every stage that is dispatched is solved whole,
// the incumbent and eq. 3 are checked behind it.  Under pruning every task's
// cost is capped at the allowance the evaluation starts with; sample is the
// costs that enter the evaluation.
func stagedReference(costs []float64, pol eval.Policy, incumbent, scale float64) (stages, solved int, pruned, early bool, sample []float64) {
	n := len(costs)
	sumBound := math.Inf(1)
	sample = costs
	if pol.Prune && !math.IsInf(incumbent, 1) {
		sumBound = incumbent * float64(n) / scale
		if limit := solver.BudgetForCost(solver.CostPropagations, sumBound).MaxPropagations; limit > 0 {
			sample = make([]float64, n)
			for i, c := range costs {
				sample[i] = min(c, float64(limit))
			}
		}
	}
	sum := 0.0
	for _, end := range eval.StagePlan(n, pol.Stages) {
		for _, c := range sample[solved:end] {
			sum += c
		}
		stages, solved = stages+1, end
		if sum > sumBound {
			return stages, solved, true, false, sample[:solved]
		}
		if end < n && end >= 2 {
			mean, sd := meanStdDev(sample[:end])
			if eval.Confident(mean, sd, end, pol.EffectiveGamma(), pol.Epsilon) {
				return stages, solved, false, true, sample[:solved]
			}
		}
	}
	return stages, solved, false, false, sample[:solved]
}

func meanStdDev(xs []float64) (mean, sd float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		sd += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(sd / float64(len(xs)-1))
}

// checkOrderInvariance runs one table under one policy and incumbent in index
// order and in every given completion order, on the non-aborting oracle;
// costs are the table's costs of the sample in index order.  In order it must
// be what a dispatch per stage makes of them; in any other order it must be
// the same evaluation, counters and activity, bit for bit.
func checkOrderInvariance(t *testing.T, table *costTable, costs []float64, pol eval.Policy, incumbent float64, orders ...[]int) {
	t.Helper()
	n := len(costs)
	want := runSynthetic(t, nonAborting(table, nil), n, pol, incumbent)
	stages, solved, pruned, early, sample := stagedReference(costs, pol, incumbent, 256)
	ev := want.eval
	if ev.StagesRun != stages || ev.SamplesSolved != solved || ev.SamplesAborted != 0 || ev.Pruned != pruned || ev.EarlyStopped != early {
		t.Fatalf("in order: %d stages, %d solved, %d aborted, pruned %v, early stop %v; a dispatch per stage gives %d, %d, 0, %v, %v (incumbent %v, %+v)",
			ev.StagesRun, ev.SamplesSolved, ev.SamplesAborted, ev.Pruned, ev.EarlyStopped, stages, solved, pruned, early, incumbent, pol)
	}
	if !slices.Equal(want.sample, sample) || want.events != solved {
		t.Fatalf("in order: the sample %v is not %v, or %d events are not one a sample", want.sample, sample, want.events)
	}
	c := want.counters
	if c.SamplesPlanned != n || c.SubproblemsSolved != solved || c.SubproblemsAborted != 0 || c.SamplesSkipped != n-solved {
		t.Fatalf("in order: ledger %+v, want %d planned = %d solved + %d skipped", c, n, solved, n-solved)
	}
	for _, order := range orders {
		got := runSynthetic(t, nonAborting(table, order), n, pol, incumbent)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("completion order %v changed the evaluation (incumbent %v, %+v):\n got %+v\nwant %+v", order, incumbent, pol, got, want)
		}
	}
}

// heavyTailed draws n costs as the benchmark's subproblems have them: most
// near a few hundred, one in eight ten to a hundred times that.
func heavyTailed(rng *rand.Rand, n int) []float64 {
	costs := make([]float64, n)
	for i := range costs {
		costs[i] = float64(200 + rng.Intn(200))
		if rng.Intn(8) == 0 {
			costs[i] *= float64(10 + rng.Intn(90))
		}
	}
	return costs
}

// incumbentsFor returns bounds that prune a sample nowhere, late, early and
// at once.
func incumbentsFor(costs []float64) []float64 {
	sum := 0.0
	for _, c := range costs {
		sum += c
	}
	f := 256 * sum / float64(len(costs))
	return []float64{math.Inf(1), 2 * f, 0.9 * f, 0.3 * f, 1e-9}
}

// TestStageCheckpointsIgnoreCompletionOrder: the stage checkpoints are taken
// on index prefixes, so an evaluation is a function of its costs — not of the
// order its one batch completes in, index 0 last included.
func TestStageCheckpointsIgnoreCompletionOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	heavy := syntheticTable(heavyTailed(rng, 256), 3, 77, 200)
	flat := syntheticTable(slices.Repeat([]float64{300}, 256), 3, 77, 200) // eq. 3 is met at the first checkpoint
	for _, n := range []int{2, 7, 24, 100} {
		reversed := make([]int, n)
		zeroLast := make([]int, n)
		for i := range reversed {
			reversed[i] = n - 1 - i
			zeroLast[i] = (i + 1) % n
		}
		for _, table := range []*costTable{heavy, flat} {
			costs := indexCosts(t, table, n)
			for _, stages := range []int{0, 2, 3, 5} {
				for _, eps := range []float64{0, 0.1, 10} {
					for _, incumbent := range incumbentsFor(costs) {
						pol := eval.Policy{Prune: true, Stages: stages, Epsilon: eps}
						checkOrderInvariance(t, table, costs, pol, incumbent, reversed, zeroLast, rng.Perm(n), rng.Perm(n))
					}
				}
			}
		}
	}
}

// FuzzStageCheckpoints is the same over random cost tables, sample sizes,
// stage counts, incumbents and permutations.
func FuzzStageCheckpoints(f *testing.F) {
	f.Add(int64(1), uint8(100), uint8(3), uint8(2), uint8(1))
	f.Add(int64(2), uint8(25), uint8(4), uint8(0), uint8(2))
	f.Add(int64(3), uint8(2), uint8(0), uint8(4), uint8(0))
	f.Add(int64(4), uint8(61), uint8(9), uint8(3), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, n, stages, bound, eps uint8) {
		if n < 1 {
			n = 1
		}
		rng := rand.New(rand.NewSource(seed))
		table := syntheticTable(heavyTailed(rng, 256))
		costs := indexCosts(t, table, int(n))
		incumbents := incumbentsFor(costs)
		pol := eval.Policy{Prune: true, Stages: int(stages % 12), Epsilon: []float64{0, 0.1, 10}[eps%3]}
		zeroLast := rng.Perm(int(n))
		at := slices.Index(zeroLast, 0)
		zeroLast[at], zeroLast[n-1] = zeroLast[n-1], 0
		checkOrderInvariance(t, table, costs, pol, incumbents[int(bound)%len(incumbents)], rng.Perm(int(n)), zeroLast)
	})
}

// TestOneBatchPerEvaluation: under the default policy an evaluation is one
// call of the transport, whether it solves its whole sample, stops at the
// first checkpoint or is pruned.
func TestOneBatchPerEvaluation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	heavy := syntheticTable(heavyTailed(rng, 256))
	flat := syntheticTable(slices.Repeat([]float64{300}, 256))
	for name, tc := range map[string]struct {
		table     *costTable
		incumbent float64
		check     func(eval.Evaluation) bool
	}{
		"whole sample": {heavy, math.Inf(1), func(ev eval.Evaluation) bool { return ev.StagesRun == 3 && !ev.Pruned && !ev.EarlyStopped }},
		"early stop":   {flat, math.Inf(1), func(ev eval.Evaluation) bool { return ev.StagesRun == 1 && ev.EarlyStopped }},
		"pruned":       {heavy, incumbentsFor(indexCosts(t, heavy, 100))[3], func(ev eval.Evaluation) bool { return ev.Pruned }},
	} {
		o := newOracle(tc.table)
		out := runSynthetic(t, o, 100, eval.DefaultPolicy(), tc.incumbent)
		if !tc.check(out.eval) {
			t.Errorf("%s: the evaluation is not that: %+v", name, out.eval)
		}
		if calls := o.calls.Load(); calls != 1 {
			t.Errorf("%s: %d batches for one evaluation, want 1", name, calls)
		}
	}
}

// TestEvaluationTablesStartEmpty: an evaluation's cost and sampled tables are
// the runner's, last written by the evaluation before.  One that is cancelled
// before two of its results are in reads its sample off them, and must find
// its own results only.
func TestEvaluationTablesStartEmpty(t *testing.T) {
	f, p := syntheticFormula()
	costs := make([]float64, 256)
	for m := range costs {
		costs[m] = float64(300 + m)
	}
	o := newOracle(syntheticTable(costs))
	r := NewRunner(f, Config{SampleSize: 8, Seed: 5, CostMetric: solver.CostPropagations, Transport: o})
	if _, err := r.EvaluatePoint(context.Background(), p); err != nil { // every entry sampled
		t.Fatal(err)
	}
	// Cancelled after six results, the second evaluation leaves the last two
	// of its completion order, tasks 2 and 5, unanswered.
	o.order = []int{0, 1, 3, 4, 6, 7, 2, 5}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	own := make([]float64, 8)
	pe, err := r.EvaluatePointBudgeted(ctx, p, eval.Policy{}, math.Inf(1), func(pr Progress) {
		own[pr.Result.Index] = pr.Result.Cost
		if pr.Done == 6 {
			cancel()
		}
	})
	if !cluster.IsInterruption(err) {
		t.Fatalf("a cancelled evaluation returned %v", err)
	}
	want := []float64{own[0], own[1], own[3], own[4], own[6], own[7]}
	if got := pe.Sample.Values(); !slices.Equal(got, want) || pe.SamplesAborted != 2 {
		t.Fatalf("sample %v with %d aborted, want %v with 2", got, pe.SamplesAborted, want)
	}
}
