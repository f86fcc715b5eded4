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

// scriptedTransport answers the tasks of a batch from a cost table instead of
// solving them, in a chosen completion order: task i costs costs[i]
// propagations, is satisfiable where sat says so and bumps two variables that
// depend on i.  It observes in flight and cannot abort, so every task of a
// batch is answered whatever the observer decided.  The activity vector of a
// result is lent for the observer's call and overwritten after it, as the
// real transports' is.
type scriptedTransport struct {
	numVars int
	costs   []float64
	sat     []bool
	// order is the completion order, order[k] the index of the k-th result;
	// nil completes in index order.
	order []int
	// cut marks the tasks whose solve a cancellation cuts short.
	cut []bool
	// calls counts the batches.
	calls int
}

func (s *scriptedTransport) Workers() int { return 1 }
func (s *scriptedTransport) Close() error { return nil }

func (s *scriptedTransport) Run(ctx context.Context, tasks []cluster.Task, opts cluster.BatchOptions) ([]cluster.TaskResult, error) {
	return s.RunObserved(ctx, tasks, opts, nil)
}

func (s *scriptedTransport) RunObserved(ctx context.Context, tasks []cluster.Task, opts cluster.BatchOptions, observe func(cluster.TaskResult)) ([]cluster.TaskResult, error) {
	s.calls++
	lent := solver.SparseActivities{Vars: make([]cnf.Var, 2), Acts: make([]float64, 2)}
	results := make([]cluster.TaskResult, 0, len(tasks))
	for k := range tasks {
		i := k
		if s.order != nil {
			i = s.order[k]
		}
		res := cluster.TaskResult{
			Index: i, Cost: s.costs[i], Status: solver.Unsat, Started: true,
			Stats: solver.Stats{Propagations: uint64(s.costs[i]), Conflicts: uint64(i % 3)},
		}
		if s.sat != nil && s.sat[i] {
			res.Status = solver.Sat
		}
		if s.cut != nil && s.cut[i] {
			res.Status, res.Interrupted, res.Cancelled = solver.Unknown, true, true
		}
		results = append(results, res)
		if observe != nil {
			lent.Vars[0], lent.Vars[1] = cnf.Var(1+i%s.numVars), cnf.Var(1+(i/3)%s.numVars)
			lent.Acts[0], lent.Acts[1] = float64(1+i%5), 1
			res.Activity = lent
			observe(res)
			lent.Vars[0], lent.Vars[1], lent.Acts[0], lent.Acts[1] = 1, 1, 1e9, 1e9
		}
	}
	return results, ctx.Err()
}

// scriptedFormula is what the scripted runs are "about": the transport never
// looks at it, the runner draws its sample of assumptions from it.
func scriptedFormula() (*cnf.Formula, decomp.Point) {
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

// scriptedOutcome is everything one scripted evaluation leaves behind.
type scriptedOutcome struct {
	eval     eval.Evaluation
	sample   []float64
	counters Counters
	activity []float64
	events   int
}

// runScripted evaluates once in a fresh scope over the scripted transport.
func runScripted(t *testing.T, tr *scriptedTransport, pol eval.Policy, incumbent float64) scriptedOutcome {
	t.Helper()
	f, p := scriptedFormula()
	tr.numVars = f.NumVars
	r := NewRunner(f, Config{SampleSize: len(tr.costs), Seed: 5, CostMetric: solver.CostPropagations, Transport: tr})
	sc := r.NewScope(9)
	events := 0
	pe, err := sc.EvaluatePointBudgeted(context.Background(), p, pol, incumbent, func(pr Progress) {
		events++
		if pr.Done != events || pr.Total != len(tr.costs) {
			t.Errorf("progress %d/%d at event %d of %d samples", pr.Done, pr.Total, events, len(tr.costs))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	out := scriptedOutcome{eval: pe.Evaluation(), sample: pe.Sample.Values(), counters: sc.Counters(), events: events}
	out.eval.WallTime = 0
	for v := 0; v <= f.NumVars; v++ {
		out.activity = append(out.activity, sc.VarActivity(cnf.Var(v)))
	}
	if got := r.Counters(); got != out.counters {
		t.Errorf("the runner's table %+v is not its only scope's %+v", got, out.counters)
	}
	return out
}

// stagedReference is the evaluation as a dispatch per stage computes it on a
// transport that cannot abort: every stage that is dispatched is solved whole,
// the incumbent and eq. 3 are checked behind it.
func stagedReference(costs []float64, pol eval.Policy, incumbent, scale float64) (stages, solved int, pruned, early bool) {
	n := len(costs)
	sumBound := math.Inf(1)
	if pol.Prune && !math.IsInf(incumbent, 1) {
		sumBound = incumbent * float64(n) / scale
	}
	sum := 0.0
	for _, end := range eval.StagePlan(n, pol.Stages) {
		for _, c := range costs[solved:end] {
			sum += c
		}
		stages, solved = stages+1, end
		if sum > sumBound {
			return stages, solved, true, false
		}
		if end < n && end >= 2 {
			mean, sd := meanStdDev(costs[:end])
			if eval.Confident(mean, sd, end, pol.EffectiveGamma(), pol.Epsilon) {
				return stages, solved, false, true
			}
		}
	}
	return stages, solved, false, false
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

// checkOrderInvariance runs one cost table under one policy and incumbent in
// index order and in every given completion order.  In order it must be what
// a dispatch per stage makes of the table; in any other order it must be the
// same evaluation, counters and activity, bit for bit.
func checkOrderInvariance(t *testing.T, costs []float64, sat []bool, pol eval.Policy, incumbent float64, orders ...[]int) {
	t.Helper()
	want := runScripted(t, &scriptedTransport{costs: costs, sat: sat}, pol, incumbent)
	stages, solved, pruned, early := stagedReference(costs, pol, incumbent, 256)
	ev := want.eval
	if ev.StagesRun != stages || ev.SamplesSolved != solved || ev.SamplesAborted != 0 || ev.Pruned != pruned || ev.EarlyStopped != early {
		t.Fatalf("in order: %d stages, %d solved, %d aborted, pruned %v, early stop %v; a dispatch per stage gives %d, %d, 0, %v, %v (incumbent %v, %+v)",
			ev.StagesRun, ev.SamplesSolved, ev.SamplesAborted, ev.Pruned, ev.EarlyStopped, stages, solved, pruned, early, incumbent, pol)
	}
	if !slices.Equal(want.sample, costs[:solved]) || want.events != solved {
		t.Fatalf("in order: the sample is not the first %d costs, or %d events are not one a sample", solved, want.events)
	}
	c := want.counters
	if c.SamplesPlanned != len(costs) || c.SubproblemsSolved != solved || c.SubproblemsAborted != 0 || c.SamplesSkipped != len(costs)-solved {
		t.Fatalf("in order: ledger %+v, want %d planned = %d solved + %d skipped", c, len(costs), solved, len(costs)-solved)
	}
	for _, order := range orders {
		got := runScripted(t, &scriptedTransport{costs: costs, sat: sat, order: order}, pol, incumbent)
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

// incumbentsFor returns bounds that prune a table nowhere, late, early and at
// once.
func incumbentsFor(costs []float64) []float64 {
	sum := 0.0
	for _, c := range costs {
		sum += c
	}
	f := 256 * sum / float64(len(costs))
	return []float64{math.Inf(1), 2 * f, 0.9 * f, 0.3 * f, 1e-9}
}

// TestStageCheckpointsIgnoreCompletionOrder: the stage checkpoints are taken
// on index prefixes, so an evaluation is a function of its cost table — not
// of the order its one batch completes in, index 0 last included.
func TestStageCheckpointsIgnoreCompletionOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, n := range []int{2, 7, 24, 100} {
		costs := heavyTailed(rng, n)
		flat := slices.Repeat([]float64{300}, n) // eq. 3 is met at the first checkpoint
		sat := make([]bool, n)
		sat[n/2], sat[n-1] = true, true
		reversed := make([]int, n)
		zeroLast := make([]int, n)
		for i := range reversed {
			reversed[i] = n - 1 - i
			zeroLast[i] = (i + 1) % n
		}
		for _, table := range [][]float64{costs, flat} {
			for _, stages := range []int{0, 2, 3, 5} {
				for _, eps := range []float64{0, 0.1, 10} {
					for _, incumbent := range incumbentsFor(table) {
						pol := eval.Policy{Prune: true, Stages: stages, Epsilon: eps}
						checkOrderInvariance(t, table, sat, pol, incumbent, reversed, zeroLast, rng.Perm(n), rng.Perm(n))
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
		costs := heavyTailed(rng, int(n))
		incumbents := incumbentsFor(costs)
		pol := eval.Policy{Prune: true, Stages: int(stages % 12), Epsilon: []float64{0, 0.1, 10}[eps%3]}
		zeroLast := rng.Perm(int(n))
		at := slices.Index(zeroLast, 0)
		zeroLast[at], zeroLast[n-1] = zeroLast[n-1], 0
		checkOrderInvariance(t, costs, nil, pol, incumbents[int(bound)%len(incumbents)], rng.Perm(int(n)), zeroLast)
	})
}

// TestOneBatchPerEvaluation: under the default policy an evaluation is one
// call of the transport, whether it solves its whole sample, stops at the
// first checkpoint or is pruned.
func TestOneBatchPerEvaluation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	costs := heavyTailed(rng, 100)
	flat := slices.Repeat([]float64{300}, 100)
	for name, tc := range map[string]struct {
		costs     []float64
		incumbent float64
		check     func(eval.Evaluation) bool
	}{
		"whole sample": {costs, math.Inf(1), func(ev eval.Evaluation) bool { return ev.StagesRun == 3 && !ev.Pruned && !ev.EarlyStopped }},
		"early stop":   {flat, math.Inf(1), func(ev eval.Evaluation) bool { return ev.StagesRun == 1 && ev.EarlyStopped }},
		"pruned":       {costs, incumbentsFor(costs)[3], func(ev eval.Evaluation) bool { return ev.Pruned }},
	} {
		tr := &scriptedTransport{costs: tc.costs}
		out := runScripted(t, tr, eval.DefaultPolicy(), tc.incumbent)
		if !tc.check(out.eval) {
			t.Errorf("%s: the evaluation is not that: %+v", name, out.eval)
		}
		if tr.calls != 1 {
			t.Errorf("%s: %d batches for one evaluation, want 1", name, tr.calls)
		}
	}
}

// TestEvaluationTablesStartEmpty: an evaluation's cost and sampled tables are
// the runner's, last written by the evaluation before.  One with a result cut
// short reads its sample off them, and must find its own results only.
func TestEvaluationTablesStartEmpty(t *testing.T) {
	f, p := scriptedFormula()
	costs := []float64{300, 310, 320, 330, 340, 350, 360, 370}
	tr := &scriptedTransport{numVars: f.NumVars, costs: costs}
	r := NewRunner(f, Config{SampleSize: len(costs), Seed: 5, CostMetric: solver.CostPropagations, Transport: tr})
	if _, err := r.EvaluatePoint(context.Background(), p); err != nil { // every entry sampled
		t.Fatal(err)
	}
	tr.cut = make([]bool, len(costs))
	tr.cut[2], tr.cut[5] = true, true
	pe, err := r.EvaluatePoint(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{300, 310, 330, 340, 360, 370}
	if got := pe.Sample.Values(); !slices.Equal(got, want) || pe.SamplesAborted != 2 {
		t.Fatalf("sample %v with %d aborted, want %v with 2", got, pe.SamplesAborted, want)
	}
}
