package pdsat

import (
	"context"
	"fmt"
	"testing"

	"github.com/paper-repro/pdsat-go/internal/cluster"
	"github.com/paper-repro/pdsat-go/internal/decomp"
	"github.com/paper-repro/pdsat-go/internal/encoder"
	"github.com/paper-repro/pdsat-go/internal/solver"
)

// TestEvaluatePointUnaffectedBySolverReuse is the runner-level counterpart
// of solver.TestResetEquivalentToFresh: because every worker restores its
// persistent solver to the pristine state before each subproblem, the
// estimate of a point must not depend on how many subproblems the runner's
// pooled solvers have processed before (here: many evaluations and a whole
// family solve on one runner vs. a fresh runner per evaluation).
func TestEvaluatePointUnaffectedBySolverReuse(t *testing.T) {
	inst, err := encoder.NewInstance(encoder.A51(), encoder.Config{
		KeystreamLen: 40, KnownSuffix: 44, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	space := unknownSpace(inst)
	p, err := space.PointFromVars(space.Vars()[:8])
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{SampleSize: 12, Workers: 3, Seed: 7, CostMetric: solver.CostConflicts}

	// Reference: a fresh runner (hence freshly built solvers) per evaluation
	// index.
	want := make([]float64, 3)
	for i := range want {
		r := NewRunner(inst.CNF, cfg)
		for j := 0; j <= i; j++ {
			est, err := r.EvaluatePoint(context.Background(), p)
			if err != nil {
				t.Fatal(err)
			}
			if j == i {
				want[j] = est.Estimate.Value
			}
		}
	}

	// One long-lived runner whose pooled solvers accumulate history: the
	// same three evaluations, interleaved with a full family solve.
	r := NewRunner(inst.CNF, cfg)
	for i := range want {
		est, err := r.EvaluatePoint(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		if est.Estimate.Value != want[i] {
			t.Fatalf("evaluation %d: estimate %v differs from fresh-runner value %v",
				i, est.Estimate.Value, want[i])
		}
		if i == 0 {
			if _, err := r.Solve(context.Background(), p, SolveOptions{}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestSolveRetainLearnedFindsSameAnswer checks that solving mode with
// learned-clause retention reaches the same conclusion (secret found, model
// valid) as the default pristine mode, and that the accounting fields stay
// consistent.
func TestSolveRetainLearnedFindsSameAnswer(t *testing.T) {
	inst := weakBivium(t, 167, 60, 41)
	space := unknownSpace(inst)

	pristine := NewRunner(inst.CNF, Config{SampleSize: 4, Workers: 2, Seed: 1, CostMetric: solver.CostPropagations})
	base, err := pristine.Solve(context.Background(), space.FullPoint(), SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}

	cfg := Config{SampleSize: 4, Workers: 2, Seed: 1, CostMetric: solver.CostPropagations, RetainLearned: true}
	r := NewRunner(inst.CNF, cfg)
	report, err := r.Solve(context.Background(), space.FullPoint(), SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !report.FoundSat {
		t.Fatal("retain-learned solve must still find the secret")
	}
	if report.SatIndex != base.SatIndex {
		t.Fatalf("first satisfiable subproblem moved: %d vs %d", report.SatIndex, base.SatIndex)
	}
	if report.Processed != base.Processed {
		t.Fatalf("processed %d vs %d subproblems", report.Processed, base.Processed)
	}
	ok, err := inst.CheckRecoveredState(encoder.Bivium(), report.Model)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("recovered state does not reproduce the keystream")
	}
	if report.TotalCost <= 0 {
		t.Fatal("retained-mode costs must still include the construction baseline")
	}
}

// TestAggregateStats checks the per-worker stats aggregation: the runner's
// aggregate must equal the sum of per-subproblem lifetime efforts, i.e. the
// cost metric applied to it must match the summed sample costs.
func TestAggregateStats(t *testing.T) {
	inst := weakBivium(t, 168, 50, 9)
	space := unknownSpace(inst)
	r := NewRunner(inst.CNF, Config{SampleSize: 8, Workers: 2, Seed: 7, CostMetric: solver.CostPropagations})
	est, err := r.EvaluatePoint(context.Background(), space.FullPoint())
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range est.Sample.Values() {
		sum += v
	}
	agg := r.AggregateStats()
	if got := float64(agg.Propagations); got != sum {
		t.Fatalf("aggregate propagations %v != summed sample costs %v", got, sum)
	}
	if agg.SolveTime <= 0 {
		t.Fatal("aggregate solve time should be positive")
	}
}

// TestRetainModeActivityNotDoubleCounted checks the per-task activity
// attribution when a retained solver outlives both tasks and runs: with one
// worker the pooled solver runs the family twice in enumeration order, and
// the activity absorbed by the runner must equal, variable for variable, one
// harvest after the same solves on a twin solver — if a task's harvest took
// more than its own bumps, a residue of an earlier task or run would be
// counted twice.
func TestRetainModeActivityNotDoubleCounted(t *testing.T) {
	inst, err := encoder.NewInstance(encoder.A51(), encoder.Config{
		KeystreamLen: 40, KnownSuffix: 44, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	space := unknownSpace(inst)
	p, err := space.PointFromVars(space.Vars()[:8])
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(inst.CNF, Config{SampleSize: 4, Workers: 1, Seed: 3, RetainLearned: true})
	twin := solver.New(inst.CNF, solver.DefaultOptions())
	fam := decomp.FamilyOf(inst.CNF, p)
	for i := 0; i < 2; i++ {
		if _, err := r.Solve(context.Background(), p, SolveOptions{}); err != nil {
			t.Fatal(err)
		}
		for m := uint64(0); m < 1<<p.Count(); m++ {
			twin.SolveWithAssumptions(fam.AssumptionsFor(m))
		}
	}
	want := make([]float64, inst.CNF.NumVars+1)
	h := twin.AppendConflictActivities(solver.SparseActivities{})
	for i, v := range h.Vars {
		want[v] = h.Acts[i]
	}
	if len(h.Vars) == 0 {
		t.Fatal("expected some conflict activity on this instance")
	}
	for v := range want {
		if r.confAct[v] != want[v] {
			t.Fatalf("absorbed activity of %d is %v, one harvest after the same solves %v (double counting)",
				v, r.confAct[v], want[v])
		}
	}
}

// TestSolverPoolIsBounded checks that the pool never holds more solvers than
// the configured worker count (workers return their solver when done).
func TestSolverPoolIsBounded(t *testing.T) {
	inst := weakBivium(t, 168, 50, 9)
	space := unknownSpace(inst)
	r := NewRunner(inst.CNF, Config{SampleSize: 16, Workers: 3, Seed: 2})
	for i := 0; i < 3; i++ {
		if _, err := r.EvaluatePoint(context.Background(), space.FullPoint()); err != nil {
			t.Fatal(err)
		}
	}
	n := r.Transport().(*cluster.Inproc).PoolSize()
	if n == 0 || n > 3 {
		t.Fatalf("pool holds %d solvers, want 1..3", n)
	}
}

// a51SolveFamily builds the shape of the a51-solve workload for one secret:
// A5/1 with 96 keystream bits and the last 38 state bits known, and the
// family of the last 8 unknown start variables (256 members).
func a51SolveFamily(b *testing.B, secret int64) (*encoder.Instance, decomp.Point) {
	inst, err := encoder.NewInstance(encoder.A51(), encoder.Config{KeystreamLen: 96, KnownSuffix: 38, Seed: secret})
	if err != nil {
		b.Fatal(err)
	}
	space := unknownSpace(inst)
	vars := space.Vars()
	p, err := space.PointFromVars(vars[len(vars)-8:])
	if err != nil {
		b.Fatal(err)
	}
	return inst, p
}

// benchFamilySolve solves the family whole once per op, by 2 in-process
// workers on a fresh runner, and reports the propagations it spent.
func benchFamilySolve(b *testing.B, inst *encoder.Instance, p decomp.Point, cfg Config) {
	cfg.SampleSize, cfg.Workers, cfg.Seed, cfg.CostMetric = 1, 2, 1, solver.CostPropagations
	var props float64
	for range b.N {
		report, err := NewRunner(inst.CNF, cfg).Solve(context.Background(), p, SolveOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if !report.FoundSat || report.Processed != 256 {
			b.Fatalf("solved %d of 256 members, sat %v", report.Processed, report.FoundSat)
		}
		props += report.TotalCost
	}
	b.ReportMetric(props/float64(b.N), "props/op")
}

// BenchmarkSolveRetainLearned measures what learned-clause retention buys
// the solving mode, on the shape of the a51-solve workload (a51SolveFamily).
// Secret 1007 is the workload's first; secret 7 has a few members that cost a
// hundred times the median.  Each op solves the family once on a fresh
// runner, pristine or retained, and reports the propagations it spent.
//
//	go test -run '^$' -bench BenchmarkSolveRetainLearned -benchtime 3x ./internal/pdsat
func BenchmarkSolveRetainLearned(b *testing.B) {
	for _, secret := range []int64{1007, 7} {
		inst, p := a51SolveFamily(b, secret)
		for _, retain := range []bool{false, true} {
			name := fmt.Sprintf("secret-%d/pristine", secret)
			if retain {
				name = fmt.Sprintf("secret-%d/retained", secret)
			}
			b.Run(name, func(b *testing.B) {
				benchFamilySolve(b, inst, p, Config{RetainLearned: retain})
			})
		}
	}
}

// BenchmarkSolverOptionPanel is the panel of solver options behind ROADMAP
// item 8 (taming the tail): the family solve of BenchmarkSolveRetainLearned,
// pristine, under the default options and under each variant a
// solver.Options field can express, for the secrets 1007, 2007, 3007 and
// 4007, whose families hold no member that costs a hundred times the median,
// and secret 7, whose family does.  A Runner always solves with
// solver.DefaultOptions, so each variant reaches it through an in-process
// transport of two workers built with those options.  Each op reports the
// propagations of one family solve.  The counts are deterministic; in millions, with the sum over
// the four monster-free secrets:
//
//	options               1007   2007   3007   4007      7   1007-4007
//	default               18.9   19.5   19.0   14.2   66.7        71.7
//	restart-base-50       19.6   19.4   19.1   14.0   66.0        72.2
//	restart-base-200      18.6   19.1   45.3   14.3  149.0        97.2
//	restart-base-400      18.0   18.9   18.2   14.2  166.9        69.3
//	no-phase-saving       36.4   16.2   35.6   13.2   83.1       101.4
//	no-minimization       36.0   19.8   35.5   14.3   84.6       105.5
//	var-decay-0.8         28.8   18.3   43.5   14.0   88.5       104.6
//	var-decay-0.9         30.0   19.7   50.7   14.2  107.0       114.7
//	default-phase-true    20.1   19.2   44.0   14.9   51.4        98.2
//
// No variant lowers every secret.  Restart base 400 lowers the monster-free
// sum by 3% and costs 2.5x on secret 7.  A true default phase is the one
// variant that lowers secret 7 by more than 1%, and it costs 2.3x on secret
// 3007.  Branching on the start variables first, which no option expresses,
// was tried outside the panel and raised the monster-free sum.  The panel
// takes about five minutes on two cores:
//
//	go test -run '^$' -bench BenchmarkSolverOptionPanel -benchtime 1x ./internal/pdsat
func BenchmarkSolverOptionPanel(b *testing.B) {
	variants := []struct {
		name string
		set  func(*solver.Options)
	}{
		{"default", func(*solver.Options) {}},
		{"restart-base-50", func(o *solver.Options) { o.RestartBase = 50 }},
		{"restart-base-200", func(o *solver.Options) { o.RestartBase = 200 }},
		{"restart-base-400", func(o *solver.Options) { o.RestartBase = 400 }},
		{"no-phase-saving", func(o *solver.Options) { o.PhaseSaving = false }},
		{"no-minimization", func(o *solver.Options) { o.MinimizeLearned = false }},
		{"var-decay-0.8", func(o *solver.Options) { o.VarDecay = 0.8 }},
		{"var-decay-0.9", func(o *solver.Options) { o.VarDecay = 0.9 }},
		{"default-phase-true", func(o *solver.Options) { o.DefaultPhase = true }},
	}
	for _, secret := range []int64{1007, 2007, 3007, 4007, 7} {
		inst, p := a51SolveFamily(b, secret)
		for _, v := range variants {
			b.Run(fmt.Sprintf("%s/secret-%d", v.name, secret), func(b *testing.B) {
				opts := solver.DefaultOptions()
				v.set(&opts)
				benchFamilySolve(b, inst, p, Config{Transport: cluster.NewInproc(inst.CNF, 2, opts)})
			})
		}
	}
}
