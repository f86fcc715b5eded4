package pdsat

import (
	"context"
	"math"
	"testing"

	"github.com/paper-repro/pdsat-go/internal/cnf"
	"github.com/paper-repro/pdsat-go/internal/decomp"
	"github.com/paper-repro/pdsat-go/internal/eval"
	"github.com/paper-repro/pdsat-go/internal/optimize"
	"github.com/paper-repro/pdsat-go/internal/solver"
)

// evalTestConfig is the fixed-seed configuration shared by the regression
// tests of the budget-aware evaluation engine.
func evalTestConfig(pol eval.Policy) Config {
	return Config{
		SampleSize: 24,
		Workers:    2,
		Seed:       3,
		CostMetric: solver.CostPropagations,
		Policy:     pol,
	}
}

// legacyActivityObjective is a search objective over a runner that bypasses
// the evaluation engine: every EvaluateF is the runner's plain EvaluatePoint
// (one full batch on the next slot, the incumbent ignored),
// pinning the pre-engine evaluation path so the tests below can compare the
// engine pipeline against it.  It forwards conflict activity so the tabu
// search's getNewCenter heuristic behaves identically on both paths.
type legacyActivityObjective struct{ r *Runner }

func (o legacyActivityObjective) EvaluateF(ctx context.Context, p decomp.Point, _ float64) (*eval.Evaluation, error) {
	est, err := o.r.EvaluatePoint(ctx, p)
	if err != nil {
		return nil, err
	}
	return &eval.Evaluation{Value: est.Estimate.Value}, nil
}

// objectiveOf is the search objective of a runner on its own: the engine over
// its default scope under its configured policy, no cache, nobody watching,
// and the runner's roll-up activity.
func objectiveOf(r *Runner) *Objective { return NewObjective(r.Scope, r, r.cfg.Policy, nil, nil) }

func (o legacyActivityObjective) VarActivity(v cnf.Var) float64 { return o.r.VarActivity(v) }

// TestEvalPolicyDisabledBitIdenticalEstimate checks the tentpole's central
// regression guarantee at the single-evaluation level: with pruning and
// staging disabled (the zero policy) the budget-aware path reproduces the
// classic full-sample evaluation bit for bit — F value, every raw sample
// cost, conflict activities and aggregate solver statistics.
func TestEvalPolicyDisabledBitIdenticalEstimate(t *testing.T) {
	inst := weakBivium(t, 167, 60, 21)
	space := unknownSpace(inst)
	p := space.FullPoint()

	classic := NewRunner(inst.CNF, evalTestConfig(eval.Policy{}))
	want, err := classic.EvaluatePoint(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}

	budgeted := NewRunner(inst.CNF, evalTestConfig(eval.Policy{}))
	got, err := budgeted.EvaluatePointBudgeted(context.Background(), p, eval.Policy{}, math.Inf(1), nil)
	if err != nil {
		t.Fatal(err)
	}

	if got.Estimate != want.Estimate {
		t.Fatalf("estimate differs: got %+v, want %+v", got.Estimate, want.Estimate)
	}
	gv, wv := got.Sample.Values(), want.Sample.Values()
	if len(gv) != len(wv) {
		t.Fatalf("sample sizes differ: %d vs %d", len(gv), len(wv))
	}
	for i := range gv {
		if gv[i] != wv[i] {
			t.Fatalf("sample %d differs: %v vs %v", i, gv[i], wv[i])
		}
	}
	if got.Pruned || got.EarlyStopped || got.StagesRun != 1 {
		t.Fatalf("zero policy must run exactly one full stage: %+v", got)
	}
	if got.SamplesAborted != 0 {
		t.Fatalf("zero policy aborted %d samples", got.SamplesAborted)
	}
	for v := 1; v <= inst.CNF.NumVars; v++ {
		if a, b := classic.VarActivity(cnf.Var(v)), budgeted.VarActivity(cnf.Var(v)); a != b {
			t.Fatalf("conflict activity of %d differs: %v vs %v", v, a, b)
		}
	}
	ca, ba := classic.AggregateStats(), budgeted.AggregateStats()
	ca.SolveTime, ba.SolveTime = 0, 0 // wall clock is not bit-comparable
	if ca != ba {
		t.Fatalf("aggregate stats differ:\n%+v\n%+v", ca, ba)
	}
	if classic.SubproblemsSolved() != budgeted.SubproblemsSolved() {
		t.Fatalf("solved counts differ: %d vs %d", classic.SubproblemsSolved(), budgeted.SubproblemsSolved())
	}
}

// TestEvalPolicyDisabledBitIdenticalSearch is the CI regression gate for
// the pruning-off path: a fixed-seed tabu search driven through the new
// eval.Evaluator plumbing with the zero policy must reproduce the legacy
// bare-Objective search exactly — same best point, same best F, same trace
// values, same conflict activities and solved-subproblem counts.
func TestEvalPolicyDisabledBitIdenticalSearch(t *testing.T) {
	inst := weakBivium(t, 167, 60, 21)
	space := unknownSpace(inst)
	opts := optimize.Options{Seed: 5, MaxEvaluations: 25}

	legacy := NewRunner(inst.CNF, evalTestConfig(eval.Policy{}))
	want, err := optimize.TabuSearch(context.Background(), legacyActivityObjective{legacy}, space.FullPoint(), opts)
	if err != nil {
		t.Fatal(err)
	}

	// This search runs through the budget-aware engine (with everything
	// disabled).
	engine := NewRunner(inst.CNF, evalTestConfig(eval.Policy{}))
	got, err := optimize.TabuSearch(context.Background(), objectiveOf(engine), space.FullPoint(), opts)
	if err != nil {
		t.Fatal(err)
	}

	if got.BestValue != want.BestValue {
		t.Fatalf("best F differs: %v vs %v", got.BestValue, want.BestValue)
	}
	if !got.BestPoint.Equal(want.BestPoint) {
		t.Fatalf("best point differs: %v vs %v", got.BestPoint, want.BestPoint)
	}
	if got.Evaluations != want.Evaluations {
		t.Fatalf("evaluation counts differ: %d vs %d", got.Evaluations, want.Evaluations)
	}
	if len(got.Trace) != len(want.Trace) {
		t.Fatalf("trace lengths differ: %d vs %d", len(got.Trace), len(want.Trace))
	}
	for i := range got.Trace {
		g, w := got.Trace[i], want.Trace[i]
		if g.Value != w.Value || !g.Point.Equal(w.Point) || g.Improved != w.Improved || g.Pruned {
			t.Fatalf("trace visit %d differs: %+v vs %+v", i, g, w)
		}
	}
	for _, v := range inst.UnknownStartVars() {
		if a, b := legacy.VarActivity(v), engine.VarActivity(v); a != b {
			t.Fatalf("conflict activity of %d differs: %v vs %v", v, a, b)
		}
	}
	if legacy.SubproblemsSolved() != engine.SubproblemsSolved() {
		t.Fatalf("solved counts differ: %d vs %d", legacy.SubproblemsSolved(), engine.SubproblemsSolved())
	}
	if engine.PrunedEvaluations() != 0 || engine.SubproblemsAborted() != 0 {
		t.Fatalf("zero policy pruned %d evaluations / aborted %d subproblems",
			engine.PrunedEvaluations(), engine.SubproblemsAborted())
	}
}

// TestPruningAndStagingSaveSubproblems is the behavioural headline of the
// engine: on the weakened-Bivium tabu search the default policy must cut
// the number of solved subproblems by a large margin (the acceptance bar is
// ≥30%) while finding the same best F as the exhaustive path — on this
// fixed seed the best F is identical.
func TestPruningAndStagingSaveSubproblems(t *testing.T) {
	inst := weakBivium(t, 160, 200, 7)
	space := unknownSpace(inst)
	opts := optimize.Options{Seed: 5, MaxEvaluations: 40}

	run := func(pol eval.Policy) (float64, int) {
		r := NewRunner(inst.CNF, Config{
			SampleSize: 30,
			Workers:    2,
			Seed:       3,
			CostMetric: solver.CostPropagations,
			Policy:     pol,
		})
		res, err := optimize.TabuSearch(context.Background(), objectiveOf(r), space.FullPoint(), opts)
		if err != nil {
			t.Fatal(err)
		}
		return res.BestValue, r.SubproblemsSolved()
	}

	bestOff, solvedOff := run(eval.Policy{})
	bestOn, solvedOn := run(eval.DefaultPolicy())
	t.Logf("subproblems solved: %d without policy, %d with defaults (best F %g vs %g)",
		solvedOff, solvedOn, bestOff, bestOn)
	if bestOn != bestOff {
		t.Fatalf("best F changed under the default policy: %v vs %v", bestOn, bestOff)
	}
	if float64(solvedOn) > 0.7*float64(solvedOff) {
		t.Fatalf("default policy saved too little: %d of %d subproblems solved (want ≤70%%)",
			solvedOn, solvedOff)
	}
}

// TestSolveReportCountsAborted checks the solving-mode accounting: a
// stop-on-SAT family run reports the subproblems it cut short.
func TestSolveReportCountsAborted(t *testing.T) {
	inst := weakBivium(t, 172, 60, 21)
	space := unknownSpace(inst)
	r := NewRunner(inst.CNF, Config{Workers: 2, Seed: 3, CostMetric: solver.CostPropagations})
	report, err := r.Solve(context.Background(), space.FullPoint(), SolveOptions{StopOnSat: true})
	if err != nil {
		t.Fatal(err)
	}
	if !report.FoundSat {
		t.Fatal("weakened instance must contain its key")
	}
	if report.SubproblemsAborted != r.SubproblemsAborted() {
		t.Fatalf("report aborted %d, runner counted %d", report.SubproblemsAborted, r.SubproblemsAborted())
	}
	if report.Processed == 0 {
		t.Fatal("no subproblem processed")
	}
}
