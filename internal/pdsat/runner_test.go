package pdsat

import (
	"context"
	"math"
	"testing"
	"time"

	"github.com/paper-repro/pdsat-go/internal/cnf"
	"github.com/paper-repro/pdsat-go/internal/decomp"
	"github.com/paper-repro/pdsat-go/internal/encoder"
	"github.com/paper-repro/pdsat-go/internal/montecarlo"
	"github.com/paper-repro/pdsat-go/internal/solver"
)

// weakBivium builds a small weakened Bivium instance suitable for fast tests.
func weakBivium(t testing.TB, known int, ksLen int, seed int64) *encoder.Instance {
	t.Helper()
	inst, err := encoder.NewInstance(encoder.Bivium(), encoder.Config{
		KeystreamLen: ksLen,
		KnownSuffix:  known,
		Seed:         seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func unknownSpace(inst *encoder.Instance) *decomp.Space {
	return decomp.NewSpace(inst.UnknownStartVars())
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.SampleSize <= 0 || cfg.Workers <= 0 {
		t.Fatalf("bad default config: %+v", cfg)
	}
}

func TestNewRunnerFillsZeroFields(t *testing.T) {
	f := cnf.New(3)
	f.AddClauseLits(1, 2, 3)
	r := NewRunner(f, Config{})
	if r.Config().SampleSize <= 0 || r.Config().Workers <= 0 {
		t.Fatalf("zero config not completed: %+v", r.Config())
	}
	if r.Formula() != f {
		t.Fatal("Formula accessor")
	}
}

func TestEvaluatePointProducesEstimate(t *testing.T) {
	inst := weakBivium(t, 167, 60, 21)
	space := unknownSpace(inst)
	r := NewRunner(inst.CNF, Config{SampleSize: 16, Workers: 2, Seed: 3})
	est, err := r.EvaluatePoint(context.Background(), space.FullPoint())
	if err != nil {
		t.Fatal(err)
	}
	if est.Estimate.Dimension != space.Size() {
		t.Fatalf("dimension = %d, want %d", est.Estimate.Dimension, space.Size())
	}
	if est.Estimate.SampleSize != 16 || est.Sample.Len() != 16 {
		t.Fatalf("sample size = %d", est.Estimate.SampleSize)
	}
	if est.Estimate.Value < 0 || math.IsNaN(est.Estimate.Value) {
		t.Fatalf("bad estimate value %v", est.Estimate.Value)
	}
	if est.WallTime <= 0 {
		t.Fatal("wall time should be positive")
	}
	if r.Evaluations() != 1 {
		t.Fatalf("Evaluations = %d", r.Evaluations())
	}
	if r.SubproblemsSolved() != 16 {
		t.Fatalf("SubproblemsSolved = %d", r.SubproblemsSolved())
	}
}

func TestEvaluateEmptyPointFails(t *testing.T) {
	inst := weakBivium(t, 170, 40, 5)
	space := unknownSpace(inst)
	r := NewRunner(inst.CNF, Config{SampleSize: 4, Workers: 1, Seed: 1})
	if _, err := r.EvaluatePoint(context.Background(), space.EmptyPoint()); err == nil {
		t.Fatal("expected error for empty decomposition set")
	}
	if _, err := objectiveOf(r).EvaluateF(context.Background(), space.EmptyPoint(), math.Inf(1)); err == nil {
		t.Fatal("expected error for empty decomposition set")
	}
	if _, err := r.Solve(context.Background(), space.EmptyPoint(), SolveOptions{}); err == nil {
		t.Fatal("expected error for empty decomposition set")
	}
}

func TestEvaluateDeterministicWithConflictCost(t *testing.T) {
	inst := weakBivium(t, 168, 50, 9)
	space := unknownSpace(inst)
	run := func() float64 {
		r := NewRunner(inst.CNF, Config{SampleSize: 12, Workers: 2, Seed: 7, CostMetric: solver.CostConflicts})
		ev, err := objectiveOf(r).EvaluateF(context.Background(), space.FullPoint(), math.Inf(1))
		if err != nil {
			t.Fatal(err)
		}
		return ev.Value
	}
	if v1, v2 := run(), run(); v1 != v2 {
		t.Fatalf("evaluation is not deterministic: %v vs %v", v1, v2)
	}
}

func TestEvaluateIndependentOfVisitOrder(t *testing.T) {
	// The value of a point must not depend on which points were evaluated
	// before it (each evaluation derives its RNG from the evaluation index,
	// so evaluating A,B gives the same sample for A as evaluating A alone —
	// but B's sample differs from A's).  Here we check the weaker, load-
	// bearing property: re-creating the runner and evaluating the same point
	// first always gives the same value.
	inst := weakBivium(t, 169, 40, 13)
	space := unknownSpace(inst)
	p := space.FullPoint()
	q := p.Flip(0)

	r1 := NewRunner(inst.CNF, Config{SampleSize: 10, Workers: 2, Seed: 5})
	v1p, err := objectiveOf(r1).EvaluateF(context.Background(), p, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	r2 := NewRunner(inst.CNF, Config{SampleSize: 10, Workers: 2, Seed: 5})
	v2p, err := objectiveOf(r2).EvaluateF(context.Background(), p, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if v1p.Value != v2p.Value {
		t.Fatalf("first-evaluation values differ: %v vs %v", v1p.Value, v2p.Value)
	}
	if _, err := objectiveOf(r2).EvaluateF(context.Background(), q, math.Inf(1)); err != nil {
		t.Fatal(err)
	}
}

func TestVarActivityAccumulates(t *testing.T) {
	// Suffix-weakened Bivium is decided by unit propagation alone (no
	// conflicts, hence no conflict activity), so use a weakened A5/1
	// instance, whose majority clocking forces real search on wrong guesses.
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
	r := NewRunner(inst.CNF, Config{SampleSize: 10, Workers: 2, Seed: 3})
	if _, err := r.EvaluatePoint(context.Background(), p); err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for v := cnf.Var(1); int(v) <= inst.CNF.NumVars; v++ {
		total += r.VarActivity(v)
	}
	if total <= 0 {
		t.Fatal("conflict activity should accumulate over subproblem solves")
	}
	if r.VarActivity(0) != 0 || r.VarActivity(cnf.Var(inst.CNF.NumVars+5)) != 0 {
		t.Fatal("out-of-range activity should be zero")
	}
}

func TestSolveWholeFamilyFindsSecret(t *testing.T) {
	// Small unknown part (10 variables) so the full 2^10 family can be
	// enumerated; the secret must be found and the model must reproduce the
	// keystream.
	inst := weakBivium(t, 167, 60, 41)
	space := unknownSpace(inst)
	if space.Size() != 10 {
		t.Fatalf("unexpected unknown-space size %d", space.Size())
	}
	r := NewRunner(inst.CNF, Config{SampleSize: 4, Workers: 2, Seed: 1})
	report, err := r.Solve(context.Background(), space.FullPoint(), SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !report.FoundSat {
		t.Fatal("processing the whole family must find the secret")
	}
	if report.Processed != 1024 {
		t.Fatalf("processed = %d, want 1024", report.Processed)
	}
	if report.TotalCost < report.CostToFirstSat {
		t.Fatal("total cost must dominate cost-to-first-SAT")
	}
	if report.SatIndex < 0 {
		t.Fatal("SatIndex should be set")
	}
	ok, err := inst.CheckRecoveredState(encoder.Bivium(), report.Model)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("recovered state does not reproduce the keystream")
	}
	if report.WallTime <= 0 {
		t.Fatal("wall time should be positive")
	}
}

func TestSolveStopOnSat(t *testing.T) {
	inst := weakBivium(t, 168, 60, 43)
	space := unknownSpace(inst)
	r := NewRunner(inst.CNF, Config{SampleSize: 4, Workers: 2, Seed: 1})
	report, err := r.Solve(context.Background(), space.FullPoint(), SolveOptions{StopOnSat: true})
	if err != nil {
		t.Fatal(err)
	}
	if !report.FoundSat {
		t.Fatal("expected to find the secret")
	}
	// Stop-on-SAT may well process fewer subproblems than the whole family.
	if report.Processed > 512 {
		t.Logf("stop-on-sat processed %d of 512 subproblems", report.Processed)
	}
}

// TestCostToFirstSatUnderStopOnSat pins what SolveReport.CostToFirstSat is
// under StopOnSat: on one slot the members are solved in enumeration order,
// so it is exactly the summed cost of the members up to and including the
// first satisfiable one; on more slots a member below it that was cut short
// in flight adds only its truncated cost and one that never started adds
// nothing, so it can only be lower.  CostToFirstSatLowerBound says which:
// it is set exactly when some member below the first satisfiable one ended
// unstarted or cancelled, and when it is not the sum is exact.  (A flagged
// sum may still equal the exact one: a member cancelled as it was about to
// conclude can have spent all of its cost.)
func TestCostToFirstSatUnderStopOnSat(t *testing.T) {
	inst, err := encoder.NewInstance(encoder.A51(), encoder.Config{KeystreamLen: 64, KnownSuffix: 55, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	p := unknownSpace(inst).FullPoint() // 9 unknowns: a family of 512 holding the secret
	cfg := func(workers int) Config {
		return Config{SampleSize: 4, Workers: workers, Seed: 1, CostMetric: solver.CostPropagations}
	}
	costs := make([]float64, 1<<p.Count())
	sats := 0
	full, err := NewRunner(inst.CNF, cfg(1)).SolveObserved(context.Background(), p, SolveOptions{}, func(pr Progress) {
		costs[pr.Result.Index] = pr.Result.Cost
		if pr.Result.Status == solver.Sat {
			sats++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if sats != 1 || full.SatIndex < 1 {
		t.Fatalf("%d satisfiable members, the first at %d; the test needs one, above index 0", sats, full.SatIndex)
	}
	want := 0.0
	for _, c := range costs[:full.SatIndex+1] {
		want += c
	}
	for _, workers := range []int{1, 2, 4} {
		cut := false // a member below the first SAT ended unstarted or cancelled
		got, err := NewRunner(inst.CNF, cfg(workers)).SolveObserved(context.Background(), p, SolveOptions{StopOnSat: true}, func(pr Progress) {
			if res := pr.Result; int64(res.Index) < full.SatIndex && (!res.Started || res.Cancelled) {
				cut = true
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if got.SatIndex != full.SatIndex {
			t.Fatalf("%d workers: first SAT at %d, want %d", workers, got.SatIndex, full.SatIndex)
		}
		switch {
		case workers == 1 && (got.CostToFirstSat != want || got.CostToFirstSatLowerBound):
			t.Fatalf("1 worker: cost to first SAT %v (lower bound: %v), want the sum up to it, %v, exact",
				got.CostToFirstSat, got.CostToFirstSatLowerBound, want)
		case got.CostToFirstSatLowerBound != cut:
			t.Fatalf("%d workers: flagged as a lower bound: %v, but a member below the first SAT cut short: %v",
				workers, got.CostToFirstSatLowerBound, cut)
		case !got.CostToFirstSatLowerBound && got.CostToFirstSat != want:
			t.Fatalf("%d workers: cost to first SAT %v unflagged, want the exact sum up to it, %v", workers, got.CostToFirstSat, want)
		case got.CostToFirstSat > want:
			t.Fatalf("%d workers: cost to first SAT %v exceeds the sum up to it, %v", workers, got.CostToFirstSat, want)
		}
		t.Logf("%d workers: cost to first SAT %v, lower bound: %v", workers, got.CostToFirstSat, got.CostToFirstSatLowerBound)
	}
}

// TestMembersCensoredAtTheCap: a solve under a conflict cap that the first
// satisfiable member stays below counts the members that stopped at the cap —
// as many as the uncapped solve took that many conflicts or more — and under
// StopOnSat a capped member below the first SAT makes the cost to it a lower
// bound, where one worker otherwise sums every member up to it whole.
func TestMembersCensoredAtTheCap(t *testing.T) {
	inst, err := encoder.NewInstance(encoder.A51(), encoder.Config{KeystreamLen: 64, KnownSuffix: 55, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	p := unknownSpace(inst).FullPoint() // a family of 512 holding the secret
	solve := func(cap uint64, opts SolveOptions, observe func(Progress)) *SolveReport {
		t.Helper()
		r := NewRunner(inst.CNF, Config{SampleSize: 4, Workers: 1, Seed: 1, CostMetric: solver.CostPropagations,
			SubproblemBudget: solver.Budget{MaxConflicts: cap}})
		report, err := r.SolveObserved(context.Background(), p, opts, observe)
		if err != nil {
			t.Fatal(err)
		}
		return report
	}
	conflicts := make([]uint64, 1<<p.Count())
	free := solve(0, SolveOptions{}, func(pr Progress) { conflicts[pr.Result.Index] = pr.Result.Stats.Conflicts })
	if free.MembersCensored != 0 || !free.FoundSat {
		t.Fatalf("uncapped: %d members censored, SAT found %v; want none, and the secret's member", free.MembersCensored, free.FoundSat)
	}
	limit := conflicts[free.SatIndex] + 1
	atLimit, below := 0, 0
	for i, c := range conflicts {
		if c >= limit {
			atLimit++
			if int64(i) < free.SatIndex {
				below++
			}
		}
	}
	if below == 0 {
		t.Fatalf("no member below the first SAT, %d, takes %d conflicts; the test needs one", free.SatIndex, limit)
	}
	capped := solve(limit, SolveOptions{}, nil)
	if capped.MembersCensored != atLimit || capped.SatIndex != free.SatIndex {
		t.Fatalf("cap of %d conflicts: %d members censored and the first SAT at %d; want %d and %d",
			limit, capped.MembersCensored, capped.SatIndex, atLimit, free.SatIndex)
	}
	stopped := solve(limit, SolveOptions{StopOnSat: true}, nil)
	if stopped.MembersCensored != below || !stopped.CostToFirstSatLowerBound {
		t.Fatalf("stop on SAT under the cap: %d members censored, lower bound %v; want %d and true",
			stopped.MembersCensored, stopped.CostToFirstSatLowerBound, below)
	}
}

func TestSolveMaxSubproblems(t *testing.T) {
	inst := weakBivium(t, 169, 40, 45)
	space := unknownSpace(inst)
	r := NewRunner(inst.CNF, Config{SampleSize: 4, Workers: 2, Seed: 1})
	report, err := r.Solve(context.Background(), space.FullPoint(), SolveOptions{MaxSubproblems: 16})
	if err != nil {
		t.Fatal(err)
	}
	if report.Processed != 16 {
		t.Fatalf("processed = %d, want 16", report.Processed)
	}
}

func TestSolveRejectsHugeFamilies(t *testing.T) {
	inst := weakBivium(t, 100, 40, 47)
	space := unknownSpace(inst) // 77 unknowns
	r := NewRunner(inst.CNF, Config{SampleSize: 2, Workers: 1, Seed: 1})
	if _, err := r.Solve(context.Background(), space.FullPoint(), SolveOptions{}); err == nil {
		t.Fatal("expected refusal to enumerate 2^77 subproblems")
	}
}

func TestSolveContextCancellation(t *testing.T) {
	inst := weakBivium(t, 163, 60, 49)
	space := unknownSpace(inst) // 14 unknowns -> 16384 subproblems
	r := NewRunner(inst.CNF, Config{SampleSize: 4, Workers: 2, Seed: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	report, err := r.Solve(ctx, space.FullPoint(), SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Interrupted {
		// The machine may be fast enough to finish; only fail if it neither
		// finished nor reported interruption.
		if report.Processed != 16384 {
			t.Fatalf("cancelled run neither complete nor interrupted: processed=%d", report.Processed)
		}
	}
}

func TestPredictionMatchesFullProcessingOnSmallFamily(t *testing.T) {
	// The headline property of the method (Table 3): the Monte Carlo
	// prediction of the total family-processing cost should be close to the
	// actually measured total cost.  With a sample of the whole family size
	// the agreement should be within a modest factor even though the sample
	// is drawn with replacement.
	inst := weakBivium(t, 168, 80, 51)
	space := unknownSpace(inst) // 9 unknowns -> family of 512
	p := space.FullPoint()
	r := NewRunner(inst.CNF, Config{SampleSize: 256, Workers: 2, Seed: 13, CostMetric: solver.CostPropagations})
	est, err := r.EvaluatePoint(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	report, err := r.Solve(context.Background(), p, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if report.TotalCost == 0 {
		t.Skip("all subproblems solved by unit propagation alone; prediction trivially exact")
	}
	dev := montecarlo.RelativeDeviation(est.Estimate.Value, report.TotalCost)
	if dev > 0.5 {
		t.Fatalf("prediction %v deviates from measured total %v by %.0f%%",
			est.Estimate.Value, report.TotalCost, dev*100)
	}
}
