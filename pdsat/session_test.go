package pdsat_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/paper-repro/pdsat-go/internal/cluster"
	"github.com/paper-repro/pdsat-go/internal/cnf"
	"github.com/paper-repro/pdsat-go/internal/decomp"
	"github.com/paper-repro/pdsat-go/internal/encoder"
	runner "github.com/paper-repro/pdsat-go/internal/pdsat"
	"github.com/paper-repro/pdsat-go/internal/solver"
	"github.com/paper-repro/pdsat-go/pdsat"
)

// testInstance builds a weakened A5/1 instance small enough for fast tests
// but hard enough that subproblems need real search.
func testInstance(t testing.TB, known, ksLen int, seed int64) *encoder.Instance {
	t.Helper()
	inst, err := encoder.NewInstance(encoder.A51(), encoder.Config{
		KeystreamLen: ksLen,
		KnownSuffix:  known,
		Seed:         seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func testConfig(sample int) pdsat.Config {
	return pdsat.Config{
		Runner: pdsat.RunnerConfig{
			SampleSize: sample,
			Workers:    2,
			Seed:       1,
			CostMetric: pdsat.CostPropagations,
		},
		Search: pdsat.SearchOptions{Seed: 1, MaxEvaluations: 30},
		Cores:  480,
	}
}

func newTestSession(t testing.TB, inst *encoder.Instance, sample int) *pdsat.Session {
	t.Helper()
	s, err := pdsat.NewSession(pdsat.FromInstance(inst), testConfig(sample))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestFromInstanceAndFromFormula(t *testing.T) {
	inst := testInstance(t, 52, 30, 1)
	p := pdsat.FromInstance(inst)
	if p.Name == "" || p.Formula == nil || len(p.StartSet) != 12 || p.Instance != inst {
		t.Fatalf("FromInstance: %+v", p)
	}
	if p.Space().Size() != 12 {
		t.Fatal("Space size")
	}

	f := cnf.New(3)
	f.AddClauseLits(1, 2, 3)
	q := pdsat.FromFormula("tiny", f, []pdsat.Var{1, 2})
	if q.Name != "tiny" || len(q.StartSet) != 2 || q.Instance != nil {
		t.Fatalf("FromFormula: %+v", q)
	}
}

func TestFromGenerator(t *testing.T) {
	p, err := pdsat.FromGenerator("bivium", pdsat.GeneratorConfig{KeystreamLen: 40, KnownSuffix: 170, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if p.Formula == nil || len(p.StartSet) == 0 || p.Instance == nil {
		t.Fatalf("FromGenerator: %+v", p)
	}
	if _, err := pdsat.FromGenerator("enigma", pdsat.GeneratorConfig{}); err == nil {
		t.Fatal("expected error for unknown generator")
	}
}

func TestNewSessionValidation(t *testing.T) {
	if _, err := pdsat.NewSession(nil, pdsat.DefaultConfig()); err == nil {
		t.Fatal("expected error for nil problem")
	}
	f := cnf.New(2)
	f.AddClauseLits(1, 2)
	if _, err := pdsat.NewSession(&pdsat.Problem{Name: "x", Formula: f}, pdsat.DefaultConfig()); err == nil {
		t.Fatal("expected error for empty start set")
	}
	// A start variable the formula does not have: in process the solver grew
	// to it silently, over TCP every worker refused the task frame and was
	// dropped, for ever.
	for _, v := range []pdsat.Var{3, 0, -1} {
		_, err := pdsat.NewSession(pdsat.FromFormula("x", f, []pdsat.Var{1, v}), pdsat.DefaultConfig())
		if want := fmt.Sprintf("variable %d is outside the formula's variables 1..2", v); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("start set {1, %d}: got %v, want an error saying %q", v, err, want)
		}
	}
	p := pdsat.FromFormula("x", f, []pdsat.Var{1, 2})
	cfg := pdsat.Config{}
	cfg.Runner.SampleSize = -1
	if _, err := pdsat.NewSession(p, cfg); err == nil {
		t.Fatal("expected error for negative sample size")
	}
	cfg = pdsat.Config{}
	cfg.Search.MaxEvaluations = -1
	if _, err := pdsat.NewSession(p, cfg); err == nil {
		t.Fatal("expected error for negative search budget")
	}
	s, err := pdsat.NewSession(p, pdsat.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Config().Cores != 480 {
		t.Fatal("zero Cores should default to 480")
	}
	if s.Problem() != p || s.Space() == nil {
		t.Fatal("accessors misbehave")
	}
}

// TestNewSessionRefusesAPlainTransport checks that a session's transport must
// offer RunDispatch, the one call its runner sends a batch through: one that
// implements only cluster.Transport is refused when the session opens, with an
// error naming the interface it lacks.
func TestNewSessionRefusesAPlainTransport(t *testing.T) {
	f := cnf.New(2)
	f.AddClauseLits(1, 2)
	cfg := pdsat.Config{}
	cfg.Runner.Transport = struct{ pdsat.Transport }{cluster.NewInproc(f, 1, solver.DefaultOptions())}
	_, err := pdsat.NewSession(pdsat.FromFormula("x", f, []pdsat.Var{1, 2}), cfg)
	if err == nil || !strings.Contains(err.Error(), "cluster.DispatchTransport") {
		t.Fatalf("a transport with Run only: got %v, want an error naming cluster.DispatchTransport", err)
	}
}

// TestEstimateJobBitIdentical is the regression for the facade redesign: a
// fixed-seed estimate through the new Session/EstimateJob API must be
// bit-identical — F value, sample statistics, conflict activities — to the
// bare runner path the old core.Engine.EstimatePoint facade used.
func TestEstimateJobBitIdentical(t *testing.T) {
	inst := testInstance(t, 48, 40, 3)

	// Old path: a bare runner, exactly as core.Engine drove it.
	r := runner.NewRunner(inst.CNF, runner.Config{
		SampleSize: 24,
		Workers:    2,
		Seed:       1,
		CostMetric: solver.CostPropagations,
	})
	space := decomp.NewSpace(inst.UnknownStartVars())
	want, err := r.EvaluatePoint(context.Background(), space.FullPoint())
	if err != nil {
		t.Fatal(err)
	}

	// New path: a session job.
	s := newTestSession(t, inst, 24)
	job, err := s.Submit(context.Background(), pdsat.EstimateJob{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Result(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got := res.Estimate
	if got == nil {
		t.Fatal("estimate job returned no estimate")
	}
	if got.Estimate != want.Estimate {
		t.Fatalf("estimate mismatch:\n got  %+v\n want %+v", got.Estimate, want.Estimate)
	}
	if got.SatisfiableSamples != want.SatisfiableSamples {
		t.Fatalf("SAT samples: got %d, want %d", got.SatisfiableSamples, want.SatisfiableSamples)
	}
	for v := cnf.Var(1); int(v) <= inst.CNF.NumVars; v++ {
		if s.VarActivity(v) != r.VarActivity(v) {
			t.Fatalf("conflict activity of %d diverged: %v vs %v", v, s.VarActivity(v), r.VarActivity(v))
		}
	}
	if s.Stats().SubproblemsSolved != r.SubproblemsSolved() {
		t.Fatal("subproblem accounting diverged")
	}
	gotStats, wantStats := s.Stats().Solver, r.AggregateStats()
	// SolveTime is wall clock and necessarily differs between the runs.
	gotStats.SolveTime, wantStats.SolveTime = 0, 0
	if gotStats != wantStats {
		t.Fatalf("aggregate statistics diverged:\n got  %+v\n want %+v", gotStats, wantStats)
	}
}

// mustRun is Session.Run for a job the test expects to succeed.
func mustRun(t testing.TB, s *pdsat.Session, spec pdsat.JobSpec) *pdsat.JobResult {
	t.Helper()
	res, err := s.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestEstimateStartSetAndSet: an EstimateJob run to completion estimates the
// full start set when it names no variables and a subset when it does.
func TestEstimateStartSetAndSet(t *testing.T) {
	inst := testInstance(t, 48, 40, 3)
	s := newTestSession(t, inst, 12)
	ctx := context.Background()
	est := mustRun(t, s, pdsat.EstimateJob{}).Estimate
	if est.Estimate.Dimension != 16 || est.Estimate.SampleSize != 12 {
		t.Fatalf("estimate metadata: %+v", est.Estimate)
	}
	if est.Estimate.Value <= 0 {
		t.Fatalf("estimate value should be positive with the propagation cost metric, got %v", est.Estimate.Value)
	}
	if est.PerCores >= est.Estimate.Value || est.Cores != 480 {
		t.Fatalf("extrapolation wrong: %v vs %v", est.PerCores, est.Estimate.Value)
	}
	if len(est.Vars) != 16 {
		t.Fatalf("Vars = %v", est.Vars)
	}
	if est.WallTime <= 0 {
		t.Fatal("wall time")
	}

	// Estimate a strict subset.
	sub := mustRun(t, s, pdsat.EstimateJob{Vars: inst.UnknownStartVars()[:10]}).Estimate
	if sub.Estimate.Dimension != 10 {
		t.Fatalf("subset dimension = %d", sub.Estimate.Dimension)
	}
	// Variables outside the start set are rejected.
	if _, err := s.Run(ctx, pdsat.EstimateJob{Vars: []pdsat.Var{pdsat.Var(inst.CNF.NumVars)}}); err == nil {
		t.Fatal("expected error for variable outside the search space")
	}
}

// TestRunReturnsPartialEstimate: a Run of an estimate cancelled part way
// returns the estimate of what finished, marked Interrupted, together with
// the context's error.
func TestRunReturnsPartialEstimate(t *testing.T) {
	inst := testInstance(t, 40, 40, 3)
	s := newTestSession(t, inst, 5000)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel on the first subproblem result: the job exists once Run has
	// submitted it, and its stream replays from the start.
	go func() {
		for len(s.Jobs()) == 0 {
			time.Sleep(time.Millisecond)
		}
		for e := range s.Jobs()[0].Subscribe(ctx) {
			if _, ok := e.(pdsat.SampleProgress); ok {
				cancel()
			}
		}
	}()
	res, err := s.Run(ctx, pdsat.EstimateJob{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run of a cancelled estimate: err = %v, want context.Canceled", err)
	}
	if res == nil || res.Estimate == nil {
		t.Fatal("Run of a cancelled estimate returned no partial estimate")
	}
	est := res.Estimate
	if !est.Interrupted || est.Estimate.SampleSize == 0 || est.Estimate.SampleSize >= est.SamplesPlanned {
		t.Fatalf("partial estimate: interrupted %v, %d of %d samples", est.Interrupted, est.Estimate.SampleSize, est.SamplesPlanned)
	}
}

func TestSearchTabuAndSA(t *testing.T) {
	inst := testInstance(t, 50, 40, 5)
	s := newTestSession(t, inst, 8)
	ctx := context.Background()

	tabu := mustRun(t, s, pdsat.SearchJob{Method: pdsat.MethodTabu}).Search
	if tabu.Method != pdsat.MethodTabu || tabu.Result == nil {
		t.Fatalf("outcome: %+v", tabu)
	}
	if tabu.Result.Evaluations == 0 || tabu.Result.BestPoint.Count() == 0 {
		t.Fatal("tabu search did no work")
	}
	if tabu.Best == nil || tabu.Best.Estimate.Value <= 0 {
		t.Fatal("best estimate missing")
	}

	sa := mustRun(t, s, pdsat.SearchJob{Method: pdsat.MethodSimulatedAnnealing}).Search
	if sa.Method != pdsat.MethodSimulatedAnnealing || sa.Result.Evaluations == 0 {
		t.Fatalf("outcome: %+v", sa)
	}

	// A short method name and an explicit start point.
	out := mustRun(t, s, pdsat.SearchJob{Method: "tabu", Start: s.Space().FullPoint().SortedVars()}).Search
	if out.Method != pdsat.MethodTabu {
		t.Fatal("method name")
	}
	if _, err := s.Run(ctx, pdsat.SearchJob{Method: "genetic"}); err == nil {
		t.Fatal("expected error for unknown method")
	}
}

func TestPredictAndSolveAgreement(t *testing.T) {
	// Weakened A5/1 with 11 unknown state bits: the full family (2048
	// subproblems) is processed and compared against the prediction.
	inst := testInstance(t, 53, 48, 7)
	s := newTestSession(t, inst, 160)
	ctx := context.Background()
	cmp, err := s.PredictAndSolve(ctx, inst.UnknownStartVars())
	if err != nil {
		t.Fatal(err)
	}
	if !cmp.FoundSat {
		t.Fatal("processing the whole family must find the secret key")
	}
	if !cmp.KeyValid {
		t.Fatal("the recovered key must reproduce the keystream")
	}
	if cmp.SetSize != 11 || cmp.Cores != 480 {
		t.Fatalf("metadata: %+v", cmp)
	}
	if cmp.Predicted1Core <= 0 || cmp.MeasuredTotal <= 0 {
		t.Fatalf("degenerate costs: %+v", cmp)
	}
	if cmp.PredictedKCores >= cmp.Predicted1Core {
		t.Fatal("k-core prediction should be smaller than 1-core prediction")
	}
	if cmp.MeasuredToFirstSat > cmp.MeasuredTotal {
		t.Fatal("cost to first SAT cannot exceed the total cost")
	}
	// The headline claim of the paper: prediction and measurement agree
	// (Table 3 reports ~8% average deviation; we allow a broad margin since
	// the sample here is small).
	if cmp.Deviation > 0.6 {
		t.Fatalf("prediction %v deviates from measurement %v by %.0f%%",
			cmp.Predicted1Core, cmp.MeasuredTotal, cmp.Deviation*100)
	}
	if cmp.WallTime <= 0 {
		t.Fatal("wall time")
	}
	// The comparison is two jobs, the prediction first.
	jobs := s.Jobs()
	if len(jobs) != 2 || jobs[0].Kind() != pdsat.JobEstimate || jobs[1].Kind() != pdsat.JobSolve {
		kinds := make([]pdsat.JobKind, len(jobs))
		for i, j := range jobs {
			kinds[i] = j.Kind()
		}
		t.Fatalf("PredictAndSolve submitted %v, want [estimate solve]", kinds)
	}
}

func TestSolveWithSet(t *testing.T) {
	inst := testInstance(t, 54, 40, 9)
	s := newTestSession(t, inst, 8)
	report := mustRun(t, s, pdsat.SolveJob{Vars: inst.UnknownStartVars(), StopOnSat: true}).Solve
	if !report.FoundSat {
		t.Fatal("expected to find the key")
	}
	if !s.Problem().KeyValid(report.Model) {
		t.Fatal("the recovered key must reproduce the keystream")
	}
	if _, err := s.Run(context.Background(), pdsat.SolveJob{Vars: []pdsat.Var{9999}}); err == nil {
		t.Fatal("expected error for out-of-space variable")
	}
}

func TestPredictAndSolveErrors(t *testing.T) {
	inst := testInstance(t, 54, 30, 11)
	s := newTestSession(t, inst, 4)
	if _, err := s.PredictAndSolve(context.Background(), []pdsat.Var{9999}); err == nil {
		t.Fatal("expected error for out-of-space variable")
	}
	// A cancelled context surfaces as an error from the estimation phase.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.PredictAndSolve(ctx, inst.UnknownStartVars()); err == nil {
		t.Fatal("expected error for cancelled context")
	}
}
