package solver

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"github.com/paper-repro/pdsat-go/internal/cnf"
)

func mustSolve(t *testing.T, f *cnf.Formula) Result {
	t.Helper()
	s := NewDefault(f)
	res := s.Solve()
	if res.Status == Sat && !f.IsSatisfiedBy(res.Model) {
		t.Fatalf("solver returned a non-model for %v", f)
	}
	return res
}

func TestEmptyFormulaIsSat(t *testing.T) {
	f := cnf.New(3)
	if res := mustSolve(t, f); res.Status != Sat {
		t.Fatalf("empty formula should be SAT, got %v", res.Status)
	}
}

func TestSingleUnit(t *testing.T) {
	f := cnf.New(1)
	f.AddClauseLits(1)
	res := mustSolve(t, f)
	if res.Status != Sat || res.Model.Value(1) != cnf.True {
		t.Fatalf("got %v model=%v", res.Status, res.Model)
	}
}

func TestContradiction(t *testing.T) {
	f := cnf.New(1)
	f.AddClauseLits(1)
	f.AddClauseLits(-1)
	if res := mustSolve(t, f); res.Status != Unsat {
		t.Fatalf("expected UNSAT, got %v", res.Status)
	}
}

func TestEmptyClauseIsUnsat(t *testing.T) {
	f := cnf.New(1)
	f.AddClause(cnf.Clause{})
	if res := mustSolve(t, f); res.Status != Unsat {
		t.Fatalf("expected UNSAT, got %v", res.Status)
	}
}

func TestSimpleSatInstance(t *testing.T) {
	f := cnf.New(3)
	f.AddClauseLits(1, 2, 3)
	f.AddClauseLits(-1, -2)
	f.AddClauseLits(-2, -3)
	f.AddClauseLits(-1, -3)
	res := mustSolve(t, f)
	if res.Status != Sat {
		t.Fatalf("expected SAT, got %v", res.Status)
	}
}

func TestPigeonhole(t *testing.T) {
	// PHP(n+1, n): n+1 pigeons into n holes is UNSAT.  Classic hard-ish
	// instance that exercises clause learning.
	for _, n := range []int{3, 4, 5} {
		f := pigeonhole(n+1, n)
		res := mustSolve(t, f)
		if res.Status != Unsat {
			t.Fatalf("PHP(%d,%d) should be UNSAT, got %v", n+1, n, res.Status)
		}
	}
	// n pigeons into n holes is SAT.
	f := pigeonhole(4, 4)
	if res := mustSolve(t, f); res.Status != Sat {
		t.Fatalf("PHP(4,4) should be SAT, got %v", res.Status)
	}
}

// pigeonhole builds the pigeonhole principle CNF with p pigeons and h holes.
// Variable x_{i,j} (pigeon i in hole j) is i*h + j + 1.
func pigeonhole(p, h int) *cnf.Formula {
	v := func(i, j int) cnf.Lit { return cnf.Lit(i*h + j + 1) }
	f := cnf.New(p * h)
	for i := 0; i < p; i++ {
		c := make(cnf.Clause, 0, h)
		for j := 0; j < h; j++ {
			c = append(c, v(i, j))
		}
		f.AddClause(c)
	}
	for j := 0; j < h; j++ {
		for i1 := 0; i1 < p; i1++ {
			for i2 := i1 + 1; i2 < p; i2++ {
				f.AddClauseLits(-v(i1, j), -v(i2, j))
			}
		}
	}
	return f
}

func TestAssumptions(t *testing.T) {
	f := cnf.New(3)
	f.AddClauseLits(1, 2)
	f.AddClauseLits(-2, 3)
	s := NewDefault(f)

	res := s.SolveWithAssumptions([]cnf.Lit{-1})
	if res.Status != Sat {
		t.Fatalf("expected SAT under -1, got %v", res.Status)
	}
	if res.Model.Value(1) != cnf.False || res.Model.Value(2) != cnf.True || res.Model.Value(3) != cnf.True {
		t.Fatalf("model does not respect assumption/implications: %v", res.Model)
	}

	// Conflicting assumptions.
	res = s.SolveWithAssumptions([]cnf.Lit{-1, -2})
	if res.Status != Unsat {
		t.Fatalf("expected UNSAT under {-1,-2}, got %v", res.Status)
	}

	// Solver remains reusable after assumption solving.
	res = s.Solve()
	if res.Status != Sat {
		t.Fatalf("expected SAT without assumptions, got %v", res.Status)
	}
}

func TestTautologyAndDuplicateLiterals(t *testing.T) {
	f := cnf.New(2)
	f.AddClauseLits(1, -1)   // tautology, should be ignored
	f.AddClauseLits(2, 2, 2) // duplicates collapse to unit
	res := mustSolve(t, f)
	if res.Status != Sat || res.Model.Value(2) != cnf.True {
		t.Fatalf("got %v %v", res.Status, res.Model)
	}
}

func TestBudgetConflicts(t *testing.T) {
	f := pigeonhole(8, 7) // hard enough to exceed a tiny conflict budget
	s := NewDefault(f)
	s.SetBudget(Budget{MaxConflicts: 5})
	res := s.Solve()
	if res.Status != Unknown || !res.Interrupted {
		t.Fatalf("expected interrupted Unknown, got %v interrupted=%v (conflicts=%d)",
			res.Status, res.Interrupted, res.Stats.Conflicts)
	}
}

func TestBudgetTime(t *testing.T) {
	f := pigeonhole(10, 9)
	s := NewDefault(f)
	s.SetBudget(Budget{MaxTime: time.Millisecond})
	res := s.Solve()
	if res.Status == Unknown && !res.Interrupted {
		t.Fatal("unknown result must be marked interrupted")
	}
}

func TestInterrupt(t *testing.T) {
	f := pigeonhole(10, 9)
	s := NewDefault(f)
	done := make(chan Result, 1)
	go func() { done <- s.Solve() }()
	time.Sleep(10 * time.Millisecond)
	s.Interrupt()
	select {
	case res := <-done:
		if res.Status == Unknown && !res.Interrupted {
			t.Fatal("interrupted solve should be marked Interrupted")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("solver did not honour Interrupt")
	}
	// After clearing the interrupt the solver is usable again.
	s.ClearInterrupt()
	small := cnf.New(1)
	small.AddClauseLits(1)
	if res := NewDefault(small).Solve(); res.Status != Sat {
		t.Fatal("fresh solver should work after interrupt test")
	}
}

func TestStatsAccumulate(t *testing.T) {
	f := pigeonhole(5, 4)
	s := NewDefault(f)
	res := s.Solve()
	if res.Status != Unsat {
		t.Fatalf("expected UNSAT, got %v", res.Status)
	}
	if res.Stats.Conflicts == 0 || res.Stats.Decisions == 0 || res.Stats.Propagations == 0 {
		t.Fatalf("expected non-zero work: %+v", res.Stats)
	}
	if res.Stats.SolveTime <= 0 {
		t.Fatal("SolveTime should be positive")
	}
	if s.Stats().Conflicts != res.Stats.Conflicts {
		t.Fatal("lifetime stats should match single-call stats for a fresh solver")
	}
}

// distinctStats gives the i-th field of Stats the value base+i, whatever
// fields Stats has.
func distinctStats(t *testing.T, base int) Stats {
	var st Stats
	v := reflect.ValueOf(&st).Elem()
	for i := range v.NumField() {
		switch f := v.Field(i); f.Kind() {
		case reflect.Uint64:
			f.SetUint(uint64(base + i))
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(base + i))
		default:
			t.Fatalf("Stats.%s is a %s", v.Type().Field(i).Name, f.Kind())
		}
	}
	return st
}

// TestStatsFieldsSurviveAddAndDiff: Add and diffStats carry every field of
// Stats, each given its own value by reflection, so a field added to Stats
// but not to them fails here.  Add sums every field but the ArenaBytes and
// MaxLevel gauges, which take the maximum; diffStats subtracts every field
// but the gauges, which it takes from now, and SolveTime, which it leaves to
// SolveWithAssumptions.
func TestStatsFieldsSurviveAddAndDiff(t *testing.T) {
	small, large := distinctStats(t, 1), distinctStats(t, 100)
	lo, hi := reflect.ValueOf(small), reflect.ValueOf(large)
	sums := []reflect.Value{reflect.ValueOf(small.Add(large)), reflect.ValueOf(large.Add(small))}
	diff := reflect.ValueOf(diffStats(large, small))
	field := func(v reflect.Value, i int) int64 {
		if f := v.Field(i); f.CanUint() {
			return int64(f.Uint())
		}
		return v.Field(i).Int()
	}
	for i := range lo.NumField() {
		name := lo.Type().Field(i).Name
		wantSum, wantDiff := field(lo, i)+field(hi, i), field(hi, i)-field(lo, i)
		switch name {
		case "ArenaBytes", "MaxLevel":
			wantSum, wantDiff = field(hi, i), field(hi, i)
		case "SolveTime":
			wantDiff = 0
		}
		for _, sum := range sums {
			if got := field(sum, i); got != wantSum {
				t.Errorf("Add: %s = %d, want %d", name, got, wantSum)
			}
		}
		if got := field(diff, i); got != wantDiff {
			t.Errorf("diffStats: %s = %d, want %d", name, got, wantDiff)
		}
	}
}

func TestConflictActivityExposed(t *testing.T) {
	f := pigeonhole(5, 4)
	s := NewDefault(f)
	s.Solve()
	counts := conflictCounts(s)
	if len(counts) != f.NumVars+1 {
		t.Fatalf("%d conflict counts, want %d", len(counts), f.NumVars+1)
	}
	sum := 0.0
	for _, a := range counts {
		sum += a
	}
	h := s.AppendConflictActivities(SparseActivities{})
	total := 0.0
	for i, v := range h.Vars {
		if v < 1 || int(v) > f.NumVars {
			t.Fatalf("harvested variable %d is outside 1..%d", v, f.NumVars)
		}
		total += h.Acts[i]
	}
	if total == 0 {
		t.Fatal("conflict activity should be positive after an UNSAT run")
	}
	if sum != total {
		t.Fatalf("activity sum mismatch: %v vs %v", sum, total)
	}
}

func TestDeterminism(t *testing.T) {
	f := randomFormula(rand.New(rand.NewSource(7)), 40, 170)
	r1 := NewDefault(f).Solve()
	r2 := NewDefault(f).Solve()
	if r1.Status != r2.Status || r1.Stats.Conflicts != r2.Stats.Conflicts ||
		r1.Stats.Decisions != r2.Stats.Decisions || r1.Stats.Propagations != r2.Stats.Propagations {
		t.Fatalf("solver is not deterministic: %+v vs %+v", r1.Stats, r2.Stats)
	}
}

func TestDPLLSimple(t *testing.T) {
	f := cnf.New(3)
	f.AddClauseLits(1, 2, 3)
	f.AddClauseLits(-1)
	f.AddClauseLits(-2)
	d := NewDPLL(f)
	res := d.Solve()
	if res.Status != Sat || res.Model.Value(3) != cnf.True {
		t.Fatalf("DPLL got %v %v", res.Status, res.Model)
	}
	f.AddClauseLits(-3)
	if res := NewDPLL(f).Solve(); res.Status != Unsat {
		t.Fatalf("DPLL expected UNSAT, got %v", res.Status)
	}
}

func TestDPLLNodeLimit(t *testing.T) {
	f := pigeonhole(7, 6)
	d := NewDPLL(f)
	d.MaxNodes = 10
	if res := d.Solve(); res.Status != Unknown {
		t.Fatalf("expected Unknown with tiny node limit, got %v", res.Status)
	}
}

// randomFormula builds a random 3-SAT-ish formula.
func randomFormula(rng *rand.Rand, numVars, numClauses int) *cnf.Formula {
	f := cnf.New(numVars)
	for i := 0; i < numClauses; i++ {
		width := 3
		c := make(cnf.Clause, 0, width)
		for j := 0; j < width; j++ {
			v := cnf.Var(rng.Intn(numVars) + 1)
			c = append(c, cnf.NewLit(v, rng.Intn(2) == 0))
		}
		f.AddClause(c)
	}
	return f
}

// TestCDCLAgreesWithDPLL cross-checks the CDCL solver against the reference
// DPLL solver on many small random formulas.
func TestCDCLAgreesWithDPLL(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 300; i++ {
		nv := 5 + rng.Intn(10)
		nc := 5 + rng.Intn(40)
		f := randomFormula(rng, nv, nc)
		cd := NewDefault(f).Solve()
		dp := NewDPLL(f).Solve()
		if cd.Status != dp.Status {
			t.Fatalf("disagreement on formula %d:\n%s\nCDCL=%v DPLL=%v",
				i, f.DIMACSString(), cd.Status, dp.Status)
		}
		if cd.Status == Sat && !f.IsSatisfiedBy(cd.Model) {
			t.Fatalf("CDCL model does not satisfy formula %d", i)
		}
	}
}

// Property-based version of the cross-check driven by testing/quick.
func TestCDCLAgreesWithDPLLProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		f := randomFormula(rng, 4+rng.Intn(8), 4+rng.Intn(30))
		cd := NewDefault(f).Solve()
		dp := NewDPLL(f).Solve()
		if cd.Status != dp.Status {
			return false
		}
		if cd.Status == Sat {
			return f.IsSatisfiedBy(cd.Model)
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestLuby(t *testing.T) {
	want := []uint64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(uint64(i + 1)); got != w {
			t.Fatalf("luby(%d) = %d, want %d", i+1, got, w)
		}
	}
}

func TestEffortCost(t *testing.T) {
	st := Stats{Conflicts: 10, Propagations: 100, Decisions: 20, SolveTime: 2 * time.Second}
	if EffortCost(st, CostConflicts) != 10 {
		t.Fatal("CostConflicts")
	}
	if EffortCost(st, CostPropagations) != 100 {
		t.Fatal("CostPropagations")
	}
	if EffortCost(st, CostDecisions) != 20 {
		t.Fatal("CostDecisions")
	}
	if EffortCost(st, CostWallTime) != 2 {
		t.Fatal("CostWallTime")
	}
	if EffortCost(st, CostMetric(99)) != 10 {
		t.Fatal("unknown metric should fall back to conflicts")
	}
}

func TestCostMetricString(t *testing.T) {
	names := map[CostMetric]string{
		CostConflicts:    "conflicts",
		CostPropagations: "propagations",
		CostDecisions:    "decisions",
		CostWallTime:     "seconds",
	}
	for m, want := range names {
		if m.String() != want {
			t.Fatalf("%v.String() = %q, want %q", int(m), m.String(), want)
		}
	}
	if CostMetric(42).String() == "" {
		t.Fatal("unknown metric should still produce a string")
	}
}

func TestStatusString(t *testing.T) {
	if Sat.String() != "SAT" || Unsat.String() != "UNSAT" || Unknown.String() != "UNKNOWN" {
		t.Fatal("Status.String misbehaves")
	}
}

func TestVerify(t *testing.T) {
	f := cnf.New(2)
	f.AddClauseLits(1, -2)
	good := cnf.NewAssignment(2)
	good.Set(1, cnf.True)
	good.Set(2, cnf.True)
	bad := cnf.NewAssignment(2)
	bad.Set(1, cnf.False)
	bad.Set(2, cnf.True)
	if !Verify(f, good) || Verify(f, bad) {
		t.Fatal("Verify misbehaves")
	}
}

func TestSolverNumVars(t *testing.T) {
	f := cnf.New(2)
	f.AddClauseLits(1, 2)
	s := NewDefault(f)
	if s.NumVars() != 2 {
		t.Fatalf("NumVars = %d", s.NumVars())
	}
}

func TestPhaseSavingOptionsVariants(t *testing.T) {
	f := pigeonhole(6, 5)
	for _, opts := range []Options{
		DefaultOptions(),
		{VarDecay: 0.99, ClauseDecay: 0.999, RestartBase: 50, MaxLearnedFactor: 2, PhaseSaving: false, DefaultPhase: true, MinimizeLearned: false},
	} {
		s := New(f, opts)
		if res := s.Solve(); res.Status != Unsat {
			t.Fatalf("PHP(6,5) should be UNSAT under opts %+v, got %v", opts, res.Status)
		}
	}
}

// TestZeroOptionsFallBackToDefaults holds New's one zero-value rule: a
// solver built with Options{} is the solver built with DefaultOptions(),
// call for call — the same status, model and statistics (the wall-clock
// SolveTime aside) on formulas that take restarts and learned clauses.
func TestZeroOptionsFallBackToDefaults(t *testing.T) {
	for name, f := range goldenFormulas(t) {
		zero, def := New(f, Options{}).Solve(), New(f, DefaultOptions()).Solve()
		zero.Stats.SolveTime, def.Stats.SolveTime = 0, 0
		if !reflect.DeepEqual(zero, def) {
			t.Fatalf("%s: zero options solved to %v %+v, the defaults to %v %+v", name, zero.Status, zero.Stats, def.Status, def.Stats)
		}
	}
}

// TestBudgetForCost checks the pruning-proxy budget construction: the
// budget must guarantee that a truncated solve's cost strictly exceeds the
// allowance, and metrics without a deterministic counter must stay
// unlimited.
func TestBudgetForCost(t *testing.T) {
	if b := BudgetForCost(CostConflicts, 100); b.MaxConflicts != 101 || b.MaxPropagations != 0 {
		t.Fatalf("conflicts budget: %+v", b)
	}
	if b := BudgetForCost(CostConflicts, 99.2); b.MaxConflicts != 101 {
		t.Fatalf("fractional allowance must round up: %+v", b)
	}
	if b := BudgetForCost(CostPropagations, 7); b.MaxPropagations != 8 || b.MaxConflicts != 0 {
		t.Fatalf("propagations budget: %+v", b)
	}
	for _, m := range []CostMetric{CostDecisions, CostWallTime} {
		if b := BudgetForCost(m, 100); b != (Budget{}) {
			t.Fatalf("metric %v must yield an unlimited budget: %+v", m, b)
		}
	}
	if b := BudgetForCost(CostConflicts, 0); b != (Budget{}) {
		t.Fatalf("zero allowance: %+v", b)
	}
	if b := BudgetForCost(CostConflicts, -5); b != (Budget{}) {
		t.Fatalf("negative allowance: %+v", b)
	}
	if b := BudgetForCost(CostConflicts, math.Inf(1)); b != (Budget{}) {
		t.Fatalf("infinite allowance: %+v", b)
	}
}

// TestBudgetTightenedBy checks the element-wise combination with zero
// meaning unlimited.
func TestBudgetTightenedBy(t *testing.T) {
	a := Budget{MaxConflicts: 100, MaxTime: time.Second}
	b := Budget{MaxConflicts: 50, MaxPropagations: 10}
	got := a.TightenedBy(b)
	want := Budget{MaxConflicts: 50, MaxPropagations: 10, MaxTime: time.Second}
	if got != want {
		t.Fatalf("TightenedBy = %+v, want %+v", got, want)
	}
	if got := (Budget{}).TightenedBy(Budget{}); got != (Budget{}) {
		t.Fatalf("zero budgets: %+v", got)
	}
	if got := b.TightenedBy(a); got != want {
		t.Fatalf("TightenedBy must be symmetric here: %+v", got)
	}
}
