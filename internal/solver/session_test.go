package solver

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/paper-repro/pdsat-go/internal/cnf"
	"github.com/paper-repro/pdsat-go/internal/cnfgen"
)

// randomAssumptions draws k distinct-variable assumption literals.
func randomAssumptions(rng *rand.Rand, numVars, k int) []cnf.Lit {
	perm := rng.Perm(numVars)
	out := make([]cnf.Lit, 0, k)
	for _, v := range perm[:k] {
		out = append(out, cnf.NewLit(cnf.Var(v+1), rng.Intn(2) == 1))
	}
	return out
}

// statsEqual compares every deterministic counter (SolveTime is wall clock
// and excluded).
func statsEqual(a, b Stats) bool {
	return a.Decisions == b.Decisions &&
		a.Propagations == b.Propagations &&
		a.Conflicts == b.Conflicts &&
		a.Restarts == b.Restarts &&
		a.Learned == b.Learned &&
		a.Removed == b.Removed &&
		a.MaxLevel == b.MaxLevel
}

func modelsEqual(a, b cnf.Assignment) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestResetEquivalentToFresh is the load-bearing regression test of the
// session API: a solver reused via Reset must return exactly the same
// result — status, model, per-call statistics, lifetime statistics and
// conflict activities — as a freshly constructed solver, for every query of
// a long mixed SAT/UNSAT sequence.  The Monte Carlo estimation relies on
// this equivalence: per-worker solver reuse in the pdsat runner must not
// change the observed subproblem costs.
func TestResetEquivalentToFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	php, err := cnfgen.Pigeonhole(6, 5)
	if err != nil {
		t.Fatal(err)
	}
	r3, err := cnfgen.Random3SAT(rng, 80, 4.1)
	if err != nil {
		t.Fatal(err)
	}
	formulas := map[string]*cnf.Formula{"php(6,5)": php, "rand3sat": r3}

	for name, f := range formulas {
		reused := NewDefault(f)
		for call := 0; call < 12; call++ {
			var assumptions []cnf.Lit
			if call > 0 { // first call: no assumptions
				assumptions = randomAssumptions(rng, f.NumVars, 1+rng.Intn(6))
			}
			fresh := NewDefault(f)
			want := fresh.SolveWithAssumptions(assumptions)

			reused.Reset()
			got := reused.SolveWithAssumptions(assumptions)

			if got.Status != want.Status {
				t.Fatalf("%s call %d: status %v, fresh solver got %v", name, call, got.Status, want.Status)
			}
			if !statsEqual(got.Stats, want.Stats) {
				t.Fatalf("%s call %d: per-call stats diverge:\nreused: %+v\nfresh:  %+v",
					name, call, got.Stats, want.Stats)
			}
			if !statsEqual(reused.Stats(), fresh.Stats()) {
				t.Fatalf("%s call %d: lifetime stats diverge:\nreused: %+v\nfresh:  %+v",
					name, call, reused.Stats(), fresh.Stats())
			}
			if !modelsEqual(got.Model, want.Model) {
				t.Fatalf("%s call %d: models diverge", name, call)
			}
			if got.Status == Sat && !Verify(f, got.Model) {
				t.Fatalf("%s call %d: model does not satisfy the formula", name, call)
			}
			ga, wa := conflictCounts(reused), conflictCounts(fresh)
			for v := range ga {
				if ga[v] != wa[v] {
					t.Fatalf("%s call %d: conflict activity diverges at var %d: %v vs %v",
						name, call, v, ga[v], wa[v])
				}
			}
		}
	}
}

// TestResetRestoresBudgetBehaviour checks that an effort budget applies per
// query when the solver is Reset between queries (the statistics are rebased
// to the construction baseline).
func TestResetRestoresBudgetBehaviour(t *testing.T) {
	f, err := cnfgen.Pigeonhole(7, 6)
	if err != nil {
		t.Fatal(err)
	}
	s := NewDefault(f)
	s.SetBudget(Budget{MaxConflicts: 50})
	first := s.Solve()
	if !first.Interrupted {
		t.Skip("PHP(7,6) solved within 50 conflicts; budget test not meaningful")
	}
	s.Reset()
	second := s.Solve()
	if !second.Interrupted {
		t.Fatal("budget should also interrupt the second (reset) query")
	}
	if first.Stats.Conflicts != second.Stats.Conflicts {
		t.Fatalf("budgeted queries diverge: %d vs %d conflicts",
			first.Stats.Conflicts, second.Stats.Conflicts)
	}
}

// TestIncrementalRetainsLearnedClauses checks MiniSat-style reuse: without a
// Reset, learned clauses and activities persist across calls, and repeated
// identical UNSAT queries get cheaper (the second proof reuses the first
// proof's learned clauses).
func TestIncrementalRetainsLearnedClauses(t *testing.T) {
	f, err := cnfgen.Pigeonhole(6, 5)
	if err != nil {
		t.Fatal(err)
	}
	s := NewDefault(f)
	first := s.Solve()
	if first.Status != Unsat {
		t.Fatalf("PHP(6,5) must be UNSAT, got %v", first.Status)
	}
	if first.Stats.Conflicts == 0 {
		t.Fatal("expected a non-trivial proof")
	}
	second := s.Solve()
	if second.Status != Unsat {
		t.Fatalf("second call: got %v", second.Status)
	}
	if second.Stats.Conflicts >= first.Stats.Conflicts {
		t.Fatalf("retained learned clauses should shorten the second proof: %d vs %d conflicts",
			second.Stats.Conflicts, first.Stats.Conflicts)
	}
}

// TestBaseStats checks that the construction effort is exposed and restored
// by Reset.
func TestBaseStats(t *testing.T) {
	f := cnf.New(3)
	f.AddClauseLits(1)
	f.AddClauseLits(-1, 2)
	f.AddClauseLits(-2, 3)
	s := NewDefault(f)
	base := s.BaseStats()
	if base.Propagations == 0 {
		t.Fatal("unit chain must be propagated at construction")
	}
	if s.Stats() != base {
		t.Fatalf("pristine stats %+v != base stats %+v", s.Stats(), base)
	}
	res := s.Solve()
	if res.Status != Sat {
		t.Fatalf("got %v", res.Status)
	}
	s.Reset()
	if s.Stats() != base {
		t.Fatalf("reset stats %+v != base stats %+v", s.Stats(), base)
	}
}

// TestResetAfterInterrupt checks that Reset clears a pending interrupt.
func TestResetAfterInterrupt(t *testing.T) {
	f, err := cnfgen.Pigeonhole(7, 6)
	if err != nil {
		t.Fatal(err)
	}
	s := NewDefault(f)
	s.Interrupt()
	res := s.Solve()
	if !res.Interrupted {
		t.Fatal("expected interrupted result")
	}
	s.Reset()
	s.SetBudget(Budget{})
	res = s.Solve()
	if res.Status != Unsat {
		t.Fatalf("after Reset the solver must work again, got %v (interrupted=%v)",
			res.Status, res.Interrupted)
	}
}

// TestSolvedSolverRefusesToGrow checks the one call that could change a
// solver's formula after New: an assumption over a variable outside the
// formula panics with a message naming the call, before and after a solve
// and a Reset, and leaves the solver answering.
func TestSolvedSolverRefusesToGrow(t *testing.T) {
	f := cnf.New(3)
	f.AddClauseLits(1, 2)
	f.AddClauseLits(-2, 3)
	mustPanic := func(name, call string, fn func()) {
		t.Helper()
		defer func() {
			t.Helper()
			msg, _ := recover().(string)
			if !strings.Contains(msg, call) {
				t.Fatalf("%s: panic %q, want one naming %s", name, msg, call)
			}
		}()
		fn()
	}
	s := NewDefault(f)
	for _, a := range []cnf.Lit{cnf.NewLit(4, true), cnf.NewLit(9, false)} {
		mustPanic(fmt.Sprintf("assumption %d", a), "SolveWithAssumptions", func() {
			s.SolveWithAssumptions([]cnf.Lit{cnf.NewLit(1, true), a})
		})
		s.Solve()
		s.Reset()
	}
	if res := s.SolveWithAssumptions([]cnf.Lit{cnf.NewLit(3, false)}); res.Status != Sat || res.Model.Value(1) != cnf.True {
		t.Fatalf("the solver does not answer after the refusals: %v %v", res.Status, res.Model)
	}
}
