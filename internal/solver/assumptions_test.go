package solver

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/paper-repro/pdsat-go/internal/cnf"
)

// TestAssumptionsEquivalentToUnits checks the property the whole
// decomposition machinery relies on: solving C under assumption literals is
// equisatisfiable with solving C extended by the corresponding unit clauses.
func TestAssumptionsEquivalentToUnits(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		f := randomFormula(rng, 6+rng.Intn(10), 10+rng.Intn(40))

		// Draw a random assumption set over distinct variables.
		numAssumps := 1 + rng.Intn(4)
		seen := map[cnf.Var]bool{}
		var assumptions []cnf.Lit
		units := f.Clone()
		for len(assumptions) < numAssumps {
			v := cnf.Var(rng.Intn(f.NumVars) + 1)
			if seen[v] {
				continue
			}
			seen[v] = true
			l := cnf.NewLit(v, rng.Intn(2) == 0)
			assumptions = append(assumptions, l)
			units.AddClause(cnf.Clause{l})
		}

		withAssumps := NewDefault(f).SolveWithAssumptions(assumptions)
		withUnits := NewDefault(units).Solve()
		if withAssumps.Status != withUnits.Status {
			return false
		}
		if withAssumps.Status == Sat {
			// The model must satisfy both the formula and the assumptions.
			if !f.IsSatisfiedBy(withAssumps.Model) {
				return false
			}
			for _, a := range assumptions {
				if withAssumps.Model.LitValue(a) != cnf.True {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestRepeatedAssumptionSolvesAreConsistent re-solves the same formula under
// many different assumption sets with a single solver instance (the
// incremental pattern) and cross-checks each answer against a fresh solver.
func TestRepeatedAssumptionSolvesAreConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	f := randomFormula(rng, 25, 95)
	shared := NewDefault(f)
	for i := 0; i < 50; i++ {
		var assumptions []cnf.Lit
		for j := 0; j < 3; j++ {
			v := cnf.Var(rng.Intn(f.NumVars) + 1)
			assumptions = append(assumptions, cnf.NewLit(v, rng.Intn(2) == 0))
		}
		got := shared.SolveWithAssumptions(assumptions)
		want := NewDefault(f).SolveWithAssumptions(assumptions)
		if got.Status != want.Status {
			t.Fatalf("iteration %d: shared solver says %v, fresh solver says %v (assumptions %v)",
				i, got.Status, want.Status, assumptions)
		}
	}
}

// TestSolveAfterUnsatAssumptions verifies the solver recovers after an
// assumption-driven UNSAT answer (no stale state corrupts later calls).
func TestSolveAfterUnsatAssumptions(t *testing.T) {
	f := cnf.New(4)
	f.AddClauseLits(1, 2)
	f.AddClauseLits(3, 4)
	s := NewDefault(f)
	if res := s.SolveWithAssumptions([]cnf.Lit{-1, -2}); res.Status != Unsat {
		t.Fatalf("expected UNSAT, got %v", res.Status)
	}
	if res := s.SolveWithAssumptions([]cnf.Lit{-3, -4}); res.Status != Unsat {
		t.Fatalf("expected UNSAT, got %v", res.Status)
	}
	if res := s.Solve(); res.Status != Sat {
		t.Fatalf("expected SAT with no assumptions, got %v", res.Status)
	}
	if res := s.SolveWithAssumptions([]cnf.Lit{1, 3}); res.Status != Sat {
		t.Fatalf("expected SAT under consistent assumptions, got %v", res.Status)
	}
}
