package solver

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"github.com/paper-repro/pdsat-go/internal/cnf"
	"github.com/paper-repro/pdsat-go/internal/encoder"
)

// Tests for construction by count (see "Construction" in the package
// comment): New sizes a solver from one pass over the formula and adds the
// clauses to slab-backed watch lists, AddClause on an empty solver grows
// everything as it goes.  The two must build the same solver, and what New
// allocates must not follow the clause count.

// diffNewVsAddClause builds the formula both ways and returns the first
// difference in state, right after capture and after a Reset + solve + Reset
// under the assumptions, or "".  AddClause stops at the first clause that
// makes the solver unsatisfiable where New goes on, so the formula is cut
// behind that clause.
func diffNewVsAddClause(f *cnf.Formula, opts Options, assumptions []cnf.Lit) string {
	added := New(&cnf.Formula{NumVars: f.NumVars}, opts)
	cut := &cnf.Formula{NumVars: f.NumVars}
	for _, c := range f.Clauses {
		cut.Clauses = append(cut.Clauses, c)
		if !added.AddClause(c) {
			break
		}
	}
	built := New(cut, opts)
	built.ensureBase()
	added.ensureBase()
	if d := diffSolverState(built, added); d != "" {
		return "after capture: " + d
	}
	var res [2]Result
	for i, s := range []*Solver{built, added} {
		s.Reset()
		res[i] = s.SolveWithAssumptions(assumptions)
		res[i].Stats.SolveTime = 0
		s.Reset()
	}
	if res[0].Status != res[1].Status || res[0].Stats != res[1].Stats {
		return fmt.Sprintf("solve: %v %+v, by AddClause %v %+v", res[0].Status, res[0].Stats, res[1].Status, res[1].Stats)
	}
	if d := diffSolverState(built, added); d != "" {
		return "after Reset, solve, Reset: " + d
	}
	return ""
}

func TestNewEqualsAddClause(t *testing.T) {
	lits := func(ls ...int) cnf.Clause {
		c := make(cnf.Clause, len(ls))
		for i, l := range ls {
			c[i] = cnf.Lit(l)
		}
		return c
	}
	formulas := map[string]*cnf.Formula{
		"duplicate literals":     {NumVars: 4, Clauses: []cnf.Clause{lits(3, 1, 3, -2, 1), lits(2, 2), lits(-4, 1, -4, 3)}},
		"tautologies":            {NumVars: 4, Clauses: []cnf.Clause{lits(1, -1), lits(2, 3, -2), lits(1, 2, 3), lits(-3, 4, 3, 9)}},
		"units propagate":        {NumVars: 5, Clauses: []cnf.Clause{lits(-1, 2), lits(-2, 3, 4), lits(1), lits(-3), lits(-4, 5, 1), lits(4, 5, -2)}},
		"root-satisfied literal": {NumVars: 4, Clauses: []cnf.Clause{lits(1), lits(1, 2, 3), lits(2, 3, 4), lits(-2, 1, 7)}},
		"root-falsified literal": {NumVars: 4, Clauses: []cnf.Clause{lits(-1), lits(-2), lits(1, 2, 3, 4), lits(1, 3), lits(2, -3, -4)}},
		"falsified to empty":     {NumVars: 3, Clauses: []cnf.Clause{lits(1, 2), lits(-1), lits(-2), lits(2, 3)}},
		"empty clause":           {NumVars: 3, Clauses: []cnf.Clause{lits(1, 2), lits(), lits(2, 3)}},
		"beyond NumVars":         {NumVars: 2, Clauses: []cnf.Clause{lits(1, 5), lits(-5, 6, 2), lits(7), lits(-7, 9, 1), lits(8, -8)}},
		"no variables declared":  {Clauses: []cnf.Clause{lits(2, 3), lits(-2, 3), lits(1, -3, 2)}},
		"php(5,4)":               mustPigeonhole(t, 5, 4),
		"chain":                  chainFormula(40),
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 40; i++ {
		n := 4 + rng.Intn(12)
		f := &cnf.Formula{NumVars: n}
		for range 4 * n {
			c := make(cnf.Clause, rng.Intn(5)) // empty now and then; duplicates and tautologies by chance
			for k := range c {
				c[k] = cnf.NewLit(cnf.Var(1+rng.Intn(n+2)), rng.Intn(2) == 0)
			}
			f.Clauses = append(f.Clauses, c)
		}
		formulas[fmt.Sprintf("random %d", i)] = f
	}
	for name, f := range formulas {
		for oname, opts := range resetOptionVariants() {
			if d := diffNewVsAddClause(f, opts, randomAssumptions(rng, max(f.NumVars, 3), 2)); d != "" {
				t.Errorf("%s/%s: %s", name, oname, d)
			}
		}
	}
}

// FuzzNewEqualsAddClause is TestNewEqualsAddClause over fuzz-chosen formulas.
// Input: data[0] declares 1 to 8 variables and picks the option variant; each
// following byte is one literal over the declared variables and three more
// (sign = bit 7), the zero byte ends a clause, so that two in a row are the
// empty clause.
func FuzzNewEqualsAddClause(f *testing.F) {
	f.Add([]byte{3, 1, 130, 1, 0, 2, 0, 131, 0, 1, 2, 3, 0})
	f.Add([]byte{1, 1, 129, 0, 5, 6, 0, 0, 2})
	f.Add([]byte{12, 1, 0, 129, 0, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		formula := &cnf.Formula{NumVars: 1 + int(data[0])%8}
		clause := cnf.Clause{}
		for _, b := range data[1:] {
			if b == 0 {
				formula.Clauses = append(formula.Clauses, clause)
				clause = cnf.Clause{}
				continue
			}
			clause = append(clause, cnf.NewLit(cnf.Var(int(b&0x7f)%(formula.NumVars+3)+1), b&0x80 == 0))
		}
		if len(clause) > 0 {
			formula.Clauses = append(formula.Clauses, clause)
		}
		name := []string{"default", "reduceDB"}[int(data[0]>>3)%2]
		assumptions := []cnf.Lit{cnf.NewLit(1, data[0]&0x80 == 0)}
		if d := diffNewVsAddClause(formula, resetOptionVariants()[name], assumptions); d != "" {
			t.Fatalf("%s, formula %+v: %s", name, formula, d)
		}
	})
}

// TestNewAllocsIndependentOfClauses pins the point of the counting pass by
// count.  Building a solver for the formulas of the bench's sampling shapes
// allocates a few hundred times where growing it clause by clause took
// 219 142 and 38 157 allocations, and no more when every clause is there
// twice.  What is left beside the arrays are watch lists that root-level
// propagation moves entries into until they outgrow their stretch of the
// slab — a matter of the units, not of the clause count: without the unit
// clauses the count is the arrays alone, and exactly the same for twice the
// clauses.
func TestNewAllocsIndependentOfClauses(t *testing.T) {
	for _, shape := range resetShapes {
		t.Run(shape.name, func(t *testing.T) {
			f, _ := shape.batch(t)
			noUnits := &cnf.Formula{NumVars: f.NumVars}
			for _, c := range f.Clauses {
				if len(c) > 1 {
					noUnits.Clauses = append(noUnits.Clauses, c)
				}
			}
			twice := func(f *cnf.Formula) *cnf.Formula {
				out := &cnf.Formula{NumVars: f.NumVars}
				for _, c := range f.Clauses {
					out.Clauses = append(out.Clauses, c, c)
				}
				return out
			}
			allocs := func(f *cnf.Formula) float64 {
				return testing.AllocsPerRun(3, func() {
					newSink = NewDefault(f)
					newSink.ensureBase()
				})
			}
			once, doubled := allocs(f), allocs(twice(f))
			arrays, arraysDoubled := allocs(noUnits), allocs(twice(noUnits))
			t.Logf("%d clauses: %.0f allocations, each twice: %.0f; without the units: %.0f and %.0f",
				len(f.Clauses), once, doubled, arrays, arraysDoubled)
			if once > 1000 || doubled > 1000 {
				t.Errorf("New allocated %.0f times for %d clauses and %.0f times for every clause twice, want under 1000", once, len(f.Clauses), doubled)
			}
			if arrays > 64 || arrays != arraysDoubled { // 30 in a plain build, 45 under -race
				t.Errorf("without units New allocated %.0f times for %d clauses and %.0f times for every clause twice, want the same, and at most 64",
					arrays, len(noUnits.Clauses), arraysDoubled)
			}
		})
	}
}

// TestConstructionReservesGrowth pins the capacity half of the construction
// contract from the side a benchmark's timed region sees it: whatever a
// solver built by New grows while it runs a batch — watch lists past their
// stretch of the slab, the arena past its reserve, the trail, the scratch
// buffers — it grows once, and keeps over Reset.  One pass over a batch of
// each sampling shape, and one 300-conflict subproblem of the a51-solve shape
// (a learned region Reset truncates), then the same pass again: no
// allocation.  (AllocsPerRun would not do: its warm-up call is the second
// pass.)
func TestConstructionReservesGrowth(t *testing.T) {
	shapes := append(resetShapes[:len(resetShapes):len(resetShapes)], struct {
		name  string
		batch func(testing.TB) (*cnf.Formula, [][]cnf.Lit)
	}{"a51-solve", func(tb testing.TB) (*cnf.Formula, [][]cnf.Lit) {
		return sessionBatch(tb, encoder.A51(), encoder.Config{KeystreamLen: 96, KnownSuffix: 38, Seed: 1007}, 8, 1)
	}})
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			f, batch := shape.batch(t)
			s := NewDefault(f)
			s.SetBudget(Budget{MaxConflicts: 300})
			var again [][]cnf.Lit // a SAT answer allocates its model
			conflicts := uint64(0)
			for _, a := range batch {
				s.Reset()
				if res := s.SolveWithAssumptions(a); res.Status != Sat {
					again = append(again, a)
					conflicts += res.Stats.Conflicts
				}
			}
			if len(again) == 0 || conflicts == 0 {
				t.Fatalf("%d subproblems without a model, %d conflicts: the test measures nothing", len(again), conflicts)
			}
			// Mallocs counts the whole process, and the runtime allocates now and
			// then: a pass the solver allocates in repeats (whatever it lost it
			// loses at every Reset), so the least of three passes is the solver's.
			least := ^uint64(0)
			for pass := 0; pass < 3 && least != 0; pass++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for _, a := range again {
					s.Reset()
					s.SolveWithAssumptions(a)
				}
				runtime.ReadMemStats(&after)
				least = min(least, after.Mallocs-before.Mallocs)
			}
			if least != 0 {
				t.Fatalf("every further pass over %d subproblems allocated, %d times at least; want 0", len(again), least)
			}
		})
	}
}
