package solver

import (
	"runtime"
	"slices"
	"testing"

	"github.com/paper-repro/pdsat-go/internal/cnf"
	"github.com/paper-repro/pdsat-go/internal/encoder"
)

// Tests for construction by count (see "Construction" in the package
// comment): New sizes a solver from one pass over the formula and adds the
// clauses to slab-backed watch lists, and what it allocates must not follow
// the clause count.  That it builds the same solver, clause order and
// root-level trail included, is the goldens' part (golden_test.go, the
// "oneshot/" scenarios).

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

// TestTautologiesAreNotStored pins the tautology rule of normalizeClause
// directly: clauses that hold a literal and its negation, mixed in among a
// formula's clauses, leave the solver New builds as the formula without them
// — the same stored clause count and arena bytes, and the same first solve.
// The tautologies are over the formula's own variables, with the pair apart
// and repeated literals beside it, so that nothing but the rule drops them.
func TestTautologiesAreNotStored(t *testing.T) {
	plain := mustRandom3SAT(t, 5, 60, 4.2)
	mixed := &cnf.Formula{NumVars: plain.NumVars}
	for i, c := range plain.Clauses {
		switch i % 3 {
		case 0: // the clause again, with the negation of its first literal last
			mixed.Clauses = append(mixed.Clauses, append(slices.Clone(c), c[0].Neg()))
		case 1: // a binary tautology with a literal repeated
			mixed.Clauses = append(mixed.Clauses, cnf.Clause{c[1].Neg(), c[1], c[1]})
		}
		mixed.Clauses = append(mixed.Clauses, c)
	}
	want, got := NewDefault(plain), NewDefault(mixed)
	if len(got.clauses) != len(want.clauses) || got.Stats().ArenaBytes != want.Stats().ArenaBytes {
		t.Fatalf("with %d tautologies mixed in: %d clauses stored in %d arena bytes, without them %d in %d",
			len(mixed.Clauses)-len(plain.Clauses), len(got.clauses), got.Stats().ArenaBytes, len(want.clauses), want.Stats().ArenaBytes)
	}
	g, w := got.Solve(), want.Solve()
	if w.Stats.Conflicts == 0 {
		t.Fatal("the first solve had no conflict; the test compares little")
	}
	if g.Status != w.Status || !statsEqual(g.Stats, w.Stats) || !modelsEqual(g.Model, w.Model) {
		t.Fatalf("first solve with tautologies: %v %+v, without: %v %+v", g.Status, g.Stats, w.Status, w.Stats)
	}
}
