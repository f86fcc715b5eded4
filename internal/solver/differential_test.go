package solver

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/paper-repro/pdsat-go/internal/cnf"
	"github.com/paper-repro/pdsat-go/internal/cnfgen"
)

// Differential tests: the arena solver must reproduce the
// preserved pointer implementation (refsolver_test.go) bit for bit — same
// statuses, same models, same statistics, same conflict activities — across
// one-shot solves, budgeted solves, assumption sessions with Reset and
// incremental solving.  Together with the goldens this pins the refactor's
// bit-identity contract from two directions: goldens against the recorded
// past, the refSolver against a live replay.

// seedStats projects a Stats value onto the fields the pointer implementation
// maintains.  The arena solver's new counters (ReduceDBs, tier counts,
// ArenaBytes) have no refSolver counterpart and are asserted separately.
func seedStats(st Stats) Stats {
	return Stats{
		Decisions:    st.Decisions,
		Propagations: st.Propagations,
		Conflicts:    st.Conflicts,
		Restarts:     st.Restarts,
		Learned:      st.Learned,
		Removed:      st.Removed,
		MaxLevel:     st.MaxLevel,
	}
}

func sameResult(t *testing.T, tag string, got, want Result) {
	t.Helper()
	if got.Status != want.Status {
		t.Fatalf("%s: status mismatch: arena=%v ref=%v", tag, got.Status, want.Status)
	}
	if got.Interrupted != want.Interrupted {
		t.Fatalf("%s: interrupted mismatch: arena=%v ref=%v", tag, got.Interrupted, want.Interrupted)
	}
	if g, w := seedStats(got.Stats), seedStats(want.Stats); g != w {
		t.Fatalf("%s: stats mismatch:\narena %+v\nref   %+v", tag, g, w)
	}
	if len(got.Model) != len(want.Model) {
		t.Fatalf("%s: model length mismatch: arena=%d ref=%d", tag, len(got.Model), len(want.Model))
	}
	for i := range got.Model {
		if got.Model[i] != want.Model[i] {
			t.Fatalf("%s: model differs at var %d: arena=%v ref=%v", tag, i, got.Model[i], want.Model[i])
		}
	}
}

func sameActivities(t *testing.T, tag string, s *Solver, r *refSolver) {
	t.Helper()
	ga, wa := s.ConflictActivities(), r.ConflictActivities()
	if len(ga) != len(wa) {
		t.Fatalf("%s: activity length mismatch: arena=%d ref=%d", tag, len(ga), len(wa))
	}
	for i := range ga {
		if ga[i] != wa[i] {
			t.Fatalf("%s: conflict activity differs at var %d: arena=%v ref=%v", tag, i, ga[i], wa[i])
		}
	}
}

func mustPigeonhole(t *testing.T, pigeons, holes int) *cnf.Formula {
	t.Helper()
	f, err := cnfgen.Pigeonhole(pigeons, holes)
	if err != nil {
		t.Fatalf("Pigeonhole(%d,%d): %v", pigeons, holes, err)
	}
	return f
}

func mustRandom3SAT(t *testing.T, seed int64, vars int, ratio float64) *cnf.Formula {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	f, err := cnfgen.Random3SAT(rng, vars, ratio)
	if err != nil {
		t.Fatalf("Random3SAT(seed=%d): %v", seed, err)
	}
	return f
}

// diffFormulas are the formulas the differential tests solve: pigeonhole and
// random 3-SAT instances that take restarts and learned clauses, and small
// hand-made ones for every path of construction's normalisation and
// root-level simplification, against the reference's clause-by-clause build.
func diffFormulas(t *testing.T) map[string]*cnf.Formula {
	t.Helper()
	lits := func(ls ...int) cnf.Clause {
		c := make(cnf.Clause, len(ls))
		for i, l := range ls {
			c[i] = cnf.Lit(l)
		}
		return c
	}
	fs := map[string]*cnf.Formula{
		"php_6_5":                mustPigeonhole(t, 6, 5),
		"php_4_4":                mustPigeonhole(t, 4, 4),
		"php_7_6":                mustPigeonhole(t, 7, 6),
		"duplicate literals":     {NumVars: 4, Clauses: []cnf.Clause{lits(3, 1, 3, -2, 1), lits(2, 2), lits(-4, 1, -4, 3)}},
		"tautologies":            {NumVars: 4, Clauses: []cnf.Clause{lits(1, -1), lits(2, 3, -2), lits(1, 2, 3), lits(-3, 4, 3, 9)}},
		"units propagate":        {NumVars: 5, Clauses: []cnf.Clause{lits(-1, 2), lits(-2, 3, 4), lits(1), lits(-3), lits(-4, 5, 1), lits(4, 5, -2)}},
		"root-satisfied literal": {NumVars: 4, Clauses: []cnf.Clause{lits(1), lits(1, 2, 3), lits(2, 3, 4), lits(-2, 1, 7)}},
		"root-falsified literal": {NumVars: 4, Clauses: []cnf.Clause{lits(-1), lits(-2), lits(1, 2, 3, 4), lits(1, 3), lits(2, -3, -4)}},
		"falsified to empty":     {NumVars: 3, Clauses: []cnf.Clause{lits(1, 2), lits(-1), lits(-2), lits(2, 3)}},
		"empty clause":           {NumVars: 3, Clauses: []cnf.Clause{lits(1, 2), lits(), lits(2, 3)}},
		"beyond NumVars":         {NumVars: 2, Clauses: []cnf.Clause{lits(1, 5), lits(-5, 6, 2), lits(7), lits(-7, 9, 1), lits(8, -8)}},
		"no variables declared":  {Clauses: []cnf.Clause{lits(2, 3), lits(-2, 3), lits(1, -3, 2)}},
		"chain":                  chainFormula(40),
	}
	for seed := int64(1); seed <= 4; seed++ {
		fs[fmt.Sprintf("rand3sat_%d", seed)] = mustRandom3SAT(t, seed, 60, 4.2)
	}
	return fs
}

// declared returns f with NumVars raised to the largest variable its clauses
// name.  New makes every such variable; the reference makes one only when
// its construction reaches the literal, which a tautology, or a clause
// satisfied at the root before that literal, never does.  Given the count up
// front, the reference makes the variables New does, in the same order.
func declared(f *cnf.Formula) *cnf.Formula {
	g := *f
	for _, c := range f.Clauses {
		g.NumVars = max(g.NumVars, int(c.MaxVar()))
	}
	return &g
}

func TestArenaMatchesRefSolverOneShot(t *testing.T) {
	optVariants := map[string]Options{
		"default": DefaultOptions(),
		"reduce_heavy": func() Options {
			o := DefaultOptions()
			o.MaxLearnedFactor = 0.25
			return o
		}(),
		"no_minimize_no_phase": func() Options {
			o := DefaultOptions()
			o.MinimizeLearned = false
			o.PhaseSaving = false
			o.DefaultPhase = true
			o.RestartBase = 50
			return o
		}(),
	}
	for fname, f := range diffFormulas(t) {
		for oname, opts := range optVariants {
			tag := fname + "/" + oname
			s := New(f, opts)
			r := newRefSolver(declared(f), opts)
			sameResult(t, tag, s.Solve(), r.Solve())
			sameActivities(t, tag, s, r)
		}
	}
}

func TestArenaMatchesRefSolverBudgeted(t *testing.T) {
	f := mustPigeonhole(t, 8, 7)
	for _, b := range []Budget{
		{MaxConflicts: 50},
		{MaxConflicts: 500},
		{MaxPropagations: 2000},
	} {
		tag := fmt.Sprintf("budget_%+v", b)
		s := New(f, DefaultOptions())
		s.SetBudget(b)
		r := newRefSolver(f, DefaultOptions())
		r.SetBudget(b)
		sameResult(t, tag, s.Solve(), r.Solve())
		sameActivities(t, tag, s, r)
	}
}

func TestArenaMatchesRefSolverResetSession(t *testing.T) {
	f := mustPigeonhole(t, 6, 5)
	s := New(f, DefaultOptions())
	r := newRefSolver(f, DefaultOptions())
	if bs, br := seedStats(s.BaseStats()), seedStats(r.BaseStats()); bs != br {
		t.Fatalf("base stats mismatch:\narena %+v\nref   %+v", bs, br)
	}
	rng := rand.New(rand.NewSource(11))
	n := f.NumVars
	for call := 0; call < 8; call++ {
		s.Reset()
		r.Reset()
		perm := rng.Perm(n)
		assumps := make([]cnf.Lit, 0, 3)
		for i := 0; i < 3 && i < len(perm); i++ {
			assumps = append(assumps, cnf.NewLit(cnf.Var(perm[i]+1), i%2 == 0))
		}
		tag := fmt.Sprintf("reset_call_%d", call)
		sameResult(t, tag, s.SolveWithAssumptions(assumps), r.SolveWithAssumptions(assumps))
		sameActivities(t, tag, s, r)
		if gs, ws := seedStats(s.Stats()), seedStats(r.Stats()); gs != ws {
			t.Fatalf("%s: lifetime stats mismatch:\narena %+v\nref   %+v", tag, gs, ws)
		}
	}
}

func TestArenaMatchesRefSolverIncremental(t *testing.T) {
	f := mustRandom3SAT(t, 5, 70, 4.0)
	s := New(f, DefaultOptions())
	r := newRefSolver(f, DefaultOptions())
	arng := rand.New(rand.NewSource(17))
	for call := 0; call < 3; call++ {
		perm := arng.Perm(f.NumVars)
		assumps := make([]cnf.Lit, 0, 4)
		for i := 0; i < 4; i++ {
			assumps = append(assumps, cnf.NewLit(cnf.Var(perm[i]+1), i%2 == 1))
		}
		tag := fmt.Sprintf("incremental_call_%d", call)
		sameResult(t, tag, s.SolveWithAssumptions(assumps), r.SolveWithAssumptions(assumps))
		sameActivities(t, tag, s, r)
	}
}
