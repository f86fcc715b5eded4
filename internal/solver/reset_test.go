package solver

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"github.com/paper-repro/pdsat-go/internal/cnf"
	"github.com/paper-repro/pdsat-go/internal/cnfgen"
)

// Tests for the dirty-tracked Reset.  A missed mark is silent — the solver
// still answers SAT/UNSAT correctly, it just performs a different search
// than a fresh one — so the tests here compare the complete internal state
// after Reset against a freshly constructed and captured solver, field by
// field, instead of comparing answers.

// diffSolverState reports the first field in which two solvers differ, or ""
// when every piece of search-relevant state is equal.  Configuration (options,
// budget) and scratch buffers whose contents never survive a call are not
// compared.
func diffSolverState(got, want *Solver) string {
	switch {
	case got.numVars != want.numVars:
		return fmt.Sprintf("numVars %d, want %d", got.numVars, want.numVars)
	case !slices.Equal(got.ar.data, want.ar.data):
		return "arena words differ"
	case !slices.Equal(got.clauses, want.clauses):
		return "original clause list differs"
	case len(got.learnts) != 0 || len(want.learnts) != 0:
		return fmt.Sprintf("learned clauses: %d and %d, want none", len(got.learnts), len(want.learnts))
	case !slices.Equal(got.clauseAct, want.clauseAct):
		return "clause activities differ"
	case !slices.Equal(got.vals, want.vals):
		return "literal values differ"
	case !slices.Equal(got.polarity, want.polarity):
		return "polarity differs"
	case !slices.Equal(got.reason, want.reason):
		return "reasons differ"
	case !slices.Equal(got.level, want.level):
		return "levels differ"
	case !slices.Equal(got.activity, want.activity):
		return "variable activities differ"
	case !slices.Equal(got.confAct, want.confAct):
		return "conflict activities differ"
	case !slices.Equal(got.seen, want.seen):
		return "seen flags differ"
	case !slices.Equal(got.trail, want.trail):
		return "trail differs"
	case len(got.trailLim) != 0 || len(want.trailLim) != 0:
		return "decision levels left open"
	case got.qhead != want.qhead:
		return fmt.Sprintf("qhead %d, want %d", got.qhead, want.qhead)
	case !slices.Equal(got.order.heap, want.order.heap):
		return "decision heap differs"
	case !slices.Equal(got.order.indices, want.order.indices):
		return "decision heap indices differ"
	case got.varInc != want.varInc || got.clauseInc != want.clauseInc:
		return "activity increments differ"
	case got.arenaBase != want.arenaBase:
		return fmt.Sprintf("arenaBase %d, want %d", got.arenaBase, want.arenaBase)
	case got.garbageWords != want.garbageWords:
		return fmt.Sprintf("garbageWords %d, want %d", got.garbageWords, want.garbageWords)
	case got.stats != want.stats:
		return fmt.Sprintf("stats %+v, want %+v", got.stats, want.stats)
	case got.okay != want.okay:
		return fmt.Sprintf("okay %v, want %v", got.okay, want.okay)
	case got.interrupt.Load() || want.interrupt.Load():
		return "interrupt flag left set"
	case len(got.watches) != len(want.watches):
		return fmt.Sprintf("%d watch lists, want %d", len(got.watches), len(want.watches))
	}
	for l := range got.watches {
		if !slices.Equal(got.watches[l], want.watches[l]) {
			return fmt.Sprintf("watch list of literal %d differs: %v, want %v", l, got.watches[l], want.watches[l])
		}
	}
	for _, s := range []*Solver{got, want} {
		if len(s.dirtyLits) != 0 || len(s.dirtyClauses) != 0 || len(s.dirtyActs) != 0 || len(s.appLits) != 0 ||
			slices.ContainsFunc(s.litMark, func(m litMark) bool { return m != litClean }) {
			return "dirty marks left behind"
		}
		if set := func(w uint64) bool { return w != 0 }; slices.ContainsFunc(s.bumpedSet, set) || slices.ContainsFunc(s.bumpedSum, set) || s.unharvested != 0 {
			return "bumped variables left in the set"
		}
	}
	return ""
}

// assertAssignmentInvariant checks the literal-indexed value array of a
// solver that is not in the middle of a search against its trail, and
// returns a description of the first violation or "": there are two entries
// per variable, the two literals of a variable are true/false, false/true or
// both undefined, and exactly the literals on the trail are true.  The array
// is written in pairs at four places (enqueue, cancelUntil, Reset,
// makeVars); a write of one polarity only, or a length that falls out of
// step with the per-variable arrays, is what this catches.
func assertAssignmentInvariant(s *Solver) string {
	if len(s.vals) != 2*int(s.numVars) {
		return fmt.Sprintf("%d literal values for %d variables", len(s.vals), s.numVars)
	}
	onTrail := make([]bool, len(s.vals))
	for _, l := range s.trail {
		onTrail[l] = true
	}
	for i, val := range s.vals {
		l := ilit(i)
		switch other := s.vals[l.neg()]; {
		case val == lTrue && other != lFalse, val == lFalse && other != lTrue, val == lUndef && other != lUndef:
			return fmt.Sprintf("literal %d has value %d, its negation %d", l, val, other)
		case (val == lTrue) != onTrail[l]:
			return fmt.Sprintf("literal %d: value %d, on the trail: %v", l, val, onTrail[l])
		}
	}
	return ""
}

// resetScript drives a solver through a byte-coded sequence of operations
// (the fuzz target feeds it arbitrary bytes, the property test random ones)
// and checks, at every Reset, that the state equals a fresh solver's, and
// after every operation that the literal values agree with the trail.
type resetScript struct {
	data []byte
	pos  int
	// compactions counts the operations in which compactLearned ran: it
	// ran if the solve stored more learned clauses than the activity table
	// grew by, since only compaction cuts the table short of Reset.
	compactions int
}

func (r *resetScript) done() bool { return r.pos >= len(r.data) }

func (r *resetScript) next() int {
	if r.done() {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return int(b)
}

// lits draws n literals over variables 1..numVars.
func (r *resetScript) lits(n, numVars int) []cnf.Lit {
	out := make([]cnf.Lit, 0, n)
	for i := 0; i < n; i++ {
		b := r.next()
		out = append(out, cnf.NewLit(cnf.Var(b%128%numVars+1), b&0x80 == 0))
	}
	return out
}

// run executes the script on a solver for f and returns a description of
// the first divergence from a fresh solver, or "".
func (r *resetScript) run(f *cnf.Formula, opts Options) string {
	s := New(f, opts)
	check := func(step int) string {
		fresh := New(f, opts)
		s.Reset()
		if d := diffSolverState(s, fresh); d != "" {
			return fmt.Sprintf("after step %d: %s", step, d)
		}
		if d := assertAssignmentInvariant(s); d != "" {
			return fmt.Sprintf("after the Reset of step %d: %s", step, d)
		}
		return ""
	}
	step := 0
	for ; !r.done(); step++ {
		n := f.NumVars
		acts, learned := len(s.clauseAct), int(s.stats.Learned)
		op := r.next()
		switch op % 8 {
		case 0, 1, 5: // plain solve under a few assumptions
			s.SolveWithAssumptions(r.lits(op/8%6, n))
		case 2: // truncated by a conflict budget
			s.SetBudget(Budget{MaxConflicts: s.Stats().Conflicts + uint64(1+op/8%8)})
			s.SolveWithAssumptions(r.lits(r.next()%4, n))
			s.SetBudget(Budget{})
		case 3: // truncated by a propagation budget
			s.SetBudget(Budget{MaxPropagations: s.Stats().Propagations + uint64(1+op/8)})
			s.SolveWithAssumptions(r.lits(r.next()%4, n))
			s.SetBudget(Budget{})
		case 4: // interrupted before it starts searching
			s.Interrupt()
			s.SolveWithAssumptions(r.lits(op/8%4, n))
			s.ClearInterrupt()
		case 6: // no operation; it draws the literals of the clause it once added, so every corpus input replays its other operations unchanged
			r.lits(1+op/8%4, n)
		case 7:
			if d := check(step); d != "" {
				return d
			}
		}
		if op%8 != 7 && int(s.stats.Learned)-learned > len(s.clauseAct)-acts { // a Reset cuts the table itself
			r.compactions++
		}
		if d := assertAssignmentInvariant(s); d != "" {
			return fmt.Sprintf("after step %d: %s", step, d)
		}
	}
	return check(step)
}

// resetOptionVariants are the options the Reset tests run under: the
// default, and a bound so low that reduceDB fires, and compacts, after a
// handful of learned clauses.
func resetOptionVariants() map[string]Options {
	reduce := DefaultOptions()
	reduce.MaxLearnedFactor = 0.02
	return map[string]Options{"default": DefaultOptions(), "reduceDB": reduce}
}

// TestResetEqualsFresh is the property test behind the dirty-tracked Reset:
// after arbitrary sequences of solves — short, budget-truncated,
// interrupted, with and without reductions of the learned-clause database —
// Reset leaves every field equal to a freshly constructed solver's.
func TestResetEqualsFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	r3, err := cnfgen.Random3SAT(rng, 60, 4.2)
	if err != nil {
		t.Fatal(err)
	}
	// Units and implications in front of a random core, so the root-level
	// trail is non-empty and construction-time propagation permutes clauses
	// before the snapshot is taken.
	rooted := &cnf.Formula{NumVars: r3.NumVars}
	rooted.Clauses = append(rooted.Clauses, cnf.Clause{cnf.NewLit(1, true)}, cnf.Clause{cnf.NewLit(1, false), cnf.NewLit(2, true)},
		cnf.Clause{cnf.NewLit(2, false), cnf.NewLit(3, false), cnf.NewLit(4, true)})
	rooted.Clauses = append(rooted.Clauses, r3.Clauses...)
	formulas := map[string]*cnf.Formula{"php(6,5)": mustPigeonhole(t, 6, 5), "rand3sat": r3, "rooted": rooted}
	for fname, f := range formulas {
		for oname, opts := range resetOptionVariants() {
			for i := 0; i < 20; i++ {
				script := make([]byte, 40)
				rng.Read(script)
				if d := (&resetScript{data: script}).run(f, opts); d != "" {
					t.Fatalf("%s/%s script %d (%v): %s", fname, oname, i, script, d)
				}
			}
		}
	}
}

// FuzzResetEqualsFresh is TestResetEqualsFresh over fuzz-chosen formulas
// and operation sequences.  Input: data[0] picks the number of variables
// and the option variant, data[1] the number of following bytes that encode
// the formula (see fuzzFormula), the rest is the script.
func FuzzResetEqualsFresh(f *testing.F) {
	f.Add([]byte{2, 8, 1, 130, 0, 2, 131, 0, 3, 1, 0, 7, 16, 2, 3, 7})
	f.Add([]byte{9, 12, 1, 2, 3, 0, 129, 130, 0, 131, 4, 0, 5, 6, 6, 1, 0, 14, 1, 2, 5, 1, 7, 46, 3, 9})
	f.Add([]byte{23, 3, 1, 0, 129, 0, 7}) // UNSAT at construction
	f.Add(compactingResetSeed)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		if name, formula, d, _ := runResetInput(data); d != "" {
			t.Fatalf("%s, formula %+v: %s", name, formula, d)
		}
	})
}

// compactingResetSeed is an input of FuzzResetEqualsFresh whose solves reach
// compactLearned, which renumbers the activity slots: ten variables under
// the reduceDB variant, 19 random ternary clauses, and the script solve,
// solve, solve, Reset.  TestCompactingResetSeedCompacts holds the seed to
// compacting.
var compactingResetSeed = []byte{15, 76,
	137, 4, 129, 0, 129, 5, 132, 0, 8, 133, 137, 0, 10, 137, 134, 0, 137, 1, 6, 0, 8, 131, 131, 0, 134, 1, 131, 0,
	2, 8, 129, 0, 2, 131, 7, 0, 135, 9, 2, 0, 9, 129, 9, 0, 135, 5, 132, 0, 6, 4, 2, 0, 3, 4, 137, 0,
	5, 2, 134, 0, 3, 130, 132, 0, 7, 7, 136, 0, 3, 9, 7, 0, 3, 4, 2, 0,
	0, 0, 0, 7}

// TestCompactingResetSeedCompacts checks that the corpus seed meant to reach
// compactLearned does, so that Reset after a renumbering of the activities is
// fuzzed from a known start and not only reachable by chance.
func TestCompactingResetSeedCompacts(t *testing.T) {
	name, formula, d, compactions := runResetInput(compactingResetSeed)
	if d != "" {
		t.Fatalf("%s, formula %+v: %s", name, formula, d)
	}
	if name != "reduceDB" || compactions == 0 {
		t.Fatalf("the seed runs the %s variant and compacts in %d operations, want reduceDB and at least one", name, compactions)
	}
}

// runResetInput runs one input of FuzzResetEqualsFresh and returns the
// option variant, the formula, the first divergence from a fresh solver or
// "", and the number of operations that compacted the learned region.
func runResetInput(data []byte) (name string, formula *cnf.Formula, diff string, compactions int) {
	n := min(int(data[1]), len(data)-2)
	formula = fuzzFormula(append([]byte{data[0]}, data[2:2+n]...))
	name = []string{"default", "reduceDB"}[int(data[0]>>3)%2]
	r := &resetScript{data: data[2+n:]}
	diff = r.run(formula, resetOptionVariants()[name])
	return name, formula, diff, r.compactions
}

// TestResetCostIsProportionalToTouched pins the point of the dirty marks by
// count, not by clock.  After one short solve on each of the bench's two
// sampling shapes at least a quarter of the marked watch lists were only
// appended to, which Reset restores by cutting them back without a copy; on
// the a51-search instance the arena words, watch entries and variables it
// does copy are each under a tenth of the formula's; and a warmed-up Reset
// allocates nothing.
func TestResetCostIsProportionalToTouched(t *testing.T) {
	for _, shape := range resetShapes {
		t.Run(shape.name, func(t *testing.T) {
			f, batch := shape.batch(t)
			s := NewDefault(f)
			s.Reset()
			res := s.SolveWithAssumptions(batch[0])
			if res.Stats.Propagations > 1000 {
				t.Fatalf("the sampled subproblem is not short: %d propagations", res.Stats.Propagations)
			}
			b := s.base
			words, entries, cut := 0, 0, 0
			for _, c := range s.dirtyClauses {
				words += hdrWords + int(s.ar.size(c))
			}
			// Reset marks the root-level tail itself, so what it will copy is
			// known only after that sweep; it is counted as copied here.
			copied := len(s.dirtyLits) + len(s.trail) - b.trailLen
			for _, l := range s.dirtyLits {
				entries += int(b.watchOff[l+1] - b.watchOff[l])
			}
			for _, l := range s.appLits {
				if s.litMark[l] == litAppended {
					cut++
				}
			}
			if words == 0 || entries == 0 || cut == 0 {
				t.Fatalf("the solve left no marks: %d words, %d watch entries, %d lists to cut back", words, entries, cut)
			}
			if 4*cut < cut+copied {
				t.Fatalf("%d of %d marked watch lists are restored by truncation, want at least a quarter", cut, cut+copied)
			}
			if shape.name == "a51-search" && (10*words > len(b.arena) || 10*entries > len(b.watch) || 10*(cut+copied) > s.NumVars()) {
				t.Fatalf("Reset restores %d of %d arena words, copies %d of %d watch entries, visits %d literals of %d variables; want under a tenth each",
					words, len(b.arena), entries, len(b.watch), cut+copied, s.NumVars())
			}
			// Once the watch lists have reached their steady-state capacities
			// (the mark lists are sized ahead of the search), a Reset that has
			// real work to undo allocates nothing.
			for _, a := range batch {
				s.Reset()
				s.SolveWithAssumptions(a)
			}
			var mallocs uint64
			var before, after runtime.MemStats
			for _, a := range batch {
				s.SolveWithAssumptions(a)
				runtime.ReadMemStats(&before)
				s.Reset()
				runtime.ReadMemStats(&after)
				mallocs += after.Mallocs - before.Mallocs
			}
			if mallocs != 0 {
				t.Fatalf("%d Resets after warm-up allocated %d times, want 0", len(batch), mallocs)
			}
		})
	}
}

// TestSparseConflictActivities checks the harvest against the dense counts
// it takes: exactly their non-zero entries, in ascending variable order and
// behind what dst holds, whatever happened to the solver since its last
// Reset; the counts are zero behind it, so a harvest straight after it is
// empty, and the harvests of a run of solves add up to one harvest after them.
func TestSparseConflictActivities(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f, err := cnfgen.Random3SAT(rng, 70, 4.2)
	if err != nil {
		t.Fatal(err)
	}
	// check harvests behind one entry, compares that with the dense counts
	// read before, and returns the number of variables harvested.
	check := func(t *testing.T, s *Solver, when string) int {
		t.Helper()
		want := SparseActivities{Vars: []cnf.Var{0}, Acts: []float64{-1}}
		for v, a := range conflictCounts(s) {
			if a != 0 {
				want.Vars = append(want.Vars, cnf.Var(v))
				want.Acts = append(want.Acts, a)
			}
		}
		if s.unharvested != len(want.Vars)-1 {
			t.Fatalf("%s: %d variables counted unharvested, %d have a count", when, s.unharvested, len(want.Vars)-1)
		}
		got := s.AppendConflictActivities(SparseActivities{Vars: []cnf.Var{0}, Acts: []float64{-1}})
		if !slices.Equal(got.Vars, want.Vars) || !slices.Equal(got.Acts, want.Acts) {
			t.Fatalf("%s: harvest behind one entry %+v, dense non-zeros %+v", when, got, want)
		}
		if slices.ContainsFunc(conflictCounts(s), func(a float64) bool { return a != 0 }) {
			t.Fatalf("%s: the harvest left counts behind", when)
		}
		if again := s.AppendConflictActivities(SparseActivities{}); len(again.Vars) != 0 || len(again.Acts) != 0 {
			t.Fatalf("%s: a harvest straight after a harvest took %+v", when, again)
		}
		return len(want.Vars) - 1
	}

	t.Run("pristine and retained solves", func(t *testing.T) {
		s := NewDefault(f)
		if got := s.AppendConflictActivities(SparseActivities{}); len(got.Vars) != 0 || len(got.Acts) != 0 {
			t.Fatalf("unsolved solver reports activities %+v", got)
		}
		nonZero := 0
		for call := 0; call < 12; call++ {
			if call%3 == 0 {
				s.Reset() // every third call starts pristine, the others retain
			}
			s.SolveWithAssumptions(randomAssumptions(rng, f.NumVars, 1+rng.Intn(4)))
			nonZero += check(t, s, fmt.Sprintf("call %d", call))
		}
		if nonZero == 0 {
			t.Fatal("no solve produced conflict activity; the test compares nothing")
		}
	})

	// What a retained solve's harvest takes is its own contribution: the
	// harvests of k solves add up to one harvest after the same k solves on
	// a twin, which taking the counts leaves on the same search.
	t.Run("harvests add up", func(t *testing.T) {
		s, twin := NewDefault(f), NewDefault(f)
		sum, whole := make([]float64, f.NumVars+1), make([]float64, f.NumVars+1)
		for k := 0; k < 8; k++ {
			a := randomAssumptions(rng, f.NumVars, 1+rng.Intn(4))
			got, want := s.SolveWithAssumptions(a), twin.SolveWithAssumptions(a)
			if got.Status != want.Status || !statsEqual(got.Stats, want.Stats) {
				t.Fatalf("solve %d: %v %+v after a harvest, %v %+v without", k, got.Status, got.Stats, want.Status, want.Stats)
			}
			h := s.AppendConflictActivities(SparseActivities{})
			for i, v := range h.Vars {
				sum[v] += h.Acts[i]
			}
		}
		h := twin.AppendConflictActivities(SparseActivities{})
		for i, v := range h.Vars {
			whole[v] = h.Acts[i]
		}
		if len(h.Vars) == 0 || !slices.Equal(sum, whole) {
			t.Fatalf("8 harvests add up to %v, one harvest after the 8 solves is %v", sum, whole)
		}
	})

	// A VSIDS rescale multiplies every activity by 1e-100; the conflict
	// activities, and what is listed, must not follow.
	t.Run("VSIDS rescale", func(t *testing.T) {
		opts := DefaultOptions()
		opts.VarDecay = 0.5 // the increment doubles per conflict: 1e100 every 333
		s := New(mustPigeonhole(t, 7, 6), opts)
		if res := s.Solve(); res.Stats.Conflicts < 400 || s.varInc > 2e100 {
			t.Fatalf("%d conflicts, increment %g: want a rescale behind it", res.Stats.Conflicts, s.varInc)
		}
		check(t, s, "after a rescale")
	})

	// The ascending harvest reads the bumped variables off a two-level bitmap,
	// 64 variables a word and 64 words a summary bit; a pigeonhole formula
	// spread over 6000-odd variables bumps some in many words of both levels.
	t.Run("variables across words", func(t *testing.T) {
		php := mustPigeonhole(t, 7, 6)
		const stride = 151
		spread := &cnf.Formula{NumVars: php.NumVars * stride}
		for _, c := range php.Clauses {
			sc := make(cnf.Clause, len(c))
			for i, l := range c {
				sc[i] = cnf.NewLit(l.Var()*stride, l.Positive())
			}
			spread.Clauses = append(spread.Clauses, sc)
		}
		s := NewDefault(spread)
		s.SetBudget(Budget{MaxConflicts: 300})
		s.Solve()
		if n := check(t, s, "after a spread pigeonhole search"); n < 20 {
			t.Fatalf("%d variables bumped, want them in many words", n)
		}
		s.Reset()
		if d := diffSolverState(s, NewDefault(spread)); d != "" {
			t.Fatalf("Reset after a harvest: %s", d)
		}
		check(t, s, "after the Reset")
		s.SolveWithAssumptions([]cnf.Lit{cnf.NewLit(stride, true), cnf.NewLit(41*stride, true)})
		check(t, s, "after a solve under assumptions")
	})

	t.Run("a conflict-free harvest allocates nothing", func(t *testing.T) {
		s := NewDefault(chainFormula(50))
		s.Reset()
		if res := s.SolveWithAssumptions([]cnf.Lit{cnf.NewLit(1, true)}); res.Status != Sat || res.Stats.Conflicts != 0 {
			t.Fatalf("the chain under its first variable: %v after %d conflicts, want SAT after none", res.Status, res.Stats.Conflicts)
		}
		if allocs := testing.AllocsPerRun(100, func() { harvestSink = s.AppendConflictActivities(harvestSink.Emptied()) }); allocs != 0 {
			t.Fatalf("the harvest allocated %.0f times, want 0", allocs)
		}
	})
}

// TestRemoveWatchIsAFullMark pins the one mark the Reset scripts cannot
// reach: reduceDB detaches learned clauses only, whose watch entries sit
// behind the snapshot's in every list, so there a removal never disturbs the
// prefix that an appended mark promises.  Removing an original's entry does —
// the last entry takes its place — and must therefore mark the list
// rewritten.
func TestRemoveWatchIsAFullMark(t *testing.T) {
	f := mustRandom3SAT(t, 11, 30, 4.0)
	s, fresh := NewDefault(f), NewDefault(f)
	detached := 0
	for _, c := range s.clauses {
		l := s.ar.lits(c)[0].neg()
		if ws := s.watches[l]; len(ws) > 1 && ws[len(ws)-1].clause() != c {
			s.detach(c)
			detached++
		}
	}
	if detached == 0 {
		t.Fatal("no clause to detach from the middle of a watch list")
	}
	s.Reset()
	if d := diffSolverState(s, fresh); d != "" {
		t.Fatal(d)
	}
}
