package solver

import (
	"fmt"
	"slices"
	"testing"

	"github.com/paper-repro/pdsat-go/internal/encoder"
)

// reduceOften returns the default options with a bound low enough that small
// test formulas reduce and compact many times.
func reduceOften() Options {
	o := DefaultOptions()
	o.MaxLearnedFactor = 0.25
	return o
}

// TestReduceDBReclaimsArena checks the part of reduceDB the goldens cannot
// see: what it removes is marked dead and compacted away, and what it keeps
// is still where the learned list, the watch lists and the arena say it is.
func TestReduceDBReclaimsArena(t *testing.T) {
	f := mustPigeonhole(t, 8, 7)
	s := New(f, reduceOften())
	if res := s.Solve(); res.Status != Unsat {
		t.Fatalf("php(8,7) should be UNSAT, got %v", res.Status)
	}
	st := s.Stats()
	if st.ReduceDBs < 2 || st.Removed == 0 {
		t.Fatalf("%d reductions removed %d clauses, want at least 2 and some", st.ReduceDBs, st.Removed)
	}
	attached := func(c cref) bool {
		for _, l := range s.ar.lits(c)[:2] {
			found := false
			for _, w := range s.watches[l.neg()] {
				found = found || (w.clause() == c && w.isBinary() == (s.ar.size(c) == 2))
			}
			if !found {
				return false
			}
		}
		return true
	}
	live := make(map[cref]bool, len(s.learnts))
	for _, c := range s.learnts {
		if s.ar.isDead(c) || !s.ar.isLearned(c) {
			t.Fatalf("clause %d in learnts is dead or not learned", c)
		}
		if !attached(c) {
			t.Fatalf("learned clause %d is not watched by its first two literals", c)
		}
		live[c] = true
	}
	// Walk the learned region: every clause there is either dead, and then
	// neither binary nor listed, or listed; the dead words are the ones
	// garbageWords counts.
	garbage := 0
	for c := cref(s.arenaBase); int(c) < len(s.ar.data); c += cref(hdrWords + s.ar.size(c)) {
		switch {
		case !s.ar.isDead(c) && !live[c]:
			t.Fatalf("live clause %d in the arena is missing from learnts", c)
		case s.ar.isDead(c) && (live[c] || s.ar.size(c) == 2):
			t.Fatalf("dead clause %d (size %d) is listed or binary", c, s.ar.size(c))
		case s.ar.isDead(c):
			garbage += int(hdrWords + s.ar.size(c))
		}
	}
	learnedWords := len(s.ar.data) - s.arenaBase
	if garbage != s.garbageWords || s.garbageWords*2 > learnedWords {
		t.Fatalf("garbageWords=%d, %d dead words in a learned region of %d; want equal and at most half", s.garbageWords, garbage, learnedWords)
	}
	// Without compaction the arena would hold every clause ever learned, at
	// five words or more each.
	if everLearned := uint64(s.arenaBase+int(st.Learned)*(hdrWords+2)) * 4; st.ArenaBytes != s.ar.bytes() || st.ArenaBytes >= everLearned {
		t.Fatalf("ArenaBytes=%d (arena %d), want below the %d bytes of everything learned", st.ArenaBytes, s.ar.bytes(), everLearned)
	}
	// The activity slots follow the arena: the k-th clause of the learned
	// region, dead or alive, holds slot numActs+k, and there are no others.
	slot := int32(s.base.numActs)
	for c := cref(s.arenaBase); int(c) < len(s.ar.data); c += cref(hdrWords + s.ar.size(c)) {
		if s.ar.actIdx(c) != slot {
			t.Fatalf("clause %d holds activity slot %d, want %d", c, s.ar.actIdx(c), slot)
		}
		slot++
	}
	if len(s.clauseAct) != int(slot) {
		t.Fatalf("%d activity slots for %d clauses in the learned region and %d originals", len(s.clauseAct), int(slot)-s.base.numActs, s.base.numActs)
	}

	// One more compaction, after removing every other clause reduceDB could
	// remove: each clause kept must still be watched, and name a slot that
	// holds the activity it had before.  It moves down by the words of the
	// dead clauses in front of it.
	want := make(map[cref]float64) // where a kept clause goes → its activity
	removed := make(map[cref]bool)
	shift := cref(0)
	for c := cref(s.arenaBase); int(c) < len(s.ar.data); c += cref(hdrWords + s.ar.size(c)) {
		switch {
		case s.ar.isDead(c):
			shift += cref(hdrWords + s.ar.size(c))
		case s.ar.size(c) > 2 && !s.isReason(c) && len(removed) <= len(want):
			s.detach(c)
			s.ar.markDead(c)
			s.garbageWords += int(hdrWords + s.ar.size(c))
			removed[c] = true
			shift += cref(hdrWords + s.ar.size(c))
		default:
			want[c-shift] = s.clauseAct[s.ar.actIdx(c)]
		}
	}
	if len(removed) == 0 || shift == 0 {
		t.Fatal("nothing to compact away")
	}
	s.learnts = slices.DeleteFunc(s.learnts, func(c cref) bool { return removed[c] })
	s.compactLearned()
	if len(s.learnts) != len(want) || len(s.clauseAct) != s.base.numActs+len(want) {
		t.Fatalf("%d learned clauses and %d activity slots after the compaction, want %d and %d",
			len(s.learnts), len(s.clauseAct), len(want), s.base.numActs+len(want))
	}
	for _, c := range s.learnts {
		act, ok := want[c]
		switch {
		case !ok:
			t.Fatalf("learned clause %d is not where a kept clause should be", c)
		case s.clauseAct[s.ar.actIdx(c)] != act:
			t.Fatalf("clause %d names slot %d holding activity %g, it had %g", c, s.ar.actIdx(c), s.clauseAct[s.ar.actIdx(c)], act)
		case !attached(c):
			t.Fatalf("clause %d is not watched after the compaction", c)
		}
	}
}

// coldHardSolve is the effort of the first cell of biviumHardBatch solved by a
// fresh solver to the bench's 24 000-conflict budget: one reduction, with
// the learned list at the reduceDB bound.
var coldHardSolve = Stats{Propagations: 4818346, Conflicts: 24000, ReduceDBs: 1}

// coldHardSolveDiff says how a solve differs from coldHardSolve, or returns
// "" when it performed the same search and stopped at the budget.
func coldHardSolveDiff(res Result) string {
	got, want := res.Stats, coldHardSolve
	if res.Status == Unknown && got.Propagations == want.Propagations && got.Conflicts == want.Conflicts && got.ReduceDBs == want.ReduceDBs {
		return ""
	}
	return fmt.Sprintf("%v after %d propagations, %d conflicts, %d reductions; recorded: UNKNOWN after %d, %d, %d — the search changed",
		res.Status, got.Propagations, got.Conflicts, got.ReduceDBs, want.Propagations, want.Conflicts, want.ReduceDBs)
}

// TestLongSolveGrowsTheLearnedRegionOnce pins what the learned region of a
// cold long solve costs — the whole of what the bench's bivium-hard
// workload allocates, twice.  The arena doubles from the construction
// reserve while the learned list is under a quarter of the reduceDB bound
// and then moves once to what the bound implies: 9.7 MB for the solve where
// doubling all the way took 15.96.  A short solve never gets there: one of
// the a51-solve shape allocates what it did before, with the arena and the
// activities inside the construction reserve.
func TestLongSolveGrowsTheLearnedRegionOnce(t *testing.T) {
	f, batch := biviumHardBatch(t, 1)
	s := NewDefault(f)
	s.SetBudget(Budget{MaxConflicts: coldHardSolve.Conflicts})
	res, bytes := solveBytes(s, batch[0])
	if d := coldHardSolveDiff(res); d != "" {
		t.Fatal(d)
	}
	t.Logf("the long solve allocated %d bytes; arena %d of %d words", bytes, len(s.ar.data), cap(s.ar.data))
	if bytes > 11e6 {
		t.Errorf("the long solve allocated %d bytes, want at most 11 MB (doubling all the way: 15.96)", bytes)
	}

	// What the solve below allocated when the learned region only doubled:
	// 2 066 320 bytes, and 208 more under the race detector.
	const shortSolveBytes = 2066528
	af, abatch := sessionBatch(t, encoder.A51(), encoder.Config{KeystreamLen: 96, KnownSuffix: 38, Seed: 1007}, 8, 1)
	least := ^uint64(0)
	for range 3 { // the least of three: the runtime allocates now and then
		s := NewDefault(af)
		arenaCap, actCap := cap(s.ar.data), cap(s.clauseAct)
		res, bytes := solveBytes(s, abatch[0])
		if res.Stats.Conflicts == 0 || cap(s.ar.data) != arenaCap || cap(s.clauseAct) != actCap {
			t.Fatalf("a short solve of %d conflicts moved the arena from capacity %d to %d and the activities from %d to %d, want a solve with conflicts inside the reserve",
				res.Stats.Conflicts, arenaCap, cap(s.ar.data), actCap, cap(s.clauseAct))
		}
		least = min(least, bytes)
	}
	if least > shortSolveBytes {
		t.Errorf("the short solve allocated %d bytes, want at most the %d it did before", least, shortSolveBytes)
	}
}

// TestActivitiesFollowTheLiveClauses runs what a solving-mode worker with
// RetainLearned runs — solves on one solver with no Reset between them — on
// the bivium-hard shape, 20 000 conflicts each, and checks after each that
// the activity table holds the originals' slots and one per clause of the
// learned region, which compaction leaves with live clauses only.  Before
// compaction renumbered the slots the table grew by one per conflict: 86 800
// slots for 24 724 clauses after 80 000 conflicts.
func TestActivitiesFollowTheLiveClauses(t *testing.T) {
	f, batch := biviumHardBatch(t, 4)
	s := NewDefault(f)
	for i, a := range batch {
		s.SetBudget(Budget{MaxConflicts: s.Stats().Conflicts + 20000})
		s.SolveWithAssumptions(a)
		live := 0
		for c := cref(s.arenaBase); int(c) < len(s.ar.data); c += cref(hdrWords + s.ar.size(c)) {
			if !s.ar.isDead(c) {
				live++
			}
		}
		if len(s.clauseAct) != s.base.numActs+live {
			t.Fatalf("after solve %d (%d conflicts, %d reductions): %d activity slots, want %d originals and %d live clauses",
				i, s.Stats().Conflicts, s.Stats().ReduceDBs, len(s.clauseAct), s.base.numActs, live)
		}
	}
	if st := s.Stats(); st.Conflicts != 80000 || st.ReduceDBs < 2 {
		t.Fatalf("%d conflicts and %d reductions, want 80 000 and some compactions behind them", st.Conflicts, st.ReduceDBs)
	}
	t.Logf("%d activity slots after 80 000 conflicts", len(s.clauseAct))
}

func TestResetReclaimsArena(t *testing.T) {
	f := mustPigeonhole(t, 7, 6)
	s := New(f, reduceOften())
	baseBytes := s.ar.bytes()
	for call := 0; call < 3; call++ {
		s.Reset()
		if got := s.ar.bytes(); got != baseBytes {
			t.Fatalf("call %d: arena not truncated by Reset: %d bytes, want %d", call, got, baseBytes)
		}
		if s.stats.ArenaBytes != baseBytes {
			t.Fatalf("call %d: ArenaBytes gauge stale after Reset: %d, want %d", call, s.stats.ArenaBytes, baseBytes)
		}
		res := s.Solve()
		if res.Status != Unsat {
			t.Fatalf("call %d: got %v, want UNSAT", call, res.Status)
		}
		if s.ar.bytes() <= baseBytes {
			t.Fatalf("call %d: no learned clauses in arena after solve", call)
		}
	}
}
