package solver

import "testing"

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
	if st.LearnedCore+st.LearnedMid+st.LearnedLocal != st.Learned {
		t.Fatalf("tier counters do not partition Learned: core=%d mid=%d local=%d learned=%d",
			st.LearnedCore, st.LearnedMid, st.LearnedLocal, st.Learned)
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
