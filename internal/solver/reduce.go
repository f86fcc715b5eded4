package solver

import (
	"cmp"
	"slices"
)

// Learned-clause database management.  reduceDB is the seed's policy
// (activity-sorted, binaries and reasons kept, lowest half removed) with two
// changes that leave the search as it was.  The sort is a total order —
// equal activities tie-break by cref, i.e. by the order the clauses were
// learned — where the seed's sort.Slice left the choice of which
// equal-activity clauses survive to the sort implementation (and why the
// sort can be slices.SortFunc, with no reflection-built swapper to allocate
// per reduction, and order the clauses as sort.Slice did).  And a removed
// clause's arena words are given back: the clause is marked dead, and once
// the dead words outweigh half of the learned region compactLearned slides
// the live clauses over them, in order, and their activities with them, so
// the sort above, every watch list and every reason see the same clauses as
// before.

// maybeReduce reduces the learned-clause database at the no-conflict
// checkpoint of the search loop once it outgrows its bound.
func (s *Solver) maybeReduce() {
	if s.opts.MaxLearnedFactor <= 0 {
		return
	}
	if float64(len(s.learnts)) > s.opts.MaxLearnedFactor*float64(len(s.clauses)+100) {
		s.reduceDB()
	}
}

// reduceDB removes roughly half of the learned clauses with the lowest
// activity (keeping binary clauses and clauses that are currently reasons).
func (s *Solver) reduceDB() {
	s.stats.ReduceDBs++
	slices.SortFunc(s.learnts, func(ci, cj cref) int {
		if bi, bj := s.ar.size(ci) == 2, s.ar.size(cj) == 2; bi != bj {
			if bj {
				return -1 // binaries last (kept)
			}
			return 1
		}
		if ai, aj := s.clauseAct[s.ar.actIdx(ci)], s.clauseAct[s.ar.actIdx(cj)]; ai != aj {
			return cmp.Compare(ai, aj)
		}
		// Total order: equal activities keep the older clause (learned
		// clauses are allocated in cref order), independent of the sort
		// algorithm.
		return cmp.Compare(ci, cj)
	})
	limit := len(s.learnts) / 2
	kept := s.learnts[:0]
	for i, c := range s.learnts {
		locked := s.isReason(c)
		if i < limit && s.ar.size(c) > 2 && !locked {
			s.detach(c)
			s.ar.markDead(c)
			s.garbageWords += int(hdrWords + s.ar.size(c))
			s.stats.Removed++
			continue
		}
		kept = append(kept, c)
	}
	s.learnts = kept
	// Compact once the dead words outweigh half of the learned region.
	if learnedWords := len(s.ar.data) - s.arenaBase; s.garbageWords*2 > learnedWords {
		s.compactLearned()
	}
}

func (s *Solver) isReason(c cref) bool {
	l := s.ar.lits(c)[0]
	return s.vals[l] != lUndef && s.reason[l.ivar()] == c
}
