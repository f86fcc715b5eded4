package solver

import "sort"

// Learned-clause database management.  Two reducers share the trigger in
// search():
//
//   - reduceDB is the seed's policy (activity-sorted, binaries and reasons
//     kept, lowest half removed) with one fix: the sort is now a total
//     order — equal activities tie-break by cref, i.e. by the order the
//     clauses were learned — where the seed's sort.Slice left the choice of
//     which equal-activity clauses survive to the sort implementation.
//
//   - reduceTiered is the Glucose-style policy behind Options.ClauseTier:
//     clauses are tiered by the LBD recorded when they were learned (core
//     ≤ 3, mid ≤ 6, local above), the core tier, binaries and locked
//     clauses are protected outright, and the reduction removes the worst
//     half of the rest (highest LBD first, lowest activity within a tier,
//     cref as the final tie-break).  The database limit grows geometrically
//     after every reduction, and the arena reclaims the removed clauses'
//     words once they outweigh half of the learned region.

// LBD tier boundaries: a clause's tier is fixed at learn time and counted in
// Stats (LearnedCore/LearnedMid/LearnedLocal).  Core clauses (lbd ≤ 3, the
// "glue" clauses of the Glucose papers) are never removed by the tiered
// reducer.
const (
	coreLBD = 3
	midLBD  = 6
)

// learntGrowth is the geometric growth factor of the tiered reducer's
// database limit.
const learntGrowth = 1.1

// maybeReduce applies the configured learned-clause policy at the
// no-conflict checkpoint of the search loop.
func (s *Solver) maybeReduce() {
	if s.opts.MaxLearnedFactor <= 0 {
		return
	}
	if !s.opts.ClauseTier {
		if float64(len(s.learnts)) > s.opts.MaxLearnedFactor*float64(len(s.clauses)+100) {
			s.reduceDB()
		}
		return
	}
	if s.learntLimit == 0 {
		s.learntLimit = s.opts.MaxLearnedFactor * float64(len(s.clauses)+100)
	}
	if float64(len(s.learnts)) > s.learntLimit {
		s.reduceTiered()
		s.learntLimit *= learntGrowth
	}
}

// reduceDB removes roughly half of the learned clauses with the lowest
// activity (keeping binary clauses and clauses that are currently reasons).
func (s *Solver) reduceDB() {
	s.stats.ReduceDBs++
	sort.Slice(s.learnts, func(i, j int) bool {
		ci, cj := s.learnts[i], s.learnts[j]
		bi, bj := s.ar.size(ci) == 2, s.ar.size(cj) == 2
		if bi != bj {
			return bj // binaries last (kept)
		}
		ai, aj := s.clauseAct[s.ar.actIdx(ci)], s.clauseAct[s.ar.actIdx(cj)]
		if ai != aj {
			return ai < aj
		}
		// Total order: equal activities keep the older clause (learned
		// clauses are allocated in cref order), independent of the sort
		// algorithm.
		return ci < cj
	})
	limit := len(s.learnts) / 2
	kept := s.learnts[:0]
	for i, c := range s.learnts {
		locked := s.isReason(c)
		if i < limit && s.ar.size(c) > 2 && !locked {
			s.detach(c)
			s.stats.Removed++
			continue
		}
		kept = append(kept, c)
	}
	s.learnts = kept
}

// reduceTiered is the ClauseTier reduction pass.  Unlike reduceDB it leaves
// the surviving clauses in learn order (no behavioural contract ties it to
// the seed — ClauseTier is gated by benchmark, not bit-identity) and marks
// the removed clauses dead in the arena for compaction.
func (s *Solver) reduceTiered() {
	s.stats.ReduceDBs++
	// Candidates: everything not protected.  Binaries, core-tier clauses
	// and locked clauses (current reasons) always survive.
	cand := s.reduceBuf[:0]
	for _, c := range s.learnts {
		if s.ar.size(c) > 2 && s.ar.lbd(c) > coreLBD && !s.isReason(c) {
			cand = append(cand, c)
		}
	}
	sort.Slice(cand, func(i, j int) bool {
		ci, cj := cand[i], cand[j]
		if li, lj := s.ar.lbd(ci), s.ar.lbd(cj); li != lj {
			return li > lj // highest LBD goes first (removed first)
		}
		ai, aj := s.clauseAct[s.ar.actIdx(ci)], s.clauseAct[s.ar.actIdx(cj)]
		if ai != aj {
			return ai < aj
		}
		return ci < cj
	})
	drop := len(cand) / 2
	for _, c := range cand[:drop] {
		s.detach(c)
		s.ar.markDead(c)
		s.garbageWords += int(hdrWords + s.ar.size(c))
		s.stats.Removed++
	}
	s.reduceBuf = cand[:0]
	kept := s.learnts[:0]
	for _, c := range s.learnts {
		if !s.ar.isDead(c) {
			kept = append(kept, c)
		}
	}
	s.learnts = kept
	// Compact once the dead words outweigh half of the learned region.
	if learnedWords := len(s.ar.data) - s.arenaBase; s.garbageWords*2 > learnedWords && s.garbageWords > 0 {
		s.compactLearned()
	}
}

func (s *Solver) isReason(c cref) bool {
	l := s.ar.lits(c)[0]
	return s.vals[l] != lUndef && s.reason[l.ivar()] == c
}
