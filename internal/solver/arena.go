package solver

import (
	"cmp"
	"fmt"
	"slices"
)

// The clause arena is the flat storage behind the CDCL solver: every clause
// lives in one packed []ilit slice, addressed by its offset (a cref), with a
// three-word header followed by the literals.  Compared with the seed's
// individually heap-allocated clauses this removes a pointer dereference
// (and a likely cache miss) from every watch-list visit, lets snapshots and
// Reset restore the whole clause database with two flat copies, and makes
// clause garbage collection an explicit arena operation instead of tracing
// GC work.
//
// Layout of one clause at offset c:
//
//	word c+0: size<<2 | learned bit (0x1) | dead bit (0x2)
//	word c+1: permuted flag (1 on an original clause whose literals the
//	          search has swapped since the last Reset, see markPermuted;
//	          0 otherwise)
//	word c+2: index of the clause's activity in Solver.clauseAct
//	word c+3 ... c+3+size-1: the literals
//
// Clause activities are float64 and live out-of-line in Solver.clauseAct
// (indexed by the header's activity word) so the arena stays a plain int32
// slice and activity rescaling does not touch clause memory.  The slots
// follow the arena: the originals captured in the snapshot hold the first
// ones, and the k-th clause above them in arena order holds slot
// numActs+k, because a clause and its slot are appended together and
// compactLearned renumbers the activity word of every clause it keeps.
//
// The dead bit is set by reduceDB on a clause it removes: the clause is
// detached and its words and its activity slot are garbage until the next
// compaction (compactLearned) or until Reset truncates the arena back to the
// original clauses, whichever comes first.

// cref addresses a clause: the arena offset of its header word.  The
// allocation order of clauses is exactly their cref order, which is what the
// deterministic reduceDB tie-break sorts by.
type cref int32

// nullRef is the absent clause (a nil reason).
const nullRef cref = -1

const (
	hdrWords   = 3
	learnedBit = 1
	deadBit    = 2
	flagBits   = 2
	// maxArenaWords bounds the arena so crefs (and the watch-list binary
	// tag, which uses the sign bit) always fit in an int32.
	maxArenaWords = 1<<31 - 1
)

// arena is the packed clause store.
type arena struct {
	data []ilit
}

// alloc appends a clause and returns its cref; newClause has made room for
// it.
func (a *arena) alloc(lits []ilit, learned bool, actIdx int32) cref {
	if len(a.data)+hdrWords+len(lits) > maxArenaWords {
		panic(fmt.Sprintf("solver: clause arena overflow (%d words)", len(a.data)))
	}
	cr := cref(len(a.data))
	hdr := ilit(int32(len(lits)) << flagBits)
	if learned {
		hdr |= learnedBit
	}
	a.data = append(a.data, hdr, 0, ilit(actIdx))
	a.data = append(a.data, lits...)
	return cr
}

func (a *arena) size(c cref) int32     { return int32(a.data[c]) >> flagBits }
func (a *arena) isLearned(c cref) bool { return a.data[c]&learnedBit != 0 }
func (a *arena) isDead(c cref) bool    { return a.data[c]&deadBit != 0 }
func (a *arena) markDead(c cref)       { a.data[c] |= deadBit }
func (a *arena) actIdx(c cref) int32   { return int32(a.data[c+2]) }

// lits returns the literal words of the clause as a subslice of the arena
// (no copy; the caller must not retain it across allocations).
func (a *arena) lits(c cref) []ilit {
	off := int32(c) + hdrWords
	return a.data[off : off+a.size(c)]
}

// bytes reports the arena's current size in bytes (the ArenaBytes gauge).
func (a *arena) bytes() uint64 { return uint64(len(a.data)) * 4 }

// newClause allocates a clause in the arena with a fresh activity slot and
// keeps the ArenaBytes gauge current.  For a learned clause it also makes the
// room recordLearned appends it to the learned list in.
func (s *Solver) newClause(lits []ilit, learned bool) cref {
	words := hdrWords + len(lits)
	if len(s.ar.data)+words > cap(s.ar.data) || len(s.clauseAct) == cap(s.clauseAct) ||
		learned && len(s.learnts) == cap(s.learnts) {
		s.growLearned(words, learned)
	}
	actIdx := int32(len(s.clauseAct))
	s.clauseAct = append(s.clauseAct, 0)
	cr := s.ar.alloc(lits, learned, actIdx)
	s.stats.ArenaBytes = s.ar.bytes()
	return cr
}

// growLearned makes room for one more clause of the given words in every
// array of the learned region that is full: the arena, the clause
// activities and, for a learned clause, the learned list.  An array doubles,
// with one exception.  Once the learned list holds a quarter of reduceDB's
// bound, the bound says how far the region will grow, and an array moves
// straight there if that is a quarter more than it has or better: the
// bound's clauses at the mean size of the live learned clauses, plus an
// eighth for clauses that lengthen as the search deepens.  A short solve
// never gets there; a long one ends at what the bound needs, not at up to
// twice that (see "Construction" in the package comment).
func (s *Solver) growLearned(words int, learned bool) {
	bound := s.opts.MaxLearnedFactor * float64(len(s.clauses)+100)
	projected := s.opts.MaxLearnedFactor > 0 && float64(4*len(s.learnts)) >= bound
	// room is the capacity for an array of capacity c whose first orig
	// elements belong to the original clauses and which holds per elements
	// for every learned clause (per is read only when projected, that is
	// with learned clauses to take the mean of).
	room := func(c, orig int, per float64) int {
		if projected {
			if want := orig + int(bound*per*9/8); want >= c+c/4 {
				return want
			}
		}
		return 2 * c
	}
	liveWords := len(s.ar.data) - s.arenaBase - s.garbageWords
	s.ar.data = grown(s.ar.data, words, room(cap(s.ar.data), s.arenaBase, float64(liveWords)/float64(len(s.learnts))))
	s.clauseAct = grown(s.clauseAct, 1, room(cap(s.clauseAct), len(s.clauses), 1))
	if learned {
		s.learnts = grown(s.learnts, 1, room(cap(s.learnts), 0, 1))
	}
}

// bumpClause raises a clause's activity with the original rescale, which the
// solver goldens pin: the 1e20 trigger tests the bumped clause
// (which may be an original), but only the learned clauses and clauseInc are
// scaled down — a just-learned clause is bumped before it joins s.learnts
// and therefore escapes its own rescale, as it always has.
func (s *Solver) bumpClause(c cref) {
	ai := s.ar.actIdx(c)
	// An original's activity only ever grows from zero (the rescale below
	// spares originals), so zero means this is its first bump since Reset.
	// Only the snapshot's originals are listed: the slot of a clause above
	// arenaBase is renumbered by compaction and cut off by Reset.
	if int(c) < s.arenaBase && s.clauseAct[ai] == 0 {
		s.dirtyActs = append(s.dirtyActs, ai)
	}
	s.clauseAct[ai] += s.clauseInc
	if s.clauseAct[ai] > 1e20 {
		for _, lc := range s.learnts {
			s.clauseAct[s.ar.actIdx(lc)] *= 1e-20
		}
		s.clauseInc *= 1e-20
	}
}

// movedRun says that compactLearned slid the live clauses from cref from up
// to the next run down by shift words.
type movedRun struct {
	from  cref
	shift int32
}

// compactLearned slides the live learned clauses over the dead ones and
// remaps every cref that may reference the moved region (learned list,
// reasons, watch lists).  Original clauses sit below arenaBase and never
// move.  The slide keeps the clauses in order, so comparing two crefs —
// reduceDB's tie-break — gives the same answer before and after, and the
// watch lists and reasons are rewritten in place: the search is the one an
// uncompacted arena would have run.  Where a clause went is looked up in a
// table of the runs between dead clauses, kept in a scratch buffer: a few
// entries per removed clause at most, where a map of every live clause was
// built and dropped per compaction.  The activities slide in the same pass:
// the k-th clause kept takes slot numActs+k, with its value, and the table is
// cut behind the last, so a solver that is never Reset holds one activity
// per live clause, not one per clause it ever learned.  A clause's slot is
// never below its new one (slots follow the arena, see the layout note), so
// the values move down in place.
func (s *Solver) compactLearned() {
	base := int32(s.arenaBase)
	data, acts := s.ar.data, s.clauseAct
	runs := s.runBuf[:0]
	w, act := base, int32(s.base.numActs)
	for r := base; r < int32(len(data)); {
		sz := int32(data[r]) >> flagBits
		next := r + hdrWords + sz
		if data[r]&deadBit == 0 {
			if shift := r - w; shift != 0 {
				if len(runs) == 0 || runs[len(runs)-1].shift != shift {
					runs = append(runs, movedRun{from: cref(r), shift: shift})
				}
				copy(data[w:w+hdrWords+sz], data[r:next])
			}
			acts[act] = acts[data[w+2]]
			data[w+2] = ilit(act)
			act++
			w += hdrWords + sz
		}
		r = next
	}
	s.runBuf = runs[:0]
	s.ar.data = data[:w]
	s.clauseAct = acts[:act]
	s.garbageWords = 0
	s.stats.ArenaBytes = s.ar.bytes()
	// remap returns where the live clause c is now: it moved with the last
	// run that starts at or before it.
	remap := func(c cref) cref {
		i, found := slices.BinarySearchFunc(runs, c, func(m movedRun, at cref) int { return cmp.Compare(m.from, at) })
		if !found {
			i--
		}
		if i < 0 {
			return c
		}
		return c - cref(runs[i].shift)
	}
	for i, lc := range s.learnts {
		s.learnts[i] = remap(lc)
	}
	for v, r := range s.reason {
		if r != nullRef && r >= cref(base) {
			s.reason[v] = remap(r)
		}
	}
	for l := range s.watches {
		ws := s.watches[l]
		for i := range ws {
			if c := ws[i].clause(); c >= cref(base) {
				ws[i].ref = remap(c) | (ws[i].ref & binaryFlag)
			}
		}
	}
}
