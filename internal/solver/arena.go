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
//	word c+1: LBD (literal block distance, 0 for original clauses)
//	word c+2: index of the clause's activity in Solver.clauseAct
//	word c+3 ... c+3+size-1: the literals
//
// Clause activities are float64 and live out-of-line in Solver.clauseAct
// (indexed by the header's activity word) so the arena stays a plain int32
// slice and activity rescaling does not touch clause memory.
//
// The dead bit is set by reduceDB on a clause it removes: the clause is
// detached and its words are garbage until the next compaction
// (compactLearned) or until Reset truncates the arena back to the original
// clauses, whichever comes first.

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

// alloc appends a clause and returns its cref.
func (a *arena) alloc(lits []ilit, learned bool, actIdx int32) cref {
	if len(a.data)+hdrWords+len(lits) > maxArenaWords {
		panic(fmt.Sprintf("solver: clause arena overflow (%d words)", len(a.data)))
	}
	cr := cref(len(a.data))
	hdr := ilit(int32(len(lits)) << flagBits)
	if learned {
		hdr |= learnedBit
	}
	a.data = append(grown(a.data, hdrWords+len(lits)), hdr, 0, ilit(actIdx))
	a.data = append(a.data, lits...)
	return cr
}

func (a *arena) size(c cref) int32      { return int32(a.data[c]) >> flagBits }
func (a *arena) isLearned(c cref) bool  { return a.data[c]&learnedBit != 0 }
func (a *arena) isDead(c cref) bool     { return a.data[c]&deadBit != 0 }
func (a *arena) markDead(c cref)        { a.data[c] |= deadBit }
func (a *arena) setLBD(c cref, v int32) { a.data[c+1] = ilit(v) }
func (a *arena) actIdx(c cref) int32    { return int32(a.data[c+2]) }

// lits returns the literal words of the clause as a subslice of the arena
// (no copy; the caller must not retain it across allocations).
func (a *arena) lits(c cref) []ilit {
	off := int32(c) + hdrWords
	return a.data[off : off+a.size(c)]
}

// bytes reports the arena's current size in bytes (the ArenaBytes gauge).
func (a *arena) bytes() uint64 { return uint64(len(a.data)) * 4 }

// newClause allocates a clause in the arena with a fresh activity slot and
// keeps the ArenaBytes gauge current.
func (s *Solver) newClause(lits []ilit, learned bool) cref {
	actIdx := int32(len(s.clauseAct))
	s.clauseAct = append(grown(s.clauseAct, 1), 0)
	cr := s.ar.alloc(lits, learned, actIdx)
	s.stats.ArenaBytes = s.ar.bytes()
	return cr
}

// bumpClause raises a clause's activity, replicating the pointer
// implementation's rescale exactly: the 1e20 trigger tests the bumped clause
// (which may be an original), but only the learned clauses and clauseInc are
// scaled down — a just-learned clause is bumped before it joins s.learnts
// and therefore escapes its own rescale, as it always has.
func (s *Solver) bumpClause(c cref) {
	ai := s.ar.actIdx(c)
	// An original's activity only ever grows from zero (the rescale below
	// spares originals), so zero means this is its first bump since Reset.
	if s.clauseAct[ai] == 0 && !s.ar.isLearned(c) {
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
// built and dropped per compaction.
func (s *Solver) compactLearned() {
	base := int32(s.arenaBase)
	data := s.ar.data
	runs := s.runBuf[:0]
	w := base
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
			w += hdrWords + sz
		}
		r = next
	}
	s.runBuf = runs[:0]
	s.ar.data = data[:w]
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
	// Originals added after the first solve live above arenaBase too.
	for i, oc := range s.clauses {
		if oc >= cref(base) {
			s.clauses[i] = remap(oc)
		}
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
