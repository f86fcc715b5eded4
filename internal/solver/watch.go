package solver

// Watch lists over the clause arena.  Each assigned literal p owns a slab of
// watch entries; an entry carries the clause's cref and a blocker literal
// (some other literal of the clause — if the blocker is already true the
// clause is satisfied and the arena is not touched at all).
//
// Binary clauses are specialized in place: their entries carry the binary
// tag (the sign bit of the cref word), and for a binary clause the blocker
// is by construction always the clause's other literal, so the propagation
// fast path resolves the implication entirely from the 8-byte watch entry —
// the only arena access left is the literal swap that keeps the clause's
// stored order the one the general path would leave (conflict analysis
// bumps variables in literal order, so the order is behaviour-relevant and
// the solver goldens pin it).
// Keeping binaries in the same slab, in the same positions, preserves the
// seed's exact watch traversal order — a dedicated binary list would change
// trail order and break bit-identity.

// watch is one watch-list entry: 8 bytes, a cref and a literal.
type watch struct {
	// ref is the clause's cref; the sign bit tags binary clauses.
	ref cref
	// blocker is a literal of the clause whose truth proves the clause
	// satisfied without touching the arena.  For binary clauses it is
	// always the other literal.
	blocker ilit
}

// binaryFlag tags watch entries of binary clauses in the cref's sign bit.
const binaryFlag = cref(-1) << 31

func (w watch) isBinary() bool { return w.ref < 0 }
func (w watch) clause() cref   { return w.ref &^ binaryFlag }

// attach registers the clause's first two literals in the watch lists.
func (s *Solver) attach(c cref) {
	lits := s.ar.lits(c)
	l0, l1 := lits[0], lits[1]
	r := c
	if len(lits) == 2 {
		r |= binaryFlag
	}
	s.watches[l0.neg()] = append(s.watches[l0.neg()], watch{ref: r, blocker: l1})
	s.watches[l1.neg()] = append(s.watches[l1.neg()], watch{ref: r, blocker: l0})
	s.markAppended(l0.neg())
	s.markAppended(l1.neg())
}

func (s *Solver) detach(c cref) {
	lits := s.ar.lits(c)
	s.removeWatch(lits[0].neg(), c)
	s.removeWatch(lits[1].neg(), c)
}

func (s *Solver) removeWatch(l ilit, c cref) {
	ws := s.watches[l]
	for i := range ws {
		if ws[i].clause() == c {
			ws[i] = ws[len(ws)-1]
			s.watches[l] = ws[:len(ws)-1]
			s.markRewritten(l)
			return
		}
	}
}

// propagate performs unit propagation over the watched literals.  It returns
// the conflicting clause, or nullRef.
//
// The control flow is MiniSat's — blocker check, false-literal swap,
// first-literal check, new watch search, unit/conflict with the watcher
// rewrites — in a fixed order, because the traversal order decides the trail
// order, and through it every reason, learned clause and decision of the
// search; the solver goldens pin that search.  The binary branch is the only
// structural addition, and it takes exactly the path the general code would
// (for a binary clause the first literal always equals the blocker and the
// new-watch search has no literals to scan), just without reading the
// clause's size or scanning its literals.
func (s *Solver) propagate() cref {
	confl := nullRef
	ar := s.ar.data
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.stats.Propagations++
		ws := s.watches[p]
		falseLit := p.neg()
		i, j := 0, 0
		for i < len(ws) {
			w := ws[i]
			// Blocker check: if the blocker literal is already true the
			// clause is satisfied and nothing needs to move.
			if s.litValue(w.blocker) == lTrue {
				ws[j] = w
				i++
				j++
				continue
			}
			if w.isBinary() {
				// The other literal is the blocker; it is not true, so the
				// clause is unit or conflicting.  Swap the false literal
				// second, as the general path does.
				base := int32(w.clause()) + hdrWords
				if ar[base] == falseLit {
					ar[base], ar[base+1] = ar[base+1], ar[base]
					s.markPermuted(w.clause())
				}
				first := w.blocker
				ws[j] = w
				i++
				j++
				if s.litValue(first) == lFalse {
					confl = w.clause()
					s.qhead = len(s.trail)
					for i < len(ws) {
						ws[j] = ws[i]
						i++
						j++
					}
				} else {
					s.enqueue(first, w.clause())
				}
				continue
			}
			c := w.clause()
			base := int32(c) + hdrWords
			// Make sure the false literal is lits[1].
			if ar[base] == falseLit {
				ar[base], ar[base+1] = ar[base+1], ar[base]
				s.markPermuted(c)
			}
			first := ar[base]
			if first != w.blocker && s.litValue(first) == lTrue {
				ws[j] = watch{ref: w.ref, blocker: first}
				i++
				j++
				continue
			}
			// Look for a new literal to watch.
			found := false
			end := base + int32(ar[base-hdrWords])>>flagBits
			for k := base + 2; k < end; k++ {
				if s.litValue(ar[k]) != lFalse {
					ar[base+1], ar[k] = ar[k], ar[base+1]
					nl := ar[base+1].neg()
					s.watches[nl] = append(s.watches[nl], watch{ref: w.ref, blocker: first})
					s.markAppended(nl)
					s.markPermuted(c)
					found = true
					break
				}
			}
			if found {
				i++
				continue
			}
			// Clause is unit or conflicting.
			ws[j] = watch{ref: w.ref, blocker: first}
			i++
			j++
			if s.litValue(first) == lFalse {
				// Conflict: copy remaining watchers and stop.
				confl = c
				s.qhead = len(s.trail)
				for i < len(ws) {
					ws[j] = ws[i]
					i++
					j++
				}
			} else {
				s.enqueue(first, c)
			}
		}
		s.watches[p] = ws[:j]
		if confl != nullRef {
			return confl
		}
	}
	return nullRef
}
