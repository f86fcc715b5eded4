package solver

// This file preserves the seed's pointer-based clause representation
// (individually heap-allocated clauses behind pointer watch lists) exactly as
// it stood before the flat-arena rewrite of PR 9.  It exists for two
// purposes:
//
//   - Differential testing: TestArenaMatchesPointerReference and friends run
//     the arena solver and this reference side by side and require
//     bit-identical behaviour (statuses, stats, models, conflict
//     activities).
//
//   - Benchmark baseline: BenchmarkSolverBivium measures the arena solver
//     against this implementation on the same machine, which is how the
//     ≥20% speedup bar is enforced without a machine-dependent recorded
//     number.
//
// It shares the literal encoding, options, budget, statistics and the
// variable-order heap with the production solver; only the clause storage
// and the algorithms that touch it are duplicated.  Do not "improve" this
// file: its value is that it does not change.

import (
	"sort"
	"sync/atomic"
	"time"

	"github.com/paper-repro/pdsat-go/internal/cnf"
)

type refClause struct {
	lits     []ilit
	learned  bool
	activity float64
	lbd      int
}

type refWatcher struct {
	c       *refClause
	blocker ilit
}

type refSolver struct {
	opts Options

	numVars   int32
	clauses   []*refClause
	learnts   []*refClause
	watches   [][]refWatcher
	assigns   []lbool
	polarity  []bool
	reason    []*refClause
	level     []int32
	trail     []ilit
	trailLim  []int32
	qhead     int
	order     varOrder
	activity  []float64
	confAct   []float64
	varInc    float64
	clauseInc float64

	seen []bool

	okay bool

	stats     Stats
	budget    Budget
	interrupt atomic.Bool
	startTime time.Time
	deadline  time.Time

	base       *refSnapshot
	everSolved bool
}

type refSnapshot struct {
	numVars    int32
	numClauses int
	lits       []ilit
	watch      []refWatcher
	watchLen   []int32
	assigns    []lbool
	reason     []*refClause
	trail      []ilit
	stats      Stats
	okay       bool
}

func (s *refSolver) ensureBase() {
	if s.base == nil {
		s.capture()
	}
}

func (s *refSolver) capture() {
	b := &refSnapshot{
		numVars:    s.numVars,
		numClauses: len(s.clauses),
		stats:      s.stats,
		okay:       s.okay,
	}
	total := 0
	for _, c := range s.clauses {
		total += len(c.lits)
	}
	b.lits = make([]ilit, 0, total)
	for _, c := range s.clauses {
		b.lits = append(b.lits, c.lits...)
	}
	total = 0
	for _, ws := range s.watches {
		total += len(ws)
	}
	b.watch = make([]refWatcher, 0, total)
	b.watchLen = make([]int32, len(s.watches))
	for i, ws := range s.watches {
		b.watchLen[i] = int32(len(ws))
		b.watch = append(b.watch, ws...)
	}
	b.assigns = append([]lbool(nil), s.assigns...)
	b.reason = append([]*refClause(nil), s.reason...)
	b.trail = append([]ilit(nil), s.trail...)
	s.base = b
}

func (s *refSolver) Reset() {
	s.ensureBase()
	b := s.base
	s.interrupt.Store(false)
	if s.numVars > b.numVars {
		n := b.numVars
		s.watches = s.watches[:2*n]
		s.assigns = s.assigns[:n]
		s.polarity = s.polarity[:n]
		s.reason = s.reason[:n]
		s.level = s.level[:n]
		s.activity = s.activity[:n]
		s.confAct = s.confAct[:n]
		s.seen = s.seen[:n]
		s.numVars = n
	}
	s.clauses = s.clauses[:b.numClauses]
	off := 0
	for _, c := range s.clauses {
		copy(c.lits, b.lits[off:off+len(c.lits)])
		off += len(c.lits)
		c.activity = 0
	}
	s.learnts = s.learnts[:0]
	woff := 0
	for i := range s.watches {
		n := int(b.watchLen[i])
		if cap(s.watches[i]) < n {
			s.watches[i] = make([]refWatcher, n)
		} else {
			s.watches[i] = s.watches[i][:n]
		}
		copy(s.watches[i], b.watch[woff:woff+n])
		woff += n
	}
	copy(s.assigns, b.assigns)
	copy(s.reason, b.reason)
	for v := range s.level {
		s.level[v] = 0
	}
	for v := range s.polarity {
		s.polarity[v] = s.opts.DefaultPhase
	}
	for v := range s.activity {
		s.activity[v] = 0
	}
	for v := range s.confAct {
		s.confAct[v] = 0
	}
	for v := range s.seen {
		s.seen[v] = false
	}
	s.trail = append(s.trail[:0], b.trail...)
	s.trailLim = s.trailLim[:0]
	s.qhead = len(s.trail)
	s.order.rebuild(s.numVars)
	s.varInc, s.clauseInc = 1.0, 1.0
	s.stats = b.stats
	s.okay = b.okay
}

func (s *refSolver) BaseStats() Stats {
	s.ensureBase()
	return s.base.stats
}

func newRefSolver(f *cnf.Formula, opts Options) *refSolver {
	if opts.VarDecay == 0 {
		opts = DefaultOptions()
	}
	s := &refSolver{opts: opts, okay: true, varInc: 1.0, clauseInc: 1.0}
	s.ensureVars(int32(f.NumVars))
	for _, c := range f.Clauses {
		if !s.addClause(c) {
			s.okay = false
		}
	}
	return s
}

func (s *refSolver) SetBudget(b Budget) { s.budget = b }

func (s *refSolver) Interrupt() { s.interrupt.Store(true) }

func (s *refSolver) Stats() Stats { return s.stats }

func (s *refSolver) VarActivity(v cnf.Var) float64 {
	iv := int32(v - 1)
	if iv < 0 || iv >= s.numVars {
		return 0
	}
	return s.confAct[iv]
}

func (s *refSolver) ConflictActivities() []float64 {
	out := make([]float64, s.numVars+1)
	for v := int32(0); v < s.numVars; v++ {
		out[v+1] = s.confAct[v]
	}
	return out
}

func (s *refSolver) ensureVars(n int32) {
	for s.numVars < n {
		s.numVars++
		s.watches = append(s.watches, nil, nil)
		s.assigns = append(s.assigns, lUndef)
		s.polarity = append(s.polarity, s.opts.DefaultPhase)
		s.reason = append(s.reason, nil)
		s.level = append(s.level, 0)
		s.activity = append(s.activity, 0)
		s.confAct = append(s.confAct, 0)
		s.seen = append(s.seen, false)
		s.order.insert(s.numVars-1, &s.activity)
	}
}

func (s *refSolver) addClause(c cnf.Clause) bool {
	norm, taut := c.Normalize()
	if taut {
		return true
	}
	if len(norm) == 0 {
		return false
	}
	lits := make([]ilit, 0, len(norm))
	for _, l := range norm {
		s.ensureVars(int32(l.Var()))
		il := fromExternal(l)
		switch s.litValue(il) {
		case lTrue:
			return true
		case lFalse:
			continue
		}
		lits = append(lits, il)
	}
	switch len(lits) {
	case 0:
		return false
	case 1:
		if !s.enqueue(lits[0], nil) {
			return false
		}
		conf := s.propagate()
		return conf == nil
	default:
		cl := &refClause{lits: lits}
		s.clauses = append(s.clauses, cl)
		s.attach(cl)
		return true
	}
}

func (s *refSolver) AddClause(c cnf.Clause) bool {
	if !s.okay {
		return false
	}
	if s.decisionLevel() != 0 {
		s.cancelUntil(0)
	}
	if !s.addClause(c) {
		s.okay = false
	}
	if !s.everSolved {
		s.base = nil
	}
	return s.okay
}

func (s *refSolver) attach(c *refClause) {
	l0, l1 := c.lits[0], c.lits[1]
	s.watches[l0.neg()] = append(s.watches[l0.neg()], refWatcher{c: c, blocker: l1})
	s.watches[l1.neg()] = append(s.watches[l1.neg()], refWatcher{c: c, blocker: l0})
}

func (s *refSolver) detach(c *refClause) {
	s.removeWatch(c.lits[0].neg(), c)
	s.removeWatch(c.lits[1].neg(), c)
}

func (s *refSolver) removeWatch(l ilit, c *refClause) {
	ws := s.watches[l]
	for i := range ws {
		if ws[i].c == c {
			ws[i] = ws[len(ws)-1]
			s.watches[l] = ws[:len(ws)-1]
			return
		}
	}
}

func (s *refSolver) litValue(l ilit) lbool {
	v := s.assigns[l.ivar()]
	if v == lUndef {
		return lUndef
	}
	if l.sign() {
		if v == lTrue {
			return lFalse
		}
		return lTrue
	}
	return v
}

func (s *refSolver) decisionLevel() int { return len(s.trailLim) }

func (s *refSolver) enqueue(l ilit, from *refClause) bool {
	switch s.litValue(l) {
	case lTrue:
		return true
	case lFalse:
		return false
	}
	v := l.ivar()
	if l.sign() {
		s.assigns[v] = lFalse
	} else {
		s.assigns[v] = lTrue
	}
	s.level[v] = int32(s.decisionLevel())
	s.reason[v] = from
	s.trail = append(s.trail, l)
	return true
}

func (s *refSolver) propagate() *refClause {
	var confl *refClause
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.stats.Propagations++
		ws := s.watches[p]
		i, j := 0, 0
		for i < len(ws) {
			w := ws[i]
			if s.litValue(w.blocker) == lTrue {
				ws[j] = w
				i++
				j++
				continue
			}
			c := w.c
			falseLit := p.neg()
			if c.lits[0] == falseLit {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			first := c.lits[0]
			if first != w.blocker && s.litValue(first) == lTrue {
				ws[j] = refWatcher{c: c, blocker: first}
				i++
				j++
				continue
			}
			found := false
			for k := 2; k < len(c.lits); k++ {
				if s.litValue(c.lits[k]) != lFalse {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					s.watches[c.lits[1].neg()] = append(s.watches[c.lits[1].neg()], refWatcher{c: c, blocker: first})
					found = true
					break
				}
			}
			if found {
				i++
				continue
			}
			ws[j] = refWatcher{c: c, blocker: first}
			i++
			j++
			if s.litValue(first) == lFalse {
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
		if confl != nil {
			return confl
		}
	}
	return nil
}

func (s *refSolver) cancelUntil(level int) {
	if s.decisionLevel() <= level {
		return
	}
	bound := s.trailLim[level]
	for i := len(s.trail) - 1; i >= int(bound); i-- {
		l := s.trail[i]
		v := l.ivar()
		if s.opts.PhaseSaving {
			s.polarity[v] = !l.sign()
		}
		s.assigns[v] = lUndef
		s.reason[v] = nil
		s.order.insert(v, &s.activity)
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

func (s *refSolver) newDecisionLevel() {
	s.trailLim = append(s.trailLim, int32(len(s.trail)))
}

func (s *refSolver) pickBranchVar() int32 {
	for {
		v := s.order.removeMin(&s.activity)
		if v < 0 {
			return -1
		}
		if s.assigns[v] == lUndef {
			return v
		}
	}
}

func (s *refSolver) bumpVar(v int32) {
	s.activity[v] += s.varInc
	s.confAct[v]++
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.decrease(v, &s.activity)
}

func (s *refSolver) decayVarActivity()    { s.varInc /= s.opts.VarDecay }
func (s *refSolver) decayClauseActivity() { s.clauseInc /= s.opts.ClauseDecay }

func (s *refSolver) bumpClause(c *refClause) {
	c.activity += s.clauseInc
	if c.activity > 1e20 {
		for _, lc := range s.learnts {
			lc.activity *= 1e-20
		}
		s.clauseInc *= 1e-20
	}
}

func (s *refSolver) analyze(confl *refClause) ([]ilit, int) {
	learnt := []ilit{0}
	pathC := 0
	var p ilit = -1
	idx := len(s.trail) - 1
	var toClear []int32

	for {
		s.bumpClause(confl)
		for _, q := range confl.lits {
			if q == p {
				continue
			}
			v := q.ivar()
			if !s.seen[v] && s.level[v] > 0 {
				s.bumpVar(v)
				s.seen[v] = true
				toClear = append(toClear, v)
				if int(s.level[v]) >= s.decisionLevel() {
					pathC++
				} else {
					learnt = append(learnt, q)
				}
			}
		}
		for !s.seen[s.trail[idx].ivar()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		confl = s.reason[p.ivar()]
		s.seen[p.ivar()] = false
		pathC--
		if pathC <= 0 {
			break
		}
	}
	learnt[0] = p.neg()

	if s.opts.MinimizeLearned {
		learnt = s.minimizeLearned(learnt)
	}

	btLevel := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].ivar()] > s.level[learnt[maxI].ivar()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		btLevel = int(s.level[learnt[1].ivar()])
	}

	for _, v := range toClear {
		s.seen[v] = false
	}
	return learnt, btLevel
}

func (s *refSolver) minimizeLearned(learnt []ilit) []ilit {
	out := learnt[:1]
	for i := 1; i < len(learnt); i++ {
		l := learnt[i]
		r := s.reason[l.ivar()]
		if r == nil {
			out = append(out, l)
			continue
		}
		redundant := true
		for _, q := range r.lits {
			if q == l.neg() || q == l {
				continue
			}
			v := q.ivar()
			if !s.seen[v] && s.level[v] > 0 {
				redundant = false
				break
			}
		}
		if !redundant {
			out = append(out, l)
		}
	}
	return out
}

func (s *refSolver) computeLBD(lits []ilit) int {
	levels := make(map[int32]struct{}, len(lits))
	for _, l := range lits {
		levels[s.level[l.ivar()]] = struct{}{}
	}
	return len(levels)
}

func (s *refSolver) recordLearned(lits []ilit) {
	if len(lits) == 1 {
		s.enqueue(lits[0], nil)
		return
	}
	c := &refClause{lits: lits, learned: true, lbd: s.computeLBD(lits)}
	s.bumpClause(c)
	s.learnts = append(s.learnts, c)
	s.stats.Learned++
	s.attach(c)
	s.enqueue(lits[0], c)
}

// reduceDB is preserved with the seed's unstable sort.Slice on purpose: the
// differential tests prove that the production solver's deterministic
// tie-break never changes the outcome (learned activities are distinct in
// practice because clauseInc grows strictly between conflicts).
func (s *refSolver) reduceDB() {
	sort.Slice(s.learnts, func(i, j int) bool {
		ci, cj := s.learnts[i], s.learnts[j]
		if (len(ci.lits) == 2) != (len(cj.lits) == 2) {
			return len(cj.lits) == 2
		}
		return ci.activity < cj.activity
	})
	limit := len(s.learnts) / 2
	kept := s.learnts[:0]
	for i, c := range s.learnts {
		locked := s.isReason(c)
		if i < limit && len(c.lits) > 2 && !locked {
			s.detach(c)
			s.stats.Removed++
			continue
		}
		kept = append(kept, c)
	}
	s.learnts = kept
}

func (s *refSolver) isReason(c *refClause) bool {
	v := c.lits[0].ivar()
	return s.assigns[v] != lUndef && s.reason[v] == c
}

func (s *refSolver) outOfBudget() bool {
	if s.interrupt.Load() {
		return true
	}
	if s.budget.MaxConflicts > 0 && s.stats.Conflicts >= s.budget.MaxConflicts {
		return true
	}
	if s.budget.MaxPropagations > 0 && s.stats.Propagations >= s.budget.MaxPropagations {
		return true
	}
	if !s.deadline.IsZero() && s.stats.Conflicts%64 == 0 && time.Now().After(s.deadline) {
		return true
	}
	return false
}

func (s *refSolver) search(maxConflicts uint64, assumptions []ilit) (Status, bool) {
	conflictsAtStart := s.stats.Conflicts
	for {
		confl := s.propagate()
		if confl != nil {
			s.stats.Conflicts++
			if s.decisionLevel() == 0 {
				s.okay = false
				return Unsat, false
			}
			learnt, btLevel := s.analyze(confl)
			s.cancelUntil(btLevel)
			s.recordLearned(learnt)
			s.decayVarActivity()
			s.decayClauseActivity()
			if s.outOfBudget() {
				return Unknown, true
			}
			if maxConflicts > 0 && s.stats.Conflicts-conflictsAtStart >= maxConflicts {
				s.cancelUntil(0)
				return Unknown, false
			}
			continue
		}
		if s.opts.MaxLearnedFactor > 0 &&
			float64(len(s.learnts)) > s.opts.MaxLearnedFactor*float64(len(s.clauses)+100) {
			s.reduceDB()
		}
		if s.outOfBudget() {
			return Unknown, true
		}
		if s.decisionLevel() < len(assumptions) {
			a := assumptions[s.decisionLevel()]
			switch s.litValue(a) {
			case lTrue:
				s.newDecisionLevel()
				continue
			case lFalse:
				return Unsat, false
			default:
				s.newDecisionLevel()
				s.enqueue(a, nil)
				continue
			}
		}
		v := s.pickBranchVar()
		if v < 0 {
			return Sat, false
		}
		s.stats.Decisions++
		s.newDecisionLevel()
		if dl := s.decisionLevel(); dl > s.stats.MaxLevel {
			s.stats.MaxLevel = dl
		}
		s.enqueue(mkLit(v, s.polarity[v]), nil)
	}
}

func (s *refSolver) Solve() Result { return s.SolveWithAssumptions(nil) }

func (s *refSolver) SolveWithAssumptions(assumptions []cnf.Lit) (res Result) {
	s.ensureBase()
	s.everSolved = true
	s.startTime = time.Now()
	if s.budget.MaxTime > 0 {
		s.deadline = s.startTime.Add(s.budget.MaxTime)
	} else {
		s.deadline = time.Time{}
	}
	startStats := s.stats
	res = Result{Status: Unknown}
	defer func() {
		res.Stats = diffStats(s.stats, startStats)
		res.Stats.SolveTime = time.Since(s.startTime)
	}()

	if !s.okay {
		res.Status = Unsat
		return res
	}
	s.cancelUntil(0)
	iassumps := make([]ilit, 0, len(assumptions))
	for _, a := range assumptions {
		s.ensureVars(int32(a.Var()))
		iassumps = append(iassumps, fromExternal(a))
	}

	var restarts uint64
	for {
		limit := s.opts.RestartBase * luby(restarts+1)
		st, stopped := s.search(limit, iassumps)
		if st == Sat {
			res.Status = Sat
			res.Model = s.extractModel()
			s.cancelUntil(0)
			return res
		}
		if st == Unsat {
			res.Status = Unsat
			s.cancelUntil(0)
			return res
		}
		if stopped {
			res.Interrupted = true
			s.cancelUntil(0)
			return res
		}
		restarts++
		s.stats.Restarts++
	}
}

func (s *refSolver) extractModel() cnf.Assignment {
	m := cnf.NewAssignment(int(s.numVars))
	for v := int32(0); v < s.numVars; v++ {
		switch s.assigns[v] {
		case lTrue:
			m[v+1] = cnf.True
		case lFalse:
			m[v+1] = cnf.False
		default:
			if s.polarity[v] {
				m[v+1] = cnf.True
			} else {
				m[v+1] = cnf.False
			}
		}
	}
	return m
}
