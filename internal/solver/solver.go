// Package solver implements a complete CDCL (conflict-driven clause
// learning) SAT solver in the MiniSat tradition, plus a small reference DPLL
// solver used for cross-checking.
//
// The solver is deterministic: given the same formula, the same assumptions
// and the same options it always performs the same search, which is a
// requirement of the Monte Carlo estimation method of Semenov & Zaikin (the
// observed per-subproblem costs must be samples of a single well-defined
// random variable).  All tie-breaking is by variable index; no randomized
// decisions are made.
//
// Besides the usual machinery (two-watched-literal propagation, first-UIP
// clause learning with minimization, VSIDS variable activities, phase
// saving, Luby restarts, learned-clause database reduction, assumption
// solving) the solver reports per-variable conflict activity through
// AppendConflictActivities, which the tabu-search heuristic of the paper
// uses, summed over subproblems, to pick new neighbourhood centres.
//
// # Clause storage
//
// Clauses live in a flat arena (see arena.go): one packed []int32 slice
// holding, per clause, a small header followed by the literals, addressed by
// offset (cref).  Watch lists hold 8-byte {cref, blocker} entries with
// binary clauses specialized in place (watch.go).  The layout is a pure
// representation change: the search — every decision, conflict, learned
// clause, restart and statistic — is bit-for-bit the one the original
// pointer-based implementation recorded, and the goldens
// (testdata/solver_goldens.json, golden_test.go) hold it there.  There is one learned-clause reducer (reduce.go): the seed's
// activity-based policy, which hands the arena words of the clauses it
// removes back by an order-preserving compaction.
//
// # Construction
//
// Every computing process builds its solver from the same CNF before it can
// take its first sample, so New is built by count: sizeFor finds the largest
// variable and counts the arena words, the clauses that will be stored and the
// watches every literal will hold — the two first literals of a clause in
// normalised order, found without sorting — and each array is then made
// once: the arena, the clause list, the clause activities and their mark
// lists from the clause counts, the per-variable arrays, the mark lists, the
// trail and the decision heap in makeVars from the variable count (the
// formula's NumVars, or the largest variable a clause names if that is more),
// and the watch lists as stretches of one slab.  The clauses are then added
// through one scratch buffer (normalizeClause: ordered by variable,
// duplicates and tautologies dropped, in place) with root-level
// simplification and unit propagation as they arrive, so the clause order,
// the watch order, the root-level trail and the statistics are those of a
// clause-by-clause build; the goldens' "oneshot/" scenarios pin them over
// hand-made formulas for every normalisation path.  On the bench's A5/1 instance (42 754 clauses) that
// is 140 allocations where there were 219 142, a third of the time and of
// the bytes; what remains beside the arrays are watch lists that
// root-level propagation moves entries into until they outgrow their stretch,
// and such a list moves off the slab like any slice that is appended to (a
// stretch's capacity is its own, so it cannot run into its neighbour).
//
// Capacity is part of the contract, because a benchmark that times a region
// after set-up sees every byte that set-up did not reserve.  A solver grown
// by append carried slack it never asked for — up to a quarter behind the
// arena, the next power of two in every watch list — and the first learned
// clauses and watch moves of a search went into it.  A first version of this
// construction fitted everything exactly and moved that growth out of set-up
// into the timed region: a51-solve's alloc_mb read 6.59 MB where it had been
// 1.69.  So the room is reserved on purpose: a quarter of the originals'
// words behind the arena and of their count behind the clause activities
// (learnedReserve), and for a watch list that will hold n entries the power
// of two append would have grown it to (watchCap) — the capacity it had
// before, for every list of up to 512 entries.  Past the reserve, what grows
// with the learned clauses (arena, clause activities, learned list) doubles
// when it moves, as long as the learned list is under a quarter of
// reduceDB's bound; past that it moves once to what the bound implies, the
// bound's clauses at the mean size of the live ones plus an eighth
// (growLearned).  append's 1.25x reallocated five times the final size over
// a long solve, and doubling twice (bivium-hard: 42.7 to 31.6 MB); the one
// projected move takes bivium-hard to 19.4 MB and a cold 24 000-conflict
// solve of its shape from 15.96 to 9.7, the arena through 100k, 200k, 400k
// and 869k words where doubling went on to 1.6M for a peak of 0.81M.  A
// short solve never reaches a quarter of the bound.  Compaction keeps the
// clause activities to one per live clause (see arena.go), so a solver that
// is never Reset holds what the reduce policy bounds, not one activity per
// conflict.  All of it is kept over Reset, which truncates and never frees;
// TestConstructionReservesGrowth holds a second pass over a batch to no
// allocation at all.
//
// # Assignment
//
// The assignment is stored per literal, not per variable: vals holds two
// entries for every variable, the truth value of its positive literal at 2v
// and of its negative literal at 2v+1, so the value of a literal — asked for
// every blocker, first literal and candidate watch of the propagation loop —
// is one byte load with no decoding of a sign.  The two entries of a
// variable are always written together (true/false, false/true, or both
// undefined) in enqueue, cancelUntil, Reset and makeVars; there is no
// per-variable copy to fall out of step with, and the value of a variable is
// the value of its positive literal.  Like the arena this is a
// representation change under the same bit-identity contract: the
// traversal order of propagate is untouched.
//
// # Sessions: reusing one solver for many subproblems
//
// A solver may be used as a long-lived session instead of being rebuilt for
// every query.  Two reuse modes are supported:
//
//   - Incremental (MiniSat-style): simply call SolveWithAssumptions
//     repeatedly.  Assumptions are applied as pseudo-decisions, never as
//     clauses, so every learned clause is implied by the formula alone and
//     remains valid for later calls under different assumptions.  Learned
//     clauses, variable activities and saved phases all carry over, which
//     typically makes later related queries cheaper — at the price that the
//     cost of a query now depends on the query history.
//
//   - Pristine (Reset): call Reset between queries.  Reset restores the
//     exact state the solver had right after construction — clause literal
//     order, watch lists, root-level trail, activities, phases and
//     statistics — so the next SolveWithAssumptions call performs literally
//     the same search a freshly constructed solver would, while skipping
//     the allocation and root-level propagation work of New.  This is what
//     the Monte Carlo estimation of the paper needs: the observed cost of a
//     subproblem must be a sample of a well-defined random variable,
//     independent of which subproblems happened to be solved before it on
//     the same worker.
//
// Both modes solve the formula the solver was built from.  New is the only
// call that gives a solver clauses or variables, and SolveWithAssumptions
// panics on an assumption over a variable above the formula's, so the clauses
// and the variables of a solver never change after New returns.
//
// New captures the pristine snapshot as its last step; it costs one
// O(formula) copy and roughly doubles the memory held per solver, which is
// negligible next to the construction cost it saves in session use and
// acceptable for one-shot solves.
//
// Restoring is dirty-tracked: its cost follows what the queries since the
// last Reset changed, not the size of the formula, because one evaluation of
// the paper's predictive function is thousands of Reset + short-solve pairs
// that each assign a few hundred of the formula's thousands of variables.
// The search records what it changes in mark lists whose capacity is
// reserved ahead of the search (one slot per literal and per variable in
// makeVars, one per original clause in sizeFor), so that
// marking never allocates and the marks inside propagate and cancelUntil are
// call-free, and Reset puts exactly those pieces back.  Each mark protects
// one invariant:
//
//   - Literal marks, of two strengths (one byte per literal).  Rewritten is
//     set in cancelUntil when the literal is unassigned, in Reset for what is
//     left on the trail behind the snapshot's root-level prefix, and in
//     removeWatch.  Invariant: the watch list of a literal not marked
//     rewritten starts with the snapshot's, and a variable neither of whose
//     literals is marked rewritten has the snapshot's level and saved phase.
//     It holds because propagate rewrites only the list of a literal it
//     dequeued from the trail, and level and phase change only for variables
//     that were assigned.  Marking at unassignment instead of at enqueue
//     keeps the mark off the propagation path;
//     SolveWithAssumptions always backtracks to the root before it returns,
//     so by then every assigned literal is either marked or on the
//     root-level trail.  Appended is set, on a literal with no mark yet,
//     where an entry is pushed onto the end of its list: attach and
//     propagate's new-watch move.  Invariant: an unmarked literal's list is
//     the snapshot's.  Everything that happens to a list off the trail is
//     such a push (compactLearned rewrites only crefs of the learned region,
//     which a snapshot prefix cannot hold), so a list marked appended and
//     never rewritten is restored by cutting it back to the snapshot's
//     length, with no copy — more than half of the lists a short solve
//     marks.  Values and reasons need no mark at all: cancelUntil clears
//     them, Reset clears them for the trail it cuts off, and nothing else
//     differs from the snapshot, whose root-level prefix is never touched.
//   - Clause marks (the permuted flag in the second header word of an
//     original clause, set where propagate actually swaps two of its
//     literals).
//     Invariant: an unflagged original clause has the snapshot's literal
//     order.  Learned clauses need no mark: the arena is truncated back to
//     the originals.
//   - Activity marks: the activity slot of an original clause of the
//     snapshot, recorded at its first bump, which is the bump that finds the
//     clause activity at zero; and the variable, set in a two-level bitmap
//     (bumpedSet, bumpedSum) at every bump that finds its conflict count at
//     zero.  Invariant: an unrecorded original clause of the snapshot has
//     activity zero, a variable outside the bitmap VSIDS activity and
//     conflict count zero.  (The slots above the snapshot's are cut off, and
//     compaction renumbers them, so none of them is recorded.)  The bitmap
//     is also what AppendConflictActivities walks: it takes the counts and
//     leaves the bits, which only Reset clears, for the VSIDS activities.
//
// What is left is independent of the search: truncating the arena, the
// learned-clause list and the trail, and rebuilding the decision heap, which
// is two memmoves of numVars words.  A missed mark would not make the solver
// wrong, only different from a fresh one, so TestResetEqualsFresh and
// FuzzResetEqualsFresh compare the complete state after Reset with a fresh
// solver's, field by field.
package solver

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync/atomic"
	"time"

	"github.com/paper-repro/pdsat-go/internal/cnf"
)

// Status is the outcome of a solving attempt.
type Status int

// Possible solver outcomes.
const (
	// Unknown means the solver stopped before reaching a conclusion
	// (budget exhausted or interrupted).
	Unknown Status = iota
	// Sat means a satisfying assignment was found.
	Sat
	// Unsat means the formula was proved unsatisfiable.
	Unsat
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Sat:
		return "SAT"
	case Unsat:
		return "UNSAT"
	default:
		return "UNKNOWN"
	}
}

// Stats holds counters accumulated during solving.
type Stats struct {
	Decisions    uint64 `json:"decisions"`
	Propagations uint64 `json:"propagations"`
	Conflicts    uint64 `json:"conflicts"`
	Restarts     uint64 `json:"restarts"`
	Learned      uint64 `json:"learned"`
	Removed      uint64 `json:"removed"`
	// ReduceDBs counts learned-clause database reductions.
	ReduceDBs uint64 `json:"reduce_dbs"`
	// ArenaBytes is a gauge, not a counter: the current size of the clause
	// arena in bytes.  In a per-call Result it is the size at the end of
	// the call; Add keeps the maximum, reporting the peak across sessions.
	ArenaBytes uint64 `json:"arena_bytes"`
	MaxLevel   int    `json:"max_level"`
	// SolveTime is the wall-clock duration of the last Solve call.
	SolveTime time.Duration `json:"solve_time_ns"`
}

// Options configure the solver.  The zero value is DefaultOptions (see New).
type Options struct {
	// VarDecay is the multiplicative decay of VSIDS activities (0,1).
	VarDecay float64
	// ClauseDecay is the multiplicative decay of clause activities (0,1).
	ClauseDecay float64
	// RestartBase is the Luby restart unit, in conflicts.
	RestartBase uint64
	// MaxLearnedFactor bounds the learned-clause database to
	// MaxLearnedFactor * number of original clauses before reduction.
	MaxLearnedFactor float64
	// PhaseSaving enables progress saving of variable polarities.
	PhaseSaving bool
	// DefaultPhase is the polarity used for a variable that has never been
	// assigned (false mimics MiniSat's default).
	DefaultPhase bool
	// MinimizeLearned enables self-subsumption minimization of learned
	// clauses.
	MinimizeLearned bool
}

// DefaultOptions returns the standard solver configuration.
func DefaultOptions() Options {
	return Options{
		VarDecay:         0.95,
		ClauseDecay:      0.999,
		RestartBase:      100,
		MaxLearnedFactor: 3.0,
		PhaseSaving:      true,
		DefaultPhase:     false,
		MinimizeLearned:  true,
	}
}

// Budget limits the effort of a single Solve call.  A zero field means
// "unlimited".
type Budget struct {
	// MaxConflicts stops the search after this many conflicts.
	MaxConflicts uint64
	// MaxPropagations stops the search after this many propagations.
	MaxPropagations uint64
	// MaxTime stops the search after this wall-clock duration.
	MaxTime time.Duration
}

// TightenedBy returns the element-wise tighter of the two budgets, treating
// a zero field as unlimited.  The evaluation engine uses it to combine the
// configured per-subproblem safety budget with the per-stage allowance
// derived from the pruning incumbent.
func (b Budget) TightenedBy(o Budget) Budget {
	out := b
	if o.MaxConflicts > 0 && (out.MaxConflicts == 0 || o.MaxConflicts < out.MaxConflicts) {
		out.MaxConflicts = o.MaxConflicts
	}
	if o.MaxPropagations > 0 && (out.MaxPropagations == 0 || o.MaxPropagations < out.MaxPropagations) {
		out.MaxPropagations = o.MaxPropagations
	}
	if o.MaxTime > 0 && (out.MaxTime == 0 || o.MaxTime < out.MaxTime) {
		out.MaxTime = o.MaxTime
	}
	return out
}

// ReachedBy reports whether the effort st has reached one of the budget's
// limits: how a solve that stopped at this budget is told apart from one that
// stopped at a tighter one.  st is what the budget was checked against, a
// fresh solver's lifetime effort (construction included).
func (b Budget) ReachedBy(st Stats) bool {
	return b.MaxConflicts > 0 && st.Conflicts >= b.MaxConflicts ||
		b.MaxPropagations > 0 && st.Propagations >= b.MaxPropagations ||
		b.MaxTime > 0 && st.SolveTime >= b.MaxTime
}

// BudgetForCost returns a Budget that stops a solve once its cost in the
// given metric strictly exceeds the allowance, by budgeting the matching
// counter at ⌈allowance⌉+1.  A solve truncated by this budget therefore has
// cost > allowance — which is what makes it a usable pruning proxy: the
// truncated cost alone already pushes a partial sum over the incumbent
// bound the allowance was derived from.  Metrics without a deterministic
// budget counter (decisions, wall time) and non-positive allowances return
// the zero (unlimited) Budget; wall time is excluded because a timing-based
// truncation would make the observed costs scheduling-dependent.
func BudgetForCost(metric CostMetric, allowance float64) Budget {
	if allowance <= 0 || math.IsInf(allowance, 1) || math.IsNaN(allowance) {
		return Budget{}
	}
	limit := uint64(math.Ceil(allowance)) + 1
	switch metric {
	case CostConflicts:
		return Budget{MaxConflicts: limit}
	case CostPropagations:
		return Budget{MaxPropagations: limit}
	default:
		return Budget{}
	}
}

// Result is the outcome of a Solve call.
type Result struct {
	Status Status
	// Model is a satisfying assignment (indexed by cnf.Var) when Status==Sat.
	Model cnf.Assignment
	// Stats are the statistics accumulated during this call.
	Stats Stats
	// Interrupted reports whether the call ended because Interrupt was
	// called or the budget was exhausted.
	Interrupted bool
}

// internal literal encoding: variable v (0-based) has literals 2v (positive)
// and 2v+1 (negative).
type ilit int32

func mkLit(v int32, positive bool) ilit {
	if positive {
		return ilit(v << 1)
	}
	return ilit(v<<1 | 1)
}

func (l ilit) ivar() int32 { return int32(l) >> 1 }
func (l ilit) sign() bool  { return l&1 == 1 } // true => negative literal
func (l ilit) neg() ilit   { return l ^ 1 }

func fromExternal(l cnf.Lit) ilit {
	return mkLit(int32(l.Var()-1), l.Positive())
}

type lbool int8

const (
	lUndef lbool = iota
	lTrue
	lFalse
)

type varOrder struct {
	heap     []int32 // binary heap of variable indices
	indices  []int32 // position of variable in heap, -1 if absent
	identity []int32 // 0,1,2,...: what rebuild copies into heap and indices
	activity *[]float64
}

// Solver is a CDCL SAT solver.  It is not safe for concurrent use; create
// one solver per goroutine.
type Solver struct {
	opts Options

	numVars   int32
	ar        arena     // packed clause storage (arena.go)
	clauses   []cref    // original clauses
	learnts   []cref    // learned clauses
	clauseAct []float64 // clause activities, indexed by the arena's actIdx
	watches   [][]watch
	vals      []lbool // truth value of every literal (see "Assignment" in the package comment)
	polarity  []bool  // saved phases
	reason    []cref
	level     []int32
	trail     []ilit
	trailLim  []int32
	qhead     int
	order     varOrder
	activity  []float64 // VSIDS activity, indexed by internal variable
	confAct   []float64 // conflict bumps since the last harvest (never decayed), per variable
	varInc    float64
	clauseInc float64

	seen []bool

	// arenaBase is the arena length right after construction: everything
	// below it is original clauses (never moved or removed), everything at
	// or above it is the learned region.
	arenaBase int
	// garbageWords counts the words of removed (dead) clauses in the
	// learned region; compactLearned reclaims them.
	garbageWords int

	// Reused scratch buffers (their contents never survive a call).
	learntBuf []ilit     // analyze's learned-clause assembly
	clearBuf  []int32    // analyze's seen-flag clear list
	assumpBuf []ilit     // SolveWithAssumptions' internal-literal assumptions
	addBuf    []ilit     // addClause's normalised clause
	runBuf    []movedRun // compactLearned's table of where the clauses went

	okay bool // false once a top-level conflict has been found

	stats     Stats
	budget    Budget
	interrupt atomic.Bool
	startTime time.Time
	deadline  time.Time

	// base is the pristine post-construction snapshot restored by Reset.
	base *snapshot
	// Dirty marks: everything that may differ from the snapshot, recorded as
	// the search mutates it so Reset restores only that (see "Sessions" in
	// the package comment for the invariant behind each list).
	litMark      []litMark // per literal: how its watch list may differ
	dirtyLits    []ilit    // literals marked rewritten: watch list and variable state may differ
	appLits      []ilit    // literals marked appended when clean: the watch list may have grown
	dirtyClauses []cref    // original clauses with permuted literals (flagged in their header)
	dirtyActs    []int32   // activity slots of original clauses that were bumped
	// The variables bumped since Reset, as a set read in ascending order
	// without a sort: bumpedSet has bit v%64 of word v/64 set for each, and
	// bumpedSum bit w%64 of word w/64 for each non-zero word w of bumpedSet.
	// Cleared by Reset only; they never shrink, and hold no bit for a
	// variable beyond numVars.
	bumpedSet, bumpedSum []uint64
	// unharvested counts the variables with a non-zero conflict count: what
	// the next harvest appends, so that it grows dst once.
	unharvested int
}

// snapshot captures the complete search-relevant state of a solver right
// after construction, so Reset can restore it with plain copies instead of
// re-running New (allocation, clause normalization and root propagation).
// With the flat arena every piece of clause state is a slice of plain
// values, so capture is a handful of memcpys and Reset copies back the
// pieces the dirty marks name.  The assignment is not in it: backtracking
// clears the values and reasons of everything behind the root-level trail
// prefix (trailLen), and nothing ever writes those of the prefix.
type snapshot struct {
	numActs  int
	arena    []ilit  // the arena at capture time (original clauses only)
	watch    []watch // flat concatenation of every watch list
	watchOff []int32 // watch list of literal l is watch[watchOff[l]:watchOff[l+1]]
	trailLen int     // root-level trail length; the search never rewrites that prefix
	stats    Stats
	okay     bool
}

// capture records the current state as the pristine baseline for Reset.  New
// calls it as its last step, at decision level 0 with no learned clauses, so
// every solver holds its snapshot from birth.  The only marks construction
// leaves are the appended marks of attach and root-level propagation (there
// is no snapshot to permute a clause or rewrite a list against yet, and
// nothing is unassigned); they describe differences from a state that no
// longer matters, so they are cleared.
func (s *Solver) capture() {
	for _, l := range s.appLits {
		s.litMark[l] = litClean
	}
	s.appLits = s.appLits[:0]

	b := &snapshot{
		numActs:  len(s.clauseAct),
		arena:    append([]ilit(nil), s.ar.data...),
		trailLen: len(s.trail),
		stats:    s.stats,
		okay:     s.okay,
	}
	b.watchOff = make([]int32, len(s.watches)+1)
	for l, ws := range s.watches {
		b.watchOff[l+1] = b.watchOff[l] + int32(len(ws))
	}
	b.watch = make([]watch, b.watchOff[len(s.watches)])
	for l, ws := range s.watches {
		restoreRun(b.watch[b.watchOff[l]:], ws)
	}
	s.arenaBase = len(b.arena)
	s.base = b
}

// Reset restores the solver to its pristine post-construction state: learned
// clauses are dropped, clause literal order, watch lists, the root-level
// trail, activities, saved phases and statistics are all restored to the
// values they had when New returned.  The next SolveWithAssumptions call
// therefore performs exactly the same search as a freshly constructed
// solver, but without reallocating the clause database or redoing the
// root-level propagation (whose effort stays accounted in the restored
// Stats).
//
// The cost is proportional to what the queries since the last Reset
// changed — the permuted clauses, the rewritten watch lists, a reslice for
// each list that only grew, the bumped variables — plus two memmoves of
// numVars words for the decision heap; it does not depend on the size of the
// formula otherwise.
//
// Restoring truncates the arena back to the original clauses — all
// learned-clause memory is reclaimed in one step, which is the session
// analogue of the reducer's compaction.
//
// The effort budget set by SetBudget is configuration, not search state: it
// survives Reset and applies afresh to each query (the statistics it is
// checked against are rebased to the construction baseline).  Call SetBudget
// with a zero Budget to remove it.
func (s *Solver) Reset() {
	b := s.base
	s.interrupt.Store(false)
	// Literals the search left on the root-level trail never went through
	// cancelUntil, which is where assigned literals are unassigned and
	// marked.
	for _, l := range s.trail[b.trailLen:] {
		s.vals[l], s.vals[l.neg()] = lUndef, lUndef
		s.reason[l.ivar()] = nullRef
		s.markRewritten(l)
	}
	s.trail = s.trail[:b.trailLen]
	s.trailLim = s.trailLim[:0]
	s.qhead = len(s.trail)
	// Restore the literal order of the permuted original clauses (search
	// never grows or shrinks an original, it only swaps literals inside it)
	// together with the header word that flagged them; truncating to the
	// captured length then drops every learned clause in one step.
	for _, c := range s.dirtyClauses {
		end := int(c) + hdrWords + int(b.arena[c])>>flagBits
		restoreRun(s.ar.data[c+1:end], b.arena[c+1:end])
	}
	s.dirtyClauses = s.dirtyClauses[:0]
	s.ar.data = s.ar.data[:len(b.arena)]
	s.garbageWords = 0
	s.learnts = s.learnts[:0]
	// A fresh solver starts every clause activity at zero, so restore that
	// (the value only feeds the 1e20 rescale trigger, but a divergent
	// rescale would break the fresh-replay guarantee on very long
	// searches).
	for _, ai := range s.dirtyActs {
		s.clauseAct[ai] = 0
	}
	s.dirtyActs = s.dirtyActs[:0]
	s.clauseAct = s.clauseAct[:b.numActs]
	// Restore the watch list behind every marked literal.  A list has the
	// capacity for the snapshot's length, which it had at capture, and one
	// that was only appended to still starts with the snapshot: cutting it
	// back is the whole restore (a list rewritten later is cut here and
	// copied below).
	for _, l := range s.appLits {
		s.litMark[l] = litClean
		s.watches[l] = s.watches[l][:b.watchOff[l+1]-b.watchOff[l]]
	}
	s.appLits = s.appLits[:0]
	// A rewritten list is copied, and its variable, which was assigned, gets
	// back the level and phase of one that never was; cancelUntil and the
	// sweep above have already cleared its value and reason.  (A variable
	// rewritten under both polarities is restored twice, to the same values.)
	for _, l := range s.dirtyLits {
		snap := b.watch[b.watchOff[l]:b.watchOff[l+1]]
		ws := s.watches[l][:len(snap)]
		s.watches[l] = ws
		s.litMark[l] = litClean
		restoreRun(ws, snap)
		v := l.ivar()
		s.level[v] = 0
		s.polarity[v] = s.opts.DefaultPhase
	}
	s.dirtyLits = s.dirtyLits[:0]
	// A fresh solver starts every variable activity at zero, and only a bump
	// moves one.
	for i, sum := range s.bumpedSum {
		for ; sum != 0; sum &= sum - 1 {
			w := i<<6 | bits.TrailingZeros64(sum)
			for set := s.bumpedSet[w]; set != 0; set &= set - 1 {
				v := w<<6 | bits.TrailingZeros64(set)
				s.activity[v] = 0
				s.confAct[v] = 0
			}
			s.bumpedSet[w] = 0
		}
		s.bumpedSum[i] = 0
	}
	s.unharvested = 0
	s.order.rebuild(s.numVars)
	s.varInc, s.clauseInc = 1.0, 1.0
	s.stats = b.stats
	s.okay = b.okay
}

// litMark says how far the watch list of a literal may have moved from the
// snapshot's (see "Sessions" in the package comment).
type litMark uint8

const (
	litClean     litMark = iota // the snapshot's list
	litAppended                 // the snapshot's list with entries pushed behind it; listed in appLits
	litRewritten                // anything, and the variable was assigned; listed in dirtyLits
)

// markAppended records that an entry was pushed onto the end of l's watch
// list.  makeVars gives both literal lists the capacity of one slot per
// literal, so listing a literal is a reslice, not an append: no call on the
// paths that mark (cancelUntil, propagate).
func (s *Solver) markAppended(l ilit) {
	if s.litMark[l] == litClean {
		s.litMark[l] = litAppended
		n := len(s.appLits)
		s.appLits = s.appLits[:n+1]
		s.appLits[n] = l
	}
}

// markRewritten records that the watch list of l may differ from the
// snapshot's anywhere, or that its variable was assigned; it overrides an
// appended mark (the literal then stays in appLits as well, and Reset cuts
// its list back before it copies it).
func (s *Solver) markRewritten(l ilit) {
	if s.litMark[l] != litRewritten {
		s.litMark[l] = litRewritten
		n := len(s.dirtyLits)
		s.dirtyLits = s.dirtyLits[:n+1]
		s.dirtyLits[n] = l
	}
}

// inlineRun is the longest run restoreRun copies element by element.  What
// Reset copies back is mostly binary and ternary clauses and watch lists of
// a handful of entries, for which the call into memmove costs more than the
// move.
const inlineRun = 8

// restoreRun copies src, a piece of the snapshot, over dst, which has its
// length.
func restoreRun[T any](dst, src []T) {
	if len(src) > inlineRun {
		copy(dst, src)
		return
	}
	dst = dst[:len(src)]
	for i := range src {
		dst[i] = src[i]
	}
}

// markPermuted records that the literals of clause c were reordered.  Only
// original clauses need it (the learned region is truncated wholesale);
// their second header word holds the flag, so the test costs no
// cache line beyond the one the swap just wrote.  sizeFor reserves one slot
// per original clause, so this, too, is a reslice.
func (s *Solver) markPermuted(c cref) {
	if int(c) < s.arenaBase && s.ar.data[c+1] == 0 {
		s.ar.data[c+1] = 1
		n := len(s.dirtyClauses)
		s.dirtyClauses = s.dirtyClauses[:n+1]
		s.dirtyClauses[n] = c
	}
}

// BaseStats returns the statistics attributable to construction alone (the
// root-level propagation performed while the clauses were added).  After a
// Reset, Stats() starts from these values, so Stats() minus BaseStats() is
// the effort of the queries since the last Reset.
func (s *Solver) BaseStats() Stats { return s.base.stats }

// New creates a solver for the given formula.  The formula is copied into
// the solver's internal representation; it is not modified and may be reused
// to create further solvers.  Options with a zero VarDecay are replaced by
// DefaultOptions as a whole, so New(f, Options{}) is New(f, DefaultOptions());
// this is the one place that rule is applied.
//
// New is the only way a solver gets its clauses and variables: it has
// max(f.NumVars, the largest variable a clause names) variables, and it ends
// by capturing the pristine snapshot that Reset restores.
func New(f *cnf.Formula, opts Options) *Solver {
	if opts.VarDecay == 0 {
		opts = DefaultOptions()
	}
	s := &Solver{opts: opts, okay: true, varInc: 1.0, clauseInc: 1.0}
	s.makeVars(s.sizeFor(f))
	for _, c := range f.Clauses {
		if !s.addClause(c) {
			s.okay = false
		}
	}
	s.capture()
	return s
}

// learnedReserve is the room construction leaves behind the original clauses
// for the learned ones, as a divisor of the originals' own size: a quarter,
// the most the slack of an append-grown slice used to come to.  See
// "Construction" in the package comment.
const learnedReserve = 4

// sizeFor is the counting pass of New: a walk over the formula for the
// largest variable, one for the arena words, the clauses that will be stored
// and the watches every literal will hold, then one allocation for each of
// the arrays whose size follows the clause count, and the watch lists.  It
// returns the number of variables, for makeVars.  The counts are those of a formula nothing is
// assigned in; a clause that root-level simplification shortens or drops only
// leaves room unused, and a list that outgrows its stretch of the slab moves
// off it like any slice that is appended to.
func (s *Solver) sizeFor(f *cnf.Formula) int {
	numVars := f.NumVars
	for _, c := range f.Clauses {
		numVars = max(numVars, int(c.MaxVar()))
	}
	// counts[l] is the number of watches of literal l.  A clause is watched
	// by the negations of its two first literals in the order of
	// normalizeClause, which sorts by l^1: the list of the literal with sort
	// key k is list k.
	counts := make([]int32, 2*numVars)
	words, stored := 0, 0
	for _, c := range f.Clauses {
		const none = ilit(math.MaxInt32)
		k1, k2 := none, none // the two smallest distinct sort keys
		for _, l := range c {
			switch k := fromExternal(l) ^ 1; {
			case k < k1:
				k1, k2 = k, k1
			case k > k1 && k < k2:
				k2 = k
			}
		}
		if k2 == none {
			continue // empty or unit: nothing is stored
		}
		counts[k1]++
		counts[k2]++
		words += hdrWords + len(c)
		stored++
	}
	s.ar.data = make([]ilit, 0, words+words/learnedReserve)
	s.clauses = make([]cref, 0, stored)
	s.clauseAct = make([]float64, 0, stored+stored/learnedReserve)
	s.dirtyClauses = make([]cref, 0, stored)
	s.dirtyActs = make([]int32, 0, stored)

	total := 0
	for l, n := range counts {
		counts[l] = watchCap(n)
		total += int(counts[l])
	}
	slab := make([]watch, total)
	s.watches = make([][]watch, len(counts))
	for l, n := range counts {
		s.watches[l], slab = slab[:0:n], slab[n:]
	}
	return numVars
}

// watchCap is the capacity construction gives a watch list that will hold n
// entries: the power of two append would have grown it to, entry by entry.
func watchCap(n int32) int32 {
	if n == 0 {
		return 0
	}
	return 1 << bits.Len32(uint32(n-1))
}

// NewDefault creates a solver with DefaultOptions.
func NewDefault(f *cnf.Formula) *Solver { return New(f, DefaultOptions()) }

// NumVars returns the number of variables known to the solver.
func (s *Solver) NumVars() int { return int(s.numVars) }

// SetBudget sets the effort budget for subsequent Solve calls.
func (s *Solver) SetBudget(b Budget) { s.budget = b }

// Interrupt asks the solver to stop as soon as possible.  It is safe to call
// from another goroutine; the current or next Solve call returns a Result
// with Status Unknown and Interrupted set.
func (s *Solver) Interrupt() { s.interrupt.Store(true) }

// ClearInterrupt resets the interrupt flag so the solver can be reused.
func (s *Solver) ClearInterrupt() { s.interrupt.Store(false) }

// Stats returns the statistics accumulated over the lifetime of the solver.
func (s *Solver) Stats() Stats { return s.stats }

// SparseActivities is a conflict-activity vector in sparse form: Vars lists
// the variables with a non-zero entry and Acts holds the matching values.
// The zero value is the all-zero vector.  (The cluster's wire format sends
// Vars as differences; in ascending order they take one byte each.)
type SparseActivities struct {
	Vars []cnf.Var
	Acts []float64
}

// Emptied returns the all-zero vector over a's arrays, for a buffer that is
// filled again and again.
func (a SparseActivities) Emptied() SparseActivities {
	return SparseActivities{Vars: a.Vars[:0], Acts: a.Acts[:0]}
}

// Clone returns a copy of a that shares nothing with it.
func (a SparseActivities) Clone() SparseActivities {
	return SparseActivities{Vars: slices.Clone(a.Vars), Acts: slices.Clone(a.Acts)}
}

// AppendConflictActivities harvests the conflict activity of the queries
// since the last harvest, or since Reset: it appends to dst, in ascending
// variable order, every variable conflict analysis bumped in them with the
// number of its bumps — the "conflict activity" of the tabu-search
// getNewCenter heuristic — zeroes those counts and returns dst.  A harvest
// straight after a harvest is therefore empty, and the harvests of a run of
// queries add up to one harvest after them all.  It reads the bitmap of the
// variables bumped since Reset, so it takes time in proportion to those — a
// few dozen after a short solve — not to NumVars or to the literals
// assigned; it makes room for the count it appends (unharvested) once and
// fills it by index, so it allocates only to grow dst: a worker harvests
// every subproblem into one buffer of its own.
func (s *Solver) AppendConflictActivities(dst SparseActivities) SparseActivities {
	from, n := len(dst.Vars), s.unharvested
	dst.Vars = slices.Grow(dst.Vars, n)[:from+n]
	dst.Acts = slices.Grow(dst.Acts, n)[:from+n]
	vars, acts, counts := dst.Vars[from:], dst.Acts[from:], s.confAct
	k := 0
	for i, sum := range s.bumpedSum {
		for ; sum != 0; sum &= sum - 1 {
			w := i<<6 | bits.TrailingZeros64(sum)
			for set := s.bumpedSet[w]; set != 0; set &= set - 1 {
				v := w<<6 | bits.TrailingZeros64(set)
				if a := counts[v]; a != 0 {
					vars[k], acts[k] = cnf.Var(v+1), a
					counts[v] = 0
					k++
				}
			}
		}
	}
	s.unharvested = 0
	return dst
}

// makeVars creates variables 0..n-1.  Every per-variable array is made once,
// at its final length, and the mark lists, the trail and the decision heap
// get the capacity for every variable, so that marking, enqueueing and heap
// inserts never allocate.
func (s *Solver) makeVars(n int) {
	s.numVars = int32(n)
	s.litMark = make([]litMark, 2*n) // litClean
	s.vals = make([]lbool, 2*n)      // lUndef
	s.polarity = make([]bool, n)
	s.reason = make([]cref, n)
	for v := range n {
		s.polarity[v] = s.opts.DefaultPhase
		s.reason[v] = nullRef
	}
	s.level = make([]int32, n)
	s.activity = make([]float64, n)
	s.confAct = make([]float64, n)
	s.seen = make([]bool, n)
	s.dirtyLits = make([]ilit, 0, 2*n)
	s.appLits = make([]ilit, 0, 2*n)
	words := (n + 63) >> 6
	s.bumpedSet = make([]uint64, words)
	s.bumpedSum = make([]uint64, (words+63)>>6)
	s.trail = make([]ilit, 0, n)
	s.order.heap = make([]int32, 0, n)
	s.order.indices = make([]int32, 0, n)
	s.order.identity = make([]int32, 0, n)
	for v := range int32(n) {
		s.order.insert(v, &s.activity)
	}
}

// grown returns s with room for n more elements, moving it to capacity want
// (or to its length plus n, if that is more) when it has none.  growLearned
// chooses want for what grows with the learned clauses (the arena, the
// clause activities, the learned list), where append's 1.25x reallocated
// five times the final size over a long solve.
func grown[T any](s []T, n, want int) []T {
	if len(s)+n <= cap(s) {
		return s
	}
	out := make([]T, len(s), max(want, len(s)+n))
	copy(out, s)
	return out
}

// normalizeClause writes the clause into the solver's scratch buffer as
// internal literals, with no allocation: ordered by variable (the negative
// literal first), a repeated literal dropped, and the whole clause dropped
// as a tautology, reported by taut, if it holds a literal and its negation.
// The result is valid until the next call.
func (s *Solver) normalizeClause(c cnf.Clause) (lits []ilit, taut bool) {
	lits = s.addBuf[:0]
	for _, l := range c {
		lits = append(lits, fromExternal(l))
	}
	s.addBuf = lits[:0]
	slices.SortFunc(lits, func(a, b ilit) int { return cmp.Compare(a^1, b^1) })
	out := lits[:0]
	for i, l := range lits {
		if i > 0 {
			switch prev := out[len(out)-1]; l {
			case prev:
				continue
			case prev.neg():
				return nil, true
			}
		}
		out = append(out, l)
	}
	return out, false
}

// addClause adds an original clause; returns false if the solver became
// trivially unsatisfiable.
func (s *Solver) addClause(c cnf.Clause) bool {
	norm, taut := s.normalizeClause(c)
	if taut {
		return true
	}
	if len(norm) == 0 {
		return false
	}
	lits := norm[:0] // simplified in place: the write index never passes the read index
	for _, il := range norm {
		switch s.litValue(il) {
		case lTrue:
			return true // already satisfied at level 0
		case lFalse:
			continue // drop false literal (level 0)
		}
		lits = append(lits, il)
	}
	switch len(lits) {
	case 0:
		return false
	case 1:
		if !s.enqueue(lits[0], nullRef) {
			return false
		}
		conf := s.propagate()
		return conf == nullRef
	default:
		cr := s.newClause(lits, false)
		s.clauses = append(s.clauses, cr)
		s.attach(cr)
		return true
	}
}

// litValue is the truth value of l under the current assignment.
func (s *Solver) litValue(l ilit) lbool { return s.vals[l] }

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

func (s *Solver) enqueue(l ilit, from cref) bool {
	switch s.litValue(l) {
	case lTrue:
		return true
	case lFalse:
		return false
	}
	s.vals[l], s.vals[l.neg()] = lTrue, lFalse
	v := l.ivar()
	s.level[v] = int32(s.decisionLevel())
	s.reason[v] = from
	s.trail = append(s.trail, l)
	return true
}

func (s *Solver) cancelUntil(level int) {
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
		s.vals[l], s.vals[l.neg()] = lUndef, lUndef
		s.reason[v] = nullRef
		s.markRewritten(l)
		s.order.insert(v, &s.activity)
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

func (s *Solver) newDecisionLevel() {
	s.trailLim = append(s.trailLim, int32(len(s.trail)))
}

func (s *Solver) pickBranchVar() int32 {
	for {
		v := s.order.removeMin(&s.activity)
		if v < 0 {
			return -1
		}
		if s.vals[mkLit(v, true)] == lUndef {
			return v
		}
	}
}

// bump the VSIDS activity of a variable and its conflict count.  A count
// that is zero was never bumped since Reset or was harvested since; either
// way the variable goes into the bitmap (again, in the second case) and is
// counted as unharvested.
func (s *Solver) bumpVar(v int32) {
	s.activity[v] += s.varInc
	if s.confAct[v] == 0 {
		s.unharvested++
		s.bumpedSet[v>>6] |= 1 << (v & 63)
		s.bumpedSum[v>>12] |= 1 << (v >> 6 & 63)
	}
	s.confAct[v]++
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.decrease(v, &s.activity)
}

func (s *Solver) decayVarActivity()    { s.varInc /= s.opts.VarDecay }
func (s *Solver) decayClauseActivity() { s.clauseInc /= s.opts.ClauseDecay }

// analyze performs first-UIP conflict analysis.  It returns the learned
// clause (with the asserting literal first) and the backtrack level.  The
// returned slice is a reused scratch buffer, valid until the next analyze
// call; recordLearned copies it into the arena.
func (s *Solver) analyze(confl cref) ([]ilit, int) {
	learnt := append(s.learntBuf[:0], 0) // placeholder for the asserting literal
	toClear := s.clearBuf[:0]            // every variable whose seen flag we set
	pathC := 0
	var p ilit = -1
	idx := len(s.trail) - 1

	for {
		s.bumpClause(confl)
		for _, q := range s.ar.lits(confl) {
			if q == p {
				// When expanding the reason of p, skip p itself.
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
		// Select next literal to look at.
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

	// Clause minimization by self-subsumption with reasons.  It relies on the
	// seen flags still being set for the (non-asserting) learned literals.
	if s.opts.MinimizeLearned {
		learnt = s.minimizeLearned(learnt)
	}

	// Find backtrack level.
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

	// Clear every seen flag we set, including those of literals removed by
	// minimization; leaving them set would corrupt later analyses.
	for _, v := range toClear {
		s.seen[v] = false
	}
	s.learntBuf = learnt[:0]
	s.clearBuf = toClear[:0]
	return learnt, btLevel
}

// minimizeLearned removes literals of the learned clause that are implied by
// the remaining ones through their reason clauses (local minimization).
func (s *Solver) minimizeLearned(learnt []ilit) []ilit {
	out := learnt[:1]
	for i := 1; i < len(learnt); i++ {
		l := learnt[i]
		r := s.reason[l.ivar()]
		if r == nullRef {
			out = append(out, l)
			continue
		}
		redundant := true
		for _, q := range s.ar.lits(r) {
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

func (s *Solver) recordLearned(lits []ilit) {
	if len(lits) == 1 {
		s.enqueue(lits[0], nullRef)
		return
	}
	cr := s.newClause(lits, true)
	s.bumpClause(cr)
	s.learnts = append(s.learnts, cr) // newClause made the room
	s.stats.Learned++
	s.attach(cr)
	s.enqueue(lits[0], cr)
}

// luby returns the Luby sequence value for index i (1-based) with unit base:
// 1,1,2,1,1,2,4,1,1,2,1,1,2,4,8,...
func luby(i uint64) uint64 {
	x := i - 1 // 0-based index, as in MiniSat
	size, seq := uint64(1), 0
	for size < x+1 {
		seq++
		size = 2*size + 1
	}
	for size-1 != x {
		size = (size - 1) >> 1
		seq--
		x %= size
	}
	return 1 << seq
}

func (s *Solver) outOfBudget() bool {
	if s.interrupt.Load() {
		return true
	}
	if s.budget.MaxConflicts > 0 && s.stats.Conflicts >= s.budget.MaxConflicts {
		return true
	}
	if s.budget.MaxPropagations > 0 && s.stats.Propagations >= s.budget.MaxPropagations {
		return true
	}
	//pdsat:nondeterministic Budget.MaxTime is an explicitly wall-clock limit; deterministic truncation uses the conflict/propagation budgets
	if !s.deadline.IsZero() && s.stats.Conflicts%64 == 0 && time.Now().After(s.deadline) {
		return true
	}
	return false
}

// search runs the CDCL loop until a conclusion, a restart, or budget
// exhaustion.  maxConflicts is the restart threshold (0 = no restart).
func (s *Solver) search(maxConflicts uint64, assumptions []ilit) (Status, bool) {
	conflictsAtStart := s.stats.Conflicts
	for {
		confl := s.propagate()
		if confl != nullRef {
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
				// Restart: back to level 0; assumptions are re-applied as
				// pseudo-decisions on the next descent.
				s.cancelUntil(0)
				return Unknown, false
			}
			continue
		}
		// No conflict.
		s.maybeReduce()
		if s.outOfBudget() {
			return Unknown, true
		}
		// Apply assumptions as pseudo-decisions.
		if s.decisionLevel() < len(assumptions) {
			a := assumptions[s.decisionLevel()]
			switch s.litValue(a) {
			case lTrue:
				s.newDecisionLevel()
				continue
			case lFalse:
				// Assumptions conflict with the formula.
				return Unsat, false
			default:
				s.newDecisionLevel()
				s.enqueue(a, nullRef)
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
		s.enqueue(mkLit(v, s.polarity[v]), nullRef)
	}
}

// Solve runs the solver to completion (or until the budget/interrupt stops
// it) with no assumptions.
func (s *Solver) Solve() Result { return s.SolveWithAssumptions(nil) }

// SolveWithAssumptions solves the formula under the given assumption
// literals.  Assumptions are not added as clauses: a subsequent call without
// them sees the original formula (plus learned clauses, which remain valid).
// It panics on an assumption over a variable above NumVars, which would
// change the formula; callers check their assumptions against it first.
func (s *Solver) SolveWithAssumptions(assumptions []cnf.Lit) (res Result) {
	//pdsat:nondeterministic start time only anchors the MaxTime deadline and SolveTime reporting
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
		//pdsat:nondeterministic SolveTime is reporting-only; cost metrics used for F default to solver counters
		res.Stats.SolveTime = time.Since(s.startTime)
	}()

	if !s.okay {
		res.Status = Unsat
		return res
	}
	s.cancelUntil(0)
	iassumps := s.assumpBuf[:0]
	for _, a := range assumptions {
		if a.Var() > cnf.Var(s.numVars) {
			panic(fmt.Sprintf("solver: SolveWithAssumptions: assumption %d is over a variable above the formula's %d", a, s.numVars))
		}
		iassumps = append(iassumps, fromExternal(a))
	}
	s.assumpBuf = iassumps[:0]

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

// Add returns the field-wise sum of two Stats values (MaxLevel and the
// ArenaBytes gauge take the maximum, not the sum).  It lives next to
// diffStats so the field list stays in one place when Stats grows;
// TestStatsFieldsSurviveAddAndDiff fails on a field either of them misses.
func (s Stats) Add(o Stats) Stats {
	s.Decisions += o.Decisions
	s.Propagations += o.Propagations
	s.Conflicts += o.Conflicts
	s.Restarts += o.Restarts
	s.Learned += o.Learned
	s.Removed += o.Removed
	s.ReduceDBs += o.ReduceDBs
	if o.ArenaBytes > s.ArenaBytes {
		s.ArenaBytes = o.ArenaBytes
	}
	if o.MaxLevel > s.MaxLevel {
		s.MaxLevel = o.MaxLevel
	}
	s.SolveTime += o.SolveTime
	return s
}

// diffStats is the effort between two readings of the lifetime counters:
// every counter's difference, the ArenaBytes and MaxLevel gauges as they read
// now, and no SolveTime, which SolveWithAssumptions measures itself.
func diffStats(now, before Stats) Stats {
	return Stats{
		Decisions:    now.Decisions - before.Decisions,
		Propagations: now.Propagations - before.Propagations,
		Conflicts:    now.Conflicts - before.Conflicts,
		Restarts:     now.Restarts - before.Restarts,
		Learned:      now.Learned - before.Learned,
		Removed:      now.Removed - before.Removed,
		ReduceDBs:    now.ReduceDBs - before.ReduceDBs,
		ArenaBytes:   now.ArenaBytes, // gauge: current, not a difference
		MaxLevel:     now.MaxLevel,
	}
}

func (s *Solver) extractModel() cnf.Assignment {
	m := cnf.NewAssignment(int(s.numVars))
	for v := int32(0); v < s.numVars; v++ {
		switch s.vals[mkLit(v, true)] {
		case lTrue:
			m[v+1] = cnf.True
		case lFalse:
			m[v+1] = cnf.False
		default:
			// Unconstrained variable: give it the saved phase so the model
			// is total.
			if s.polarity[v] {
				m[v+1] = cnf.True
			} else {
				m[v+1] = cnf.False
			}
		}
	}
	return m
}

// --- variable order heap -------------------------------------------------

func (o *varOrder) less(i, j int32, act *[]float64) bool {
	ai, aj := (*act)[i], (*act)[j]
	if ai != aj {
		return ai > aj
	}
	return i < j
}

func (o *varOrder) insert(v int32, act *[]float64) {
	for int(v) >= len(o.indices) {
		o.indices = append(o.indices, -1)
	}
	if o.indices[v] >= 0 {
		return
	}
	o.heap = append(o.heap, v)
	o.indices[v] = int32(len(o.heap) - 1)
	o.percolateUp(int32(len(o.heap)-1), act)
}

// rebuild resets the heap to contain every variable 0..n-1 in index order.
// With all activities equal (as after a Reset) the identity array is a valid
// heap and matches exactly the heap a fresh solver builds by inserting the
// variables in order, so heap and index table are two copies of it.
func (o *varOrder) rebuild(n int32) {
	for v := int32(len(o.identity)); v < n; v++ {
		o.identity = append(o.identity, v)
	}
	o.heap = append(o.heap[:0], o.identity[:n]...)
	o.indices = append(o.indices[:0], o.identity[:n]...)
}

func (o *varOrder) decrease(v int32, act *[]float64) {
	if int(v) < len(o.indices) && o.indices[v] >= 0 {
		o.percolateUp(o.indices[v], act)
	}
}

func (o *varOrder) removeMin(act *[]float64) int32 {
	if len(o.heap) == 0 {
		return -1
	}
	v := o.heap[0]
	last := o.heap[len(o.heap)-1]
	o.heap = o.heap[:len(o.heap)-1]
	o.indices[v] = -1
	if len(o.heap) > 0 {
		o.heap[0] = last
		o.indices[last] = 0
		o.percolateDown(0, act)
	}
	return v
}

func (o *varOrder) percolateUp(i int32, act *[]float64) {
	v := o.heap[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !o.less(v, o.heap[parent], act) {
			break
		}
		o.heap[i] = o.heap[parent]
		o.indices[o.heap[i]] = i
		i = parent
	}
	o.heap[i] = v
	o.indices[v] = i
}

func (o *varOrder) percolateDown(i int32, act *[]float64) {
	v := o.heap[i]
	n := int32(len(o.heap))
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		child := left
		if right := left + 1; right < n && o.less(o.heap[right], o.heap[left], act) {
			child = right
		}
		if !o.less(o.heap[child], v, act) {
			break
		}
		o.heap[i] = o.heap[child]
		o.indices[o.heap[i]] = i
		i = child
	}
	o.heap[i] = v
	o.indices[v] = i
}

// EffortCost converts solver statistics into a scalar cost according to the
// requested metric; see the montecarlo package for the available metrics.
func EffortCost(st Stats, metric CostMetric) float64 {
	switch metric {
	case CostConflicts:
		return float64(st.Conflicts)
	case CostPropagations:
		return float64(st.Propagations)
	case CostDecisions:
		return float64(st.Decisions)
	case CostWallTime:
		return st.SolveTime.Seconds()
	default:
		return float64(st.Conflicts)
	}
}

// CostMetric selects which solver statistic is used as the per-subproblem
// cost ζ in the Monte Carlo estimation.
type CostMetric int

// Available cost metrics.
const (
	// CostConflicts counts CDCL conflicts; deterministic and the default in
	// tests and benchmarks.
	CostConflicts CostMetric = iota
	// CostPropagations counts unit propagations.
	CostPropagations
	// CostDecisions counts decisions.
	CostDecisions
	// CostWallTime measures wall-clock seconds, like the paper.
	CostWallTime
)

// String implements fmt.Stringer.
func (m CostMetric) String() string {
	switch m {
	case CostConflicts:
		return "conflicts"
	case CostPropagations:
		return "propagations"
	case CostDecisions:
		return "decisions"
	case CostWallTime:
		return "seconds"
	default:
		return fmt.Sprintf("metric(%d)", int(m))
	}
}

// Verify checks that the model satisfies the formula; it is a convenience
// used by tests and by the runner's paranoid mode.
func Verify(f *cnf.Formula, model cnf.Assignment) bool {
	return f.IsSatisfiedBy(model)
}
