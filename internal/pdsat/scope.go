package pdsat

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"time"

	"github.com/paper-repro/pdsat-go/internal/cluster"
	"github.com/paper-repro/pdsat-go/internal/cnf"
	"github.com/paper-repro/pdsat-go/internal/decomp"
	"github.com/paper-repro/pdsat-go/internal/eval"
	"github.com/paper-repro/pdsat-go/internal/montecarlo"
	"github.com/paper-repro/pdsat-go/internal/solver"
)

// Scope is an isolated evaluation context on a shared Runner: its own sample
// seed, evaluation counter, conflict-activity table and statistics over the
// same formula, configuration and transport.  Concurrent search-fleet
// members each evaluate through their own scope, so member i's j-th sample
// depends only on (seed, j) — never on how concurrently running scopes
// interleave on the transport — while every scope shares the runner's solver
// pool (or cluster workers).  Work done in a scope is additionally rolled up
// into the runner's global counters (Evaluations, SubproblemsSolved,
// VarActivity, AggregateStats), which therefore cover the whole session.
//
// A Scope is safe for concurrent use, but per-scope determinism assumes one
// search per scope: two goroutines interleaving evaluations on one scope
// interleave its evaluation counter.
type Scope struct {
	r    *Runner
	seed int64

	mu                 sync.Mutex
	confAct            []float64
	evaluations        int
	prunedEvaluations  int
	subproblemsSolved  int
	subproblemsAborted int
	samplesPlanned     int
	samplesSkipped     int
	// Dispatch statistics (scheduling events, outside the sample ledger;
	// see the Runner counterparts).
	tasksStolen           int
	speculativeDuplicates int
	speculationWins       int
	aggStats              solver.Stats
}

// NewScope creates an evaluation scope with its own sample seed over the
// runner's formula, configuration and transport.
func (r *Runner) NewScope(seed int64) *Scope {
	return &Scope{r: r, seed: seed, confAct: make([]float64, r.formula.NumVars+1)}
}

// Seed returns the scope's sample seed.
func (sc *Scope) Seed() int64 { return sc.seed }

// Runner returns the runner the scope evaluates through.
func (sc *Scope) Runner() *Runner { return sc.r }

// Evaluations returns the number of predictive-function evaluations this
// scope has performed (full, pruned and partial alike).
func (sc *Scope) Evaluations() int {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.evaluations
}

// PrunedEvaluations returns how many of the scope's evaluations were aborted
// by incumbent pruning.
func (sc *Scope) PrunedEvaluations() int {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.prunedEvaluations
}

// SubproblemsSolved returns the number of subproblems the scope solved to
// completion.
func (sc *Scope) SubproblemsSolved() int {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.subproblemsSolved
}

// SubproblemsAborted returns how many of the scope's dispatched subproblems
// were cut short by a batch abort or cancellation.
func (sc *Scope) SubproblemsAborted() int {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.subproblemsAborted
}

// SamplesPlanned returns the total number of Monte Carlo samples the
// scope's evaluations committed to (N per evaluation that reached its
// sample): the left-hand side of the sample ledger
// SamplesPlanned == SubproblemsSolved + SubproblemsAborted + SamplesSkipped.
func (sc *Scope) SamplesPlanned() int {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.samplesPlanned
}

// SamplesSkipped returns the planned samples that were never dispatched to
// a solver: stages skipped by an early stop or a stage-boundary prune, and
// the tails of evaluations cancelled by the scheduler (e.g. siblings of a
// decided neighborhood winner).
func (sc *Scope) SamplesSkipped() int {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.samplesSkipped
}

// TasksStolen returns how many queued tasks the dispatch layer revoked and
// reassigned between workers on behalf of this scope's batches.
func (sc *Scope) TasksStolen() int {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.tasksStolen
}

// SpeculativeDuplicates returns how many unfinished tasks of this scope's
// batches were speculatively duplicated onto idle slots; SpeculationWins how
// many duplicates won.  See the Runner accessors of the same names.
func (sc *Scope) SpeculativeDuplicates() int {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.speculativeDuplicates
}

// SpeculationWins returns how many speculated tasks were won by their
// duplicate copy; see SpeculativeDuplicates.
func (sc *Scope) SpeculationWins() int {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.speculationWins
}

// AggregateStats returns the summed solver statistics of the scope's solved
// subproblems.
func (sc *Scope) AggregateStats() solver.Stats {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.aggStats
}

// VarActivity returns the cumulative conflict activity of a variable over
// the subproblems solved by this scope only — the activity source a fleet
// member's tabu search consumes, so its getNewCenter heuristic never
// depends on what concurrent members happened to solve.
func (sc *Scope) VarActivity(v cnf.Var) float64 {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if int(v) <= 0 || int(v) >= len(sc.confAct) {
		return 0
	}
	return sc.confAct[v]
}

// nextEvalIndex reserves the scope's next evaluation slot and mirrors the
// count into the runner's global roll-up.
func (sc *Scope) nextEvalIndex() int { return sc.ReserveEvalSlots(1) }

// ReserveEvalSlots implements eval.SlotBackend: it reserves n consecutive
// evaluation slots (mirrored into the runner roll-up) and returns the
// first.  The neighborhood scheduler reserves a whole submission upfront
// so every sibling's sample — a pure function of (scope seed, slot) —
// is independent of completion order and cancellation timing; slots of
// candidates that end up cancelled stay burned, deliberately.
func (sc *Scope) ReserveEvalSlots(n int) int {
	sc.mu.Lock()
	idx := sc.evaluations
	sc.evaluations += n
	sc.mu.Unlock()
	sc.r.mu.Lock()
	sc.r.evaluations += n
	sc.r.mu.Unlock()
	return idx
}

// notePlanned counts an evaluation's committed sample size in the scope
// and runner ledgers; noteSkipped the part of it that was never
// dispatched.
func (sc *Scope) notePlanned(n int) {
	sc.mu.Lock()
	sc.samplesPlanned += n
	sc.mu.Unlock()
	sc.r.mu.Lock()
	sc.r.samplesPlanned += n
	sc.r.mu.Unlock()
}

func (sc *Scope) noteSkipped(n int) {
	if n <= 0 {
		return
	}
	sc.mu.Lock()
	sc.samplesSkipped += n
	sc.mu.Unlock()
	sc.r.mu.Lock()
	sc.r.samplesSkipped += n
	sc.r.mu.Unlock()
}

// noteDispatch rolls one batch's dispatch statistics into the scope's
// counters and the runner roll-up.
func (sc *Scope) noteDispatch(ds cluster.DispatchStats) {
	if ds == (cluster.DispatchStats{}) {
		return
	}
	sc.mu.Lock()
	sc.tasksStolen += ds.TasksStolen
	sc.speculativeDuplicates += ds.SpeculativeDuplicates
	sc.speculationWins += ds.SpeculationWins
	sc.mu.Unlock()
	sc.r.noteDispatch(ds)
}

// notePruned counts one incumbent-pruned evaluation in the scope and the
// runner roll-up.
func (sc *Scope) notePruned() {
	sc.mu.Lock()
	sc.prunedEvaluations++
	sc.mu.Unlock()
	sc.r.mu.Lock()
	sc.r.prunedEvaluations++
	sc.r.mu.Unlock()
}

// absorb adds a batch's conflict activities and statistics into the scope's
// local tables and the runner's global roll-up, both through the shared
// absorbResults classification.
func (sc *Scope) absorb(results []cluster.TaskResult) {
	sc.mu.Lock()
	absorbResults(results, sc.confAct, &sc.aggStats, &sc.subproblemsSolved, &sc.subproblemsAborted)
	sc.mu.Unlock()
	sc.r.absorbActivities(results)
}

// EvaluatePoint computes the predictive function F at the point under the
// runner's configured policy with no incumbent; see Runner.EvaluatePoint.
func (sc *Scope) EvaluatePoint(ctx context.Context, p decomp.Point) (*PointEstimate, error) {
	return sc.EvaluatePointBudgeted(ctx, p, sc.r.cfg.Policy, math.Inf(1), nil)
}

// Evaluate implements the optimizer objective on the scope.
func (sc *Scope) Evaluate(ctx context.Context, p decomp.Point) (float64, error) {
	est, err := sc.EvaluatePoint(ctx, p)
	if err != nil {
		return 0, err
	}
	return est.Estimate.Value, nil
}

// EvaluateBudgeted implements eval.Backend on the scope.
func (sc *Scope) EvaluateBudgeted(ctx context.Context, p decomp.Point, pol eval.Policy, incumbent float64) (*eval.Evaluation, error) {
	pe, err := sc.EvaluatePointBudgeted(ctx, p, pol, incumbent, nil)
	if pe == nil {
		return nil, err
	}
	ev := pe.Evaluation()
	return &ev, err
}

// EvaluateF implements eval.Evaluator under the runner's configured policy.
func (sc *Scope) EvaluateF(ctx context.Context, p decomp.Point, incumbent float64) (*eval.Evaluation, error) {
	return sc.EvaluateBudgeted(ctx, p, sc.r.cfg.Policy, incumbent)
}

// ReserveSlots implements eval.SlotEvaluator (the evaluator-level view the
// frontier consumes when a search runs directly on a Scope).
func (sc *Scope) ReserveSlots(n int) (int, bool) { return sc.ReserveEvalSlots(n), true }

// EvaluateSlotF implements eval.SlotEvaluator under the runner's
// configured policy.
func (sc *Scope) EvaluateSlotF(ctx context.Context, p decomp.Point, incumbent float64, slot int) (*eval.Evaluation, error) {
	return sc.EvaluateSlot(ctx, p, sc.r.cfg.Policy, incumbent, slot)
}

// EvaluatePointBudgeted is the budget-aware evaluation at the heart of the
// engine, running in this scope: the sample depends only on (scope seed,
// scope evaluation counter), the policy decides how much of it is solved,
// and the incumbent bound drives pruning.  See the method of the same name
// on Runner (which delegates to its default scope) for the full contract.
func (sc *Scope) EvaluatePointBudgeted(ctx context.Context, p decomp.Point, pol eval.Policy, incumbent float64, observe func(Progress)) (*PointEstimate, error) {
	return sc.evaluatePointAt(ctx, p, pol, incumbent, observe, -1)
}

// EvaluateSlot implements eval.SlotBackend: EvaluateBudgeted with the
// sample drawn from a pre-reserved evaluation slot (see ReserveEvalSlots)
// instead of a freshly reserved one.
func (sc *Scope) EvaluateSlot(ctx context.Context, p decomp.Point, pol eval.Policy, incumbent float64, slot int) (*eval.Evaluation, error) {
	return sc.EvaluateSlotObserved(ctx, p, pol, incumbent, slot, nil)
}

// EvaluateSlotObserved is EvaluateSlot with a sample-progress observer (the
// session layer's event streaming hooks in here).
func (sc *Scope) EvaluateSlotObserved(ctx context.Context, p decomp.Point, pol eval.Policy, incumbent float64, slot int, observe func(Progress)) (*eval.Evaluation, error) {
	pe, err := sc.evaluatePointAt(ctx, p, pol, incumbent, observe, slot)
	if pe == nil {
		return nil, err
	}
	ev := pe.Evaluation()
	return &ev, err
}

// evaluatePointAt runs one budget-aware evaluation against a fixed
// evaluation slot; a negative slot reserves the next one.  The live
// incumbent bound of a neighborhood frontier, when attached to ctx, is
// re-read at every pruning checkpoint, so sibling candidates completing
// concurrently tighten this evaluation's abort threshold mid-sample.
func (sc *Scope) evaluatePointAt(ctx context.Context, p decomp.Point, pol eval.Policy, incumbent float64, observe func(Progress), slot int) (*PointEstimate, error) {
	r := sc.r
	if r.cfgErr != nil {
		return nil, r.cfgErr
	}
	if err := pol.Validate(); err != nil {
		return nil, err
	}
	if p.Count() == 0 {
		return nil, errors.New("pdsat: empty decomposition set")
	}
	start := time.Now()
	evalIndex := slot
	if evalIndex < 0 {
		evalIndex = sc.nextEvalIndex()
	}

	fam := decomp.FamilyOf(r.formula, p)
	// Derive a per-evaluation RNG so evaluation results do not depend on the
	// order in which the optimizer visits points.
	rng := rand.New(rand.NewSource(sc.seed ^ int64(evalIndex)*0x5851f42d4c957f2d))
	d := fam.Dimension()
	n := r.cfg.SampleSize
	scale := math.Exp2(float64(d))

	tasks := make([]cluster.Task, n)
	for i := 0; i < n; i++ {
		alpha := fam.RandomAssignment(rng)
		assumptions, err := fam.AssumptionsForBits(alpha)
		if err != nil {
			return nil, err
		}
		tasks[i] = cluster.Task{Index: i, Assumptions: assumptions}
	}

	// A live bound (attached by the neighborhood frontier) supplies sibling
	// improvements as they complete; it only ever tightens the incumbent.
	live := eval.LiveBoundFrom(ctx)
	if live != nil {
		if b := live.Get(); b < incumbent {
			incumbent = b
		}
	}
	prune := pol.Prune &&
		((!math.IsInf(incumbent, 1) && !math.IsNaN(incumbent)) || live != nil)
	// sumBound is the incumbent translated onto the plain cost sum:
	// 2^d·(Σζ)/N > incumbent  ⇔  Σζ > incumbent·N/2^d.
	sumBound := math.Inf(1)
	if prune {
		sumBound = incumbent * float64(n) / scale
	}
	// refreshBound re-reads the live bound at a pruning checkpoint.  It runs
	// either between stages or in the batch's observer (whose calls are made
	// one at a time and complete before the batch call returns), never
	// concurrently with itself, so the captured locals need no locking.
	refreshBound := func() {
		if live == nil || !prune {
			return
		}
		if b := live.Get(); b < incumbent {
			incumbent = b
			sumBound = incumbent * float64(n) / scale
		}
	}

	// The transport calls the stage observer one call at a time, each
	// completed before the next begins and all before the batch call returns,
	// so the running totals need no locking.
	var (
		sumAll  float64 // every observed cost, truncated solves included
		done    int     // Progress numbering across stages
		aborted bool
		abortCh = make(chan struct{})
	)
	stageObserver := func(globalOffset int) func(cluster.TaskResult) {
		return func(res cluster.TaskResult) {
			res.Index += globalOffset
			if res.Started {
				sumAll += res.Cost
			}
			done++
			if observe != nil {
				observe(Progress{Done: done, Total: n, Result: res})
			}
			refreshBound()
			if prune && !aborted && sumAll > sumBound {
				aborted = true
				close(abortCh)
			}
		}
	}

	var (
		costs        []float64 // completed samples, enumeration order
		satCount     int
		collected    int // results gathered over all dispatched stages
		pruned       bool
		earlyStopped bool
		stagesRun    int
		runErr       error
	)
	sc.notePlanned(n)
	defer func() { sc.noteSkipped(n - collected) }()
	// Adaptive dispatch: each stage's batch carries a queue-depth hint
	// derived from the ζ costs observed on the same stage index of earlier
	// evaluations, and its completed costs feed the model in turn.  The hint
	// shapes scheduling only — the sample, the costs and the stage plan are
	// untouched — so fixed-seed estimates are bit-identical whatever the
	// model has seen.
	next := 0
	for si, end := range eval.StagePlan(n, pol.Stages) {
		begin := next
		next = end
		refreshBound()
		if prune && sumAll > sumBound {
			pruned = true
			break
		}
		if earlyStopped {
			break
		}
		opts := cluster.BatchOptions{
			Budget:      r.cfg.SubproblemBudget,
			CostMetric:  r.cfg.CostMetric,
			Steal:       true,
			Speculate:   true,
			QueueFactor: r.costModel.QueueFactor(si),
		}
		if prune {
			// Per-stage budget: no single task may cost more than what is
			// left before the sum certifiably crosses the bound.
			opts.Budget = opts.Budget.TightenedBy(
				solver.BudgetForCost(r.cfg.CostMetric, sumBound-sumAll))
		}
		sub := make([]cluster.Task, end-begin)
		for j := range sub {
			sub[j] = cluster.Task{Index: j, Assumptions: tasks[begin+j].Assumptions}
		}
		var abort <-chan struct{}
		if prune {
			abort = abortCh
		}
		results, ds, err := r.runBatch(ctx, sub, opts, stageObserver(begin), abort)
		sc.noteDispatch(ds)
		if err != nil && !cluster.IsInterruption(err) {
			return nil, err
		}
		stagesRun++
		collected += len(results)
		// Completed samples in enumeration order, for deterministic
		// float summation regardless of scheduling.
		ordered := make([]*cluster.TaskResult, len(sub))
		for i := range results {
			if idx := results[i].Index; idx >= 0 && idx < len(ordered) {
				ordered[idx] = &results[i]
			}
		}
		for _, res := range ordered {
			if res == nil || !res.Started || res.Cancelled {
				continue
			}
			costs = append(costs, res.Cost)
			if res.Status == solver.Sat {
				satCount++
			}
			r.costModel.Observe(si, res.Cost)
		}
		sc.absorb(results)
		if err != nil {
			runErr = err
			break
		}
		if prune && (aborted || sumAll > sumBound) {
			pruned = true
			break
		}
		if next < n && len(costs) >= 2 {
			s := montecarlo.NewSample(costs)
			if eval.Confident(s.Mean(), s.StdDev(), s.Len(), pol.EffectiveGamma(), pol.Epsilon) {
				earlyStopped = true
			}
		}
	}

	if pruned {
		sc.notePruned()
	}
	if runErr != nil && len(costs) == 0 {
		return nil, runErr
	}
	// Partial evaluations (interrupted or pruned) keep only subproblems a
	// solver ran to its normal conclusion (or per-task budget) as samples —
	// a solve truncated by the cancellation/abort itself undercounts its
	// subproblem outright.  An interrupted subset is completion-time
	// censored (in-flight subproblems skew expensive), so a partial F is an
	// indication, not an unbiased estimate; see PointEstimate.Interrupted.
	sample := montecarlo.NewSample(costs)
	est := montecarlo.NewEstimate(d, sample)
	return &PointEstimate{
		Point:              p,
		Estimate:           est,
		Sample:             sample,
		SatisfiableSamples: satCount,
		WallTime:           time.Since(start),
		Interrupted:        runErr != nil,
		Pruned:             pruned,
		EarlyStopped:       earlyStopped,
		SamplesPlanned:     n,
		SamplesAborted:     collected - sample.Len(),
		StagesRun:          stagesRun,
		LowerBound:         scale * sumAll / float64(n),
	}, runErr
}
