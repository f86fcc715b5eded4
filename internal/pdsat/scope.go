package pdsat

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"time"

	"github.com/paper-repro/pdsat-go/internal/cluster"
	"github.com/paper-repro/pdsat-go/internal/decomp"
	"github.com/paper-repro/pdsat-go/internal/eval"
	"github.com/paper-repro/pdsat-go/internal/montecarlo"
	"github.com/paper-repro/pdsat-go/internal/solver"
)

// Scope is an isolated evaluation context on a shared Runner: its own sample
// seed, evaluation counter, conflict-activity table and statistics (the
// embedded ledger) over the same formula, configuration and transport.
// Concurrent search-fleet members each evaluate through their own scope, so
// member i's j-th sample depends only on (seed, j) — never on how
// concurrently running scopes interleave on the transport — while every
// scope shares the runner's solver pool (or cluster workers).  Whatever a
// scope's ledger counts it also counts in the runner's, which therefore
// covers the whole session.
//
// A Scope is safe for concurrent use, but per-scope determinism assumes one
// search per scope: two goroutines interleaving evaluations on one scope
// interleave its evaluation counter.
type Scope struct {
	ledger
	r    *Runner
	seed int64
}

// NewScope creates an evaluation scope with its own sample seed over the
// runner's formula, configuration and transport.
func (r *Runner) NewScope(seed int64) *Scope {
	return &Scope{
		ledger: ledger{confAct: make([]float64, r.formula.NumVars+1), up: &r.ledger},
		r:      r,
		seed:   seed,
	}
}

// Seed returns the scope's sample seed.
func (sc *Scope) Seed() int64 { return sc.seed }

// Runner returns the runner the scope evaluates through.
func (sc *Scope) Runner() *Runner { return sc.r }

// ReserveEvalSlots implements eval.SlotBackend: it reserves n consecutive
// evaluation slots (counted in the runner's ledger too) and returns the
// first.  The neighborhood scheduler reserves a whole submission upfront
// so every sibling's sample — a pure function of (scope seed, slot) —
// is independent of completion order and cancellation timing; slots of
// candidates that end up cancelled stay burned, deliberately.
func (sc *Scope) ReserveEvalSlots(n int) int { return sc.reserve(n) }

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
		evalIndex = sc.reserve(1)
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
	sc.note(Counters{SamplesPlanned: n})
	defer func() { sc.note(Counters{SamplesSkipped: max(n-collected, 0)}) }()
	next := 0
	for _, end := range eval.StagePlan(n, pol.Stages) {
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
			Budget:     r.cfg.SubproblemBudget,
			CostMetric: r.cfg.CostMetric,
			Steal:      true,
			Speculate:  true,
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
		sc.note(dispatchCounters(ds))
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
		sc.note(Counters{PrunedEvaluations: 1})
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
