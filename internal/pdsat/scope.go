package pdsat

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"time"

	"github.com/paper-repro/pdsat-go/internal/cluster"
	"github.com/paper-repro/pdsat-go/internal/cnf"
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
// Every evaluation method is declared here and nowhere else.  A Runner embeds
// its default scope (seed Config.Seed), so the same methods called on a
// *Runner are this scope's, promoted.  A search does not call them: it runs on
// an Objective (NewObjective), the evaluation engine over a scope.
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

// ReserveEvalSlots reserves n consecutive evaluation slots (counted in the
// runner's ledger too) and returns the first, for callers that pin a sample —
// a pure function of (scope seed, slot) — to a slot of their choosing with
// EvaluateSlotObserved.  A search reserves none: each of its evaluations
// draws the next slot.
func (sc *Scope) ReserveEvalSlots(n int) int { return sc.reserve(n) }

// EvaluatePoint computes the predictive function F at the decomposition set
// given by the point: EvaluatePointBudgeted under the runner's configured
// policy with no incumbent, so staged sampling applies but pruning never
// triggers.  With a deterministic cost metric the result is a function of the
// configuration, the scope's seed and its evaluation counter: every subproblem
// is solved from a solver's pristine state, so its cost does not depend on
// which worker — local goroutine or remote machine — happened to process it.
// A cancelled call returns the partial estimate with the context's error, so
// an interrupted run can still print a report; nil only if no subproblem
// finished.
func (sc *Scope) EvaluatePoint(ctx context.Context, p decomp.Point) (*PointEstimate, error) {
	return sc.EvaluatePointBudgeted(ctx, p, sc.r.cfg.Policy, math.Inf(1), nil)
}

// EvaluatePointBudgeted is the budget-aware evaluation at the heart of the
// engine: it computes the predictive function F at the point under the
// given policy and incumbent bound (the best F the caller has already
// certified; +Inf if none).
//
// The sample itself — which N assignments of the decomposition set are
// drawn — depends only on (scope seed, scope evaluation counter), exactly as
// in EvaluatePoint, and it is dispatched whole, as one batch; the policy
// decides how much of it enters the evaluation, and what an evaluation returns
// is a function of the costs, not of the order the results come in:
//
//   - Staged sampling (Policy.Stages) cuts the sample into geometrically
//     growing index prefixes and takes a checkpoint whenever every result
//     of a prefix is in: once the eq.-3 confidence half-width of the mean
//     over exactly that prefix falls to Policy.Epsilon·mean, the evaluation
//     ends there and the batch is aborted (the result is then marked
//     EarlyStopped; the prefix is value-independent, so the estimate stays
//     unbiased).  Results beyond the stage being decided are held back until
//     it is their turn; beyond the stage that decided they are dropped.
//
//   - Incumbent pruning (Policy.Prune, finite incumbent) watches the
//     running cost sum of the stages reached so far and aborts the batch —
//     through the transport's batch abort, which cancels only this batch's
//     in-flight tasks, never the transport — as soon as the lower bound
//     2^d·(Σζ)/N exceeds the incumbent.  Every task's solver budget is
//     tightened to the allowance the evaluation starts with, the paper's
//     per-subproblem time limit turned into a certified pruning proxy: a
//     task truncated at the allowance already proves the candidate worse.
//     There is one allowance per evaluation; what the sum has used up while
//     a task waited is enforced by the abort, which interrupts it.
//
// With the zero policy the one batch has one stage and the call is
// bit-identical to the historical EvaluatePoint.  Cancellation semantics
// are unchanged: a cancelled evaluation returns the partial estimate
// (marked Interrupted) together with the context's error.
//
// observe, when non-nil, receives a Progress notification for every
// subproblem result that enters the evaluation, as it does: the calls are
// made one at a time, each completed before the next begins and all before
// the call returns (not necessarily on one goroutine); it must not block for
// long.  Progress.Result.Activity is on loan for the length of the call (see
// cluster.TaskResult).  Observation never changes the sample, the costs or
// the evaluation counter.
func (sc *Scope) EvaluatePointBudgeted(ctx context.Context, p decomp.Point, pol eval.Policy, incumbent float64, observe func(Progress)) (*PointEstimate, error) {
	return sc.evaluatePointAt(ctx, p, pol, incumbent, observe, -1)
}

// EvaluateSlotObserved is EvaluatePointBudgeted in the engine's result form,
// with the sample drawn from a pre-reserved evaluation slot (see
// ReserveEvalSlots); a negative slot reserves the next one.  It is what an
// Objective's engine calls.
func (sc *Scope) EvaluateSlotObserved(ctx context.Context, p decomp.Point, pol eval.Policy, incumbent float64, slot int, observe func(Progress)) (*eval.Evaluation, error) {
	pe, err := sc.evaluatePointAt(ctx, p, pol, incumbent, observe, slot)
	if pe == nil {
		return nil, err
	}
	ev := pe.Evaluation()
	return &ev, err
}

// evaluatePointAt runs one budget-aware evaluation against a fixed
// evaluation slot; a negative slot reserves the next one.  The whole sample
// goes out as one batch, and the evaluation happens in that batch's observer
// (see checkpoints): nothing comes back a second time.
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
	buf := r.acquireBuffer()
	defer r.releaseBuffer(buf)
	// Seed the generator per evaluation, so evaluation results do not depend
	// on the order in which the optimizer visits points; re-seeding gives the
	// stream of a new rand.NewSource of the same seed.
	buf.rng.Seed(sc.seed ^ int64(evalIndex)*0x5851f42d4c957f2d)
	d := fam.Dimension()
	n := r.cfg.SampleSize
	scale := math.Exp2(float64(d))
	tasks := buf.sampleTasks(fam, n)
	costs, sampled := buf.tables(n)

	prune := pol.Prune && !math.IsInf(incumbent, 1) && !math.IsNaN(incumbent)
	buf.held.reset()
	cp := &checkpoints{
		sc: sc, pol: pol, observe: observe,
		plan:  eval.StagePlan(n, pol.Stages),
		costs: costs, sampled: sampled, held: &buf.held,
		sumBound: math.Inf(1),
		abort:    make(chan struct{}),
	}
	opts := cluster.BatchOptions{Speculate: true, Results: buf.lentResults(n)}
	var abort <-chan struct{}
	if prune {
		cp.sumBound = incumbent * (float64(n) / scale)
		// One allowance per evaluation: no single task may cost more than
		// what the whole sample may before the sum certifiably crosses the
		// bound.  What the sum has used up by the time a task starts is taken
		// off by the abort, which interrupts the solves in flight.  runBatch
		// tightens the subproblem budget by the allowance.
		opts.Budget = solver.BudgetForCost(r.cfg.CostMetric, cp.sumBound)
	}
	if prune || len(cp.plan) > 1 {
		abort = cp.abort
	}

	sc.note(Counters{SamplesPlanned: n})
	_, runErr := r.runBatch(ctx, &sc.ledger, tasks, opts, cp.result, abort)
	// What was planned and never counted — the stages behind an early stop or
	// a prune, solved ahead or not, and the tail of a cancelled evaluation.
	sc.note(Counters{SamplesSkipped: n - cp.counted, SamplesCensored: cp.censored})
	if runErr != nil && !cluster.IsInterruption(runErr) {
		return nil, runErr
	}
	if cp.aborted {
		sc.note(Counters{PrunedEvaluations: 1})
	}

	// Partial evaluations (interrupted or pruned) keep only subproblems a
	// solver ran to its normal conclusion (or per-task budget) as samples —
	// a solve truncated by the cancellation/abort itself undercounts its
	// subproblem outright.  An interrupted subset is completion-time
	// censored (in-flight subproblems skew expensive), so a partial F is an
	// indication, not an unbiased estimate; see PointEstimate.Interrupted.
	sample := montecarlo.NewSample(cp.sample(cp.plan[cp.stage]))
	if runErr != nil && sample.Len() == 0 {
		return nil, runErr
	}
	return &PointEstimate{
		Point:              p,
		Estimate:           montecarlo.NewEstimate(d, sample),
		Sample:             sample,
		SatisfiableSamples: cp.satCount,
		WallTime:           time.Since(start),
		Interrupted:        runErr != nil,
		Pruned:             cp.aborted,
		EarlyStopped:       cp.earlyStopped,
		SamplesPlanned:     n,
		SamplesAborted:     cp.counted - sample.Len(),
		SamplesCensored:    cp.censored,
		StagesRun:          cp.stage + 1,
		LowerBound:         scale * cp.sumAll / float64(n),
	}, runErr
}

// sampleBuffer is what one evaluation or Solve call builds its batch in: the
// literals of every task, the task list, the array the results come back in,
// the generator the sample is drawn from, the tables by task index and the
// checkpoints' held-back results.  A Runner keeps the buffers of the calls
// that have ended (acquireBuffer, releaseBuffer), so that a call builds its
// batch, and takes its results, in the arrays of one before it.
type sampleBuffer struct {
	lits    []cnf.Lit
	tasks   []cluster.Task
	results []cluster.TaskResult
	rng     *rand.Rand
	costs   []float64
	sampled []bool
	held    heldResults
}

// cut returns n tasks, indexed 0..n-1, whose assumption vectors are d
// literals each of the buffer's one array, each capped at its own length so
// that appending to one cannot reach the next.
func (b *sampleBuffer) cut(n, d int) []cluster.Task {
	if cap(b.lits) < n*d {
		b.lits = make([]cnf.Lit, n*d)
	}
	if cap(b.tasks) < n {
		b.tasks = make([]cluster.Task, n)
	}
	lits, tasks := b.lits[:n*d], b.tasks[:n]
	for i := range tasks {
		tasks[i] = cluster.Task{Index: i, Assumptions: lits[i*d : (i+1)*d : (i+1)*d]}
	}
	return tasks
}

// sampleTasks draws an evaluation's n subproblems from the buffer's
// generator, in index order, as the tasks of its batch.  They are the
// buffer's arrays, which the next call that takes the buffer writes again:
// the transport has let go of them by then, as cluster.Task says.
func (b *sampleBuffer) sampleTasks(fam *decomp.Family, n int) []cluster.Task {
	tasks := b.cut(n, fam.Dimension())
	for i := range tasks {
		fam.DrawAssumptions(tasks[i].Assumptions, b.rng)
	}
	return tasks
}

// familyTasks enumerates the first n members of the family, in index order,
// as the tasks of a Solve batch.
func (b *sampleBuffer) familyTasks(fam *decomp.Family, n int) []cluster.Task {
	tasks := b.cut(n, fam.Dimension())
	for i := range tasks {
		fam.AssumptionsInto(tasks[i].Assumptions, uint64(i))
	}
	return tasks
}

// lentResults returns the buffer's results array, empty, with room for n
// results: what a call lends its batch (cluster.BatchOptions.Results), which
// every transport lets go of when the call returns.
func (b *sampleBuffer) lentResults(n int) []cluster.TaskResult {
	if cap(b.results) < n {
		b.results = make([]cluster.TaskResult, 0, n)
	}
	return b.results[:0]
}

// tables returns a cost and a flag table for n tasks, no flag set: the
// checkpoints' costs and which are samples, or a Solve's costs and which
// were processed.
func (b *sampleBuffer) tables(n int) ([]float64, []bool) {
	if cap(b.costs) < n {
		b.costs, b.sampled = make([]float64, n), make([]bool, n)
	}
	sampled := b.sampled[:n]
	clear(sampled)
	return b.costs[:n], sampled
}

// checkpoints is one evaluation as its batch's observer runs it.  The sample
// is dispatched whole; the stages of the policy are index prefixes of it
// (plan), decided one after the other.  Results below the boundary of the
// stage being decided are counted as they arrive — into the running sum, the
// ledgers, the caller's Progress — and results beyond it are held back.  Once
// every index below the boundary is in, that prefix is what a dispatch of the
// stage alone would have returned: the incumbent bound and eq. 3 are checked
// on it, and either the batch is aborted or the boundary moves on and takes
// in what was held back.  Whatever lies beyond the boundary that decided is
// dropped like the losing copy of a speculated task: it was solved ahead for
// nothing, enters no sample, ledger or event, and stays among the samples
// skipped.  What an evaluation returns is therefore a function of the costs
// alone, not of the order the results came in.
//
// The transport calls result one call at a time, each completed before the
// next begins and all before the batch call returns, so none of this is
// locked.
type checkpoints struct {
	sc      *Scope
	pol     eval.Policy
	observe func(Progress)

	// plan holds the stage boundaries, stage the one being decided: the
	// evaluation has reached stage+1 stages.  Once stopped is set the
	// boundary stays where it is.
	plan    []int
	stage   int
	stopped bool
	// costs and sampled are by task index: the cost of a counted result and
	// whether it is a Monte Carlo sample (solved to its own conclusion or
	// budget).  counted results all lie below the boundary, partial of them
	// are no samples, satCount are satisfiable samples and censored are
	// samples stopped by Config.SubproblemBudget (not by a pruning allowance).
	costs    []float64
	sampled  []bool
	counted  int
	partial  int
	satCount int
	censored int
	// held are the results beyond the boundary, in the buffer's arrays.
	held *heldResults

	// sumAll is every counted cost, truncated solves included; sumBound the
	// incumbent translated onto that sum: 2^d·(Σζ)/N > incumbent ⇔ Σζ >
	// incumbent·N/2^d (+Inf when the evaluation does not prune).
	sumAll, sumBound      float64
	aborted, earlyStopped bool
	// abort stops the batch: closed when the sum crosses the bound, or when a
	// checkpoint stops the evaluation early.
	abort chan struct{}
}

// result is the batch observer.
func (cp *checkpoints) result(res cluster.TaskResult) {
	switch {
	case res.Index < cp.plan[cp.stage]:
		cp.count(res)
	case !cp.stopped:
		cp.held.hold(res)
	}
	for !cp.stopped && cp.counted == cp.plan[cp.stage] {
		cp.decide()
	}
}

// count takes a result below the boundary into the evaluation.
func (cp *checkpoints) count(res cluster.TaskResult) {
	cp.counted++
	cp.sc.absorb(&res)
	if res.Started {
		cp.sumAll += res.Cost
	}
	if res.Started && !res.Cancelled {
		cp.costs[res.Index], cp.sampled[res.Index] = res.Cost, true
		switch {
		case res.Status == solver.Sat:
			cp.satCount++
		case res.Status == solver.Unknown && cp.sc.r.cfg.SubproblemBudget.ReachedBy(res.Stats):
			cp.censored++
		}
	} else {
		cp.partial++
	}
	if cp.observe != nil {
		cp.observe(Progress{Done: cp.counted, Total: len(cp.costs), Result: res})
	}
	if !cp.aborted && cp.sumAll > cp.sumBound {
		cp.aborted = true
		cp.stop()
	}
}

// decide is the checkpoint at a stage boundary, with every result below it
// counted and the sum within its bound.
func (cp *checkpoints) decide() {
	boundary := cp.plan[cp.stage]
	switch {
	case cp.partial > 0:
		// The batch is being cancelled around the evaluation; what it has is
		// what it returns.
		cp.stopped = true
		return
	case cp.stage == len(cp.plan)-1:
		cp.stopped = true // the whole sample
		return
	case boundary >= 2:
		s := montecarlo.NewSample(cp.costs[:boundary])
		if eval.Confident(s.Mean(), s.StdDev(), s.Len(), cp.pol.EffectiveGamma(), cp.pol.Epsilon) {
			cp.earlyStopped = true
			cp.stop()
			return
		}
	}
	cp.stage++
	// What stays held is moved down the list in place; the activity vectors
	// stay where they are.
	held := cp.held.results
	cp.held.results = held[:0]
	for _, res := range held {
		switch {
		case res.Index < cp.plan[cp.stage]:
			cp.count(res)
		case !cp.stopped:
			cp.held.results = append(cp.held.results, res)
		}
	}
}

// stop ends the evaluation at the current boundary and the batch with it;
// what is held is dropped.
func (cp *checkpoints) stop() {
	cp.stopped = true
	cp.held.reset()
	close(cp.abort)
}

// heldResults are the results an evaluation holds back, with their activity
// vectors copied out of the transport's loan, one behind the other, into two
// arrays of their own.  An evaluation's buffer keeps them for the next one.
type heldResults struct {
	results []cluster.TaskResult
	act     solver.SparseActivities
}

// hold keeps res and a copy of its activity vector.  A vector held before
// points into the arrays as they were when it was copied, which an append
// that moves them leaves as they are.
func (h *heldResults) hold(res cluster.TaskResult) {
	from := len(h.act.Vars)
	h.act.Vars = append(h.act.Vars, res.Activity.Vars...)
	h.act.Acts = append(h.act.Acts, res.Activity.Acts...)
	to := len(h.act.Vars)
	res.Activity = solver.SparseActivities{Vars: h.act.Vars[from:to:to], Acts: h.act.Acts[from:to:to]}
	h.results = append(h.results, res)
}

// reset drops everything held, keeping the arrays.
func (h *heldResults) reset() {
	h.results, h.act = h.results[:0], h.act.Emptied()
}

// sample returns the costs of the samples below the boundary, in enumeration
// order, for a float summation that does not depend on scheduling.
func (cp *checkpoints) sample(boundary int) []float64 {
	if cp.partial == 0 && cp.counted == boundary {
		return cp.costs[:boundary]
	}
	costs := make([]float64, 0, cp.counted-cp.partial)
	for i, ok := range cp.sampled[:boundary] {
		if ok {
			costs = append(costs, cp.costs[i])
		}
	}
	return costs
}
