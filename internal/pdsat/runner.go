// Package pdsat reproduces the leader/worker architecture of the MPI program
// PDSAT used in the paper's experiments.
//
// The Runner has two modes, mirroring the paper:
//
//   - Estimation mode (EvaluatePoint): for a decomposition set X̃ the leader
//     draws a random sample of N assignments of X̃, the workers solve the
//     induced subproblems C[X̃/α], and the observed costs are combined into
//     the predictive-function value F = 2^d · mean (montecarlo.Estimate).
//     An evaluation returns the engine's one result type, eval.Evaluation,
//     which carries the point and the raw sample too; a sample that ended at
//     Config.SubproblemBudget without an answer is counted censored there.
//     Per-variable conflict activity is accumulated across the sample of
//     every evaluation that is not pruned; the tabu search uses it to pick
//     new neighbourhood centres.  The evaluation methods are declared once,
//     on Scope; a Runner embeds its default scope and has them by promotion,
//     while its counters and VarActivity are its own ledger's, the roll-up
//     over every scope (see Runner).
//
//   - Solving mode (Solve): all 2^d assignments of X̃ are enumerated and the
//     corresponding subproblems are solved, optionally stopping at the first
//     satisfiable one.  Workers honour interruption, like the modified
//     MiniSat of the paper that stops on non-blocking messages from the
//     leader.  A member censored at Config.SubproblemBudget leaves the
//     family undecided unless another is satisfiable.
//
// Where the subproblems actually run is decided by a transport, and every
// batch — an evaluation's sample, a Solve's family — goes out through one
// call, cluster.DispatchTransport's RunDispatch.  By default the Runner owns
// a private in-process transport (cluster.Inproc): worker goroutines with
// persistent pooled solvers, reused across evaluations, so the clause
// database and watch lists are built once per worker instead of once per
// subproblem.  Setting Config.Transport instead targets remote machines
// through a network leader (cluster.Leader), which reproduces the paper's
// multi-machine MPI deployment.  In estimation mode every subproblem starts
// from the solver's pristine state (solver.Reset), which makes the observed cost of a subproblem identical to what a freshly
// constructed solver would measure — the per-subproblem costs stay samples
// of the single well-defined random variable the Monte Carlo method
// requires, and fixed-seed estimates are bit-for-bit identical across
// backends and scheduling.  In solving mode the Config.RetainLearned option
// additionally allows MiniSat-style retention of learned clauses across the
// subproblems a worker processes.
//
// The predictive value is always computed for one CPU core; extrapolation to
// k cores is a division (montecarlo.ExtrapolateCores), justified by the
// independence of the subproblems.
package pdsat

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"github.com/paper-repro/pdsat-go/internal/cluster"
	"github.com/paper-repro/pdsat-go/internal/cnf"
	"github.com/paper-repro/pdsat-go/internal/decomp"
	"github.com/paper-repro/pdsat-go/internal/eval"
	"github.com/paper-repro/pdsat-go/internal/solver"
)

// Config configures a Runner.
type Config struct {
	// SampleSize is N, the number of random subproblems per predictive
	// function evaluation.  Zero means the DefaultConfig value; negative
	// values are rejected (see Validate).
	SampleSize int
	// Workers is the number of computing processes (goroutines) of the
	// default in-process transport.  Zero means GOMAXPROCS; negative
	// values are rejected (see Validate).  It is ignored when Transport is
	// set — the transport then decides the capacity.
	Workers int
	// Seed drives the random samples.
	Seed int64
	// CostMetric selects the cost unit ζ (conflicts by default; wall time
	// reproduces the paper's setup).
	CostMetric solver.CostMetric
	// SubproblemBudget bounds the effort spent on a single subproblem
	// (useful as a safety net during estimation of very bad points).
	SubproblemBudget solver.Budget
	// RetainLearned lets each worker keep learned clauses, variable
	// activities and saved phases across the subproblems it processes in
	// solving mode (Runner.Solve), MiniSat-style.  Later subproblems on the
	// same worker then typically solve faster, but the reported per-subproblem
	// costs depend on which worker processed which subproblem and are no
	// longer comparable with the predictive function, so estimation mode
	// (EvaluatePoint) always uses pristine per-subproblem resets regardless
	// of this flag.
	RetainLearned bool
	// Transport optionally overrides where subproblem batches run — e.g. a
	// cluster.Leader dispatching to remote machines.  The transport must
	// have been created for the same formula the Runner is built on, and it
	// must be a cluster.DispatchTransport, as both backends are: every batch
	// goes out through its RunDispatch (Validate refuses any other).  Nil
	// means a private in-process transport with Workers goroutines.  The
	// Runner does not close the transport; its creator owns its lifetime.
	//
	// Every batch asks for work stealing and every pristine batch for
	// speculative re-dispatch of its tail, which the network leader does.
	// All of it moves tasks between workers and never changes which
	// subproblems are solved or what they cost, so fixed-seed estimates are
	// the in-process transport's bit for bit.
	Transport cluster.Transport
	// Policy configures the budget-aware evaluation engine: incumbent
	// pruning and staged adaptive sampling of predictive-function
	// evaluations (see internal/eval).  The zero value disables both and
	// reproduces the always-full-sample evaluation bit for bit.  The
	// policy's Cache flag is interpreted by the session layer, which owns
	// the cross-search F-cache; the Runner itself never memoizes.
	Policy eval.Policy
}

// Validate reports whether the configuration is usable.  Zero values are
// fine (they select documented defaults); negative worker counts or sample
// sizes are configuration mistakes and are rejected with a clear error
// rather than being silently coerced, as is a transport without RunDispatch.
func (c Config) Validate() error {
	if c.SampleSize < 0 {
		return fmt.Errorf("pdsat: negative sample size %d (use 0 for the default of %d)",
			c.SampleSize, DefaultConfig().SampleSize)
	}
	if c.Workers < 0 {
		return fmt.Errorf("pdsat: negative worker count %d (use 0 for all CPUs)", c.Workers)
	}
	if _, ok := c.Transport.(cluster.DispatchTransport); c.Transport != nil && !ok {
		return fmt.Errorf("pdsat: transport %T is not a cluster.DispatchTransport: a batch runs through RunDispatch", c.Transport)
	}
	if err := c.Policy.Validate(); err != nil {
		return err
	}
	return nil
}

// DefaultConfig returns a configuration suitable for the scaled-down
// experiments: N=100 samples, conflicts as cost, an in-process transport
// using all cores.
func DefaultConfig() Config {
	return Config{
		SampleSize: 100,
		Workers:    runtime.GOMAXPROCS(0),
		Seed:       1,
		CostMetric: solver.CostConflicts,
	}
}

// Counters is one accounting table: what a Scope did, or on a Runner the sum
// over its scopes and its Solve calls (a snapshot of either comes from
// Counters()).  The sample ledger
//
//	SamplesPlanned == SubproblemsSolved + SubproblemsAborted + SamplesSkipped
//
// balances in every table that holds estimation and search work only; Solve
// processes decomposition families outside it and adds to the solved and
// aborted counts of the runner's table alone.
type Counters struct {
	// Evaluations counts predictive-function evaluations (full, pruned and
	// partial alike — in a scope the count also seeds each evaluation's
	// sample RNG, so it advances identically whether or not a policy is
	// active); PrunedEvaluations the subset aborted by incumbent pruning,
	// whose reported value is the incumbent they were pruned against.
	Evaluations       int `json:"evaluations"`
	PrunedEvaluations int `json:"pruned_evaluations"`
	// SubproblemsSolved counts subproblems solved to completion (their own
	// conclusion or per-task budget); SubproblemsAborted dispatched
	// subproblems cut short by a batch abort or cancellation — truncated
	// mid-solve, or never handed to a solver at all — which produced no full
	// Monte Carlo sample.  Of a pruned evaluation's sample, how many were
	// solved and how many aborted depends on when the abort landed — on the
	// backend and the schedule, not on the seed —, and so does what it adds
	// to Solver; nothing a search decides reads them.
	SubproblemsSolved  int `json:"subproblems_solved"`
	SubproblemsAborted int `json:"subproblems_aborted"`
	// SamplesPlanned counts the Monte Carlo samples evaluations committed to
	// (N per evaluation that reached its sample); SamplesSkipped the planned
	// samples that entered no evaluation: the stages behind an early stop or
	// a prune, and the tails of cancelled evaluations.  An evaluation dispatches
	// its whole sample at once, so some of a skipped stage may have been
	// solved ahead by the time the stage before it decided; such a result is
	// dropped like the losing copy of a speculated task — no sample, no
	// activity, no event, no other counter — and its subproblem stays here.
	SamplesPlanned int `json:"samples_planned"`
	SamplesSkipped int `json:"samples_skipped"`
	// SamplesCensored counts the samples (not Solve's members) that ended
	// Unknown at Config.SubproblemBudget, so that their cost is the cap; they
	// are solved samples too, outside the ledger's sum.
	SamplesCensored int `json:"samples_censored"`
	// TasksStolen counts queued tasks the dispatch layer revoked from a
	// backlogged worker and reassigned to another; SpeculativeDuplicates the
	// unfinished tasks it duplicated onto idle slots, SpeculationWins how
	// many duplicates delivered the first (and therefore recorded) result
	// (see cluster.DispatchStats).  They count scheduling events, not
	// samples, and live outside the sample ledger: a stolen task is still
	// solved exactly once, and a losing copy never enters the results.  All
	// three stay zero on the in-process transport, whose workers claim tasks
	// from one shared cursor.
	TasksStolen           int `json:"tasks_stolen"`
	SpeculativeDuplicates int `json:"speculative_duplicates"`
	SpeculationWins       int `json:"speculation_wins"`
	// Solver sums the per-subproblem solver statistics, truncated solves
	// included (in the same accounting as the cost metric: construction
	// baseline plus search effort per subproblem).  What a pruned evaluation
	// adds here is timing, as its SubproblemsSolved and SubproblemsAborted
	// are.
	Solver solver.Stats `json:"solver"`
}

// add adds d to c, field by field.
func (c *Counters) add(d Counters) {
	c.Evaluations += d.Evaluations
	c.PrunedEvaluations += d.PrunedEvaluations
	c.SubproblemsSolved += d.SubproblemsSolved
	c.SubproblemsAborted += d.SubproblemsAborted
	c.SamplesPlanned += d.SamplesPlanned
	c.SamplesSkipped += d.SamplesSkipped
	c.SamplesCensored += d.SamplesCensored
	c.TasksStolen += d.TasksStolen
	c.SpeculativeDuplicates += d.SpeculativeDuplicates
	c.SpeculationWins += d.SpeculationWins
	c.Solver = c.Solver.Add(d.Solver)
}

// ledger is the accounting both Scope and Runner embed: a table, the
// per-variable conflict activity that goes with it, and the ledger it rolls
// up into.  A scope's points at its runner's, a runner's nowhere; every
// update is made here and in each ledger above, one lock at a time, so a
// runner's table is the sum of its scopes' plus what its Solve calls added.
type ledger struct {
	mu sync.Mutex
	c  Counters // guarded by mu
	// confAct accumulates per-variable conflict activity over the solved
	// subproblems (indexed by cnf.Var).
	confAct []float64 // guarded by mu
	up      *ledger
}

// Counters returns a snapshot of the table, all of it read under one lock.
func (l *ledger) Counters() Counters {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.c
}

// Evaluations returns Counters().Evaluations, and so on for every counter.
func (l *ledger) Evaluations() int           { return l.Counters().Evaluations }
func (l *ledger) PrunedEvaluations() int     { return l.Counters().PrunedEvaluations }
func (l *ledger) SubproblemsSolved() int     { return l.Counters().SubproblemsSolved }
func (l *ledger) SubproblemsAborted() int    { return l.Counters().SubproblemsAborted }
func (l *ledger) SamplesPlanned() int        { return l.Counters().SamplesPlanned }
func (l *ledger) SamplesSkipped() int        { return l.Counters().SamplesSkipped }
func (l *ledger) TasksStolen() int           { return l.Counters().TasksStolen }
func (l *ledger) SpeculativeDuplicates() int { return l.Counters().SpeculativeDuplicates }
func (l *ledger) SpeculationWins() int       { return l.Counters().SpeculationWins }

// AggregateStats returns Counters().Solver.
func (l *ledger) AggregateStats() solver.Stats { return l.Counters().Solver }

// VarActivity returns the cumulative conflict activity of a variable over the
// subproblems this ledger counts, but those of a pruned evaluation: on a Scope
// those it solved itself — the activity source a fleet member's tabu search
// consumes, so its getNewCenter heuristic never depends on what concurrent
// members happened to solve — and on a Runner every subproblem solved so far.
// A pruned evaluation adds none, since what its abort let finish depends on
// timing.
func (l *ledger) VarActivity(v cnf.Var) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if int(v) <= 0 || int(v) >= len(l.confAct) {
		return 0
	}
	return l.confAct[v]
}

// note adds d to this ledger's table and to every table above it.
func (l *ledger) note(d Counters) {
	if d == (Counters{}) {
		return // e.g. the dispatch statistics of an in-process batch
	}
	for ; l != nil; l = l.up {
		l.mu.Lock()
		l.c.add(d)
		l.mu.Unlock()
	}
}

// reserve claims n consecutive evaluation slots of this ledger, counted
// above it too, and returns the first.
func (l *ledger) reserve(n int) int {
	l.mu.Lock()
	first := l.c.Evaluations
	l.c.Evaluations += n
	l.mu.Unlock()
	l.up.note(Counters{Evaluations: n})
	return first
}

// absorb adds a result's solver statistics and solved/aborted count to this
// ledger and to every one above it.  It is called from the batch observer.
func (l *ledger) absorb(res *cluster.TaskResult) {
	for ; l != nil; l = l.up {
		l.mu.Lock()
		absorbResult(res, &l.c)
		l.mu.Unlock()
	}
}

// addActivity adds a batch's conflict activity, by variable, to this ledger
// and to every one above it.  The activities are integer-valued counts, so
// the float sums are exact and do not depend on the order results arrive in.
func (l *ledger) addActivity(act []float64) {
	for ; l != nil; l = l.up {
		l.mu.Lock()
		for v, a := range act {
			l.confAct[v] += a
		}
		l.mu.Unlock()
	}
}

// Runner evaluates predictive functions and processes decomposition families
// for one SAT instance.
//
// It is its default Scope: the embedded *Scope is seeded with Config.Seed, and
// every evaluation method is declared once, on Scope, and promoted — so
// r.EvaluatePoint(ctx, p) is r.Scope.EvaluatePoint(ctx, p), its sample drawn
// from (Config.Seed, r.Scope.Evaluations()).  Fleet members evaluate through
// scopes of their own (NewScope), sharing the transport but not the sampling
// state.
//
// Its embedded ledger is the roll-up of the session: everything its scopes
// count, the default one included, plus the subproblems of its Solve calls.
// It is the shallower embed, so r.Counters(), r.VarActivity and the counter
// getters read the roll-up; the default scope's own table is r.Scope.Counters().
type Runner struct {
	ledger
	*Scope
	formula *cnf.Formula
	cfg     Config
	// transport dispatches subproblem batches (Config.Transport, or a
	// private in-process transport).
	transport cluster.DispatchTransport
	// cfgErr is the deferred Config.Validate error: NewRunner cannot
	// return one without breaking every call site, so an invalid
	// configuration surfaces on the first evaluation instead of panicking
	// or hanging.
	cfgErr error

	// buffers are the sample buffers of the calls that have ended: a call
	// takes one and puts it back, so there are never more than were in use
	// at once.  borrows is whether the transport is a cluster.Borrower, whose
	// batches' literals and task lists may be written again once the call
	// has returned; any other transport's are not kept.
	bufMu   sync.Mutex
	buffers []*sampleBuffer // guarded by bufMu
	borrows bool
}

// keepLits is the most literals a sample buffer may hold to be kept for the
// next call, 4 MiB at eight bytes a literal: above the 300 000 of a whole
// 2500-subproblem sample of 120-literal Bivium subproblems, and of a Solve
// family up to d = 15; a larger family is not kept.  keepResults is the most
// results its results array may hold to be kept, 4 MiB at 256 bytes a result
// (a TaskResult is 208 on 64-bit platforms): a Solve family up to d = 14.
const (
	keepLits    = 1 << 19
	keepResults = 1 << 14
)

// acquireBuffer hands out a sample buffer for one call, creating it if none
// is free.
func (r *Runner) acquireBuffer() *sampleBuffer {
	r.bufMu.Lock()
	defer r.bufMu.Unlock()
	if n := len(r.buffers); n > 0 {
		b := r.buffers[n-1]
		r.buffers = r.buffers[:n-1]
		return b
	}
	return &sampleBuffer{rng: rand.New(rand.NewSource(0))}
}

// releaseBuffer takes back the buffer of a call that has returned from its
// batch, unless its literals are too many to keep; a results array too large
// to keep is dropped from it.  Every transport has let go of the results
// array by now, only a Borrower of the literals and tasks.
func (r *Runner) releaseBuffer(b *sampleBuffer) {
	if cap(b.lits) > keepLits {
		return
	}
	if cap(b.results) > keepResults {
		b.results = nil
	}
	if !r.borrows {
		b.lits, b.tasks = nil, nil
	}
	r.bufMu.Lock()
	r.buffers = append(r.buffers, b)
	r.bufMu.Unlock()
}

// NewRunner creates a runner for the formula.  An invalid configuration
// (negative sample size or worker count, a transport without RunDispatch) is
// reported by the first evaluation or solve call; validate eagerly with
// Config.Validate.
func NewRunner(f *cnf.Formula, cfg Config) *Runner {
	cfgErr := cfg.Validate()
	if cfg.SampleSize <= 0 {
		cfg.SampleSize = DefaultConfig().SampleSize
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	transport, _ := cfg.Transport.(cluster.DispatchTransport)
	if cfg.Transport == nil {
		transport = cluster.NewInproc(f, cfg.Workers, solver.DefaultOptions())
	}
	r := &Runner{
		ledger:    ledger{confAct: make([]float64, f.NumVars+1)},
		formula:   f,
		cfg:       cfg,
		transport: transport,
		cfgErr:    cfgErr,
	}
	_, r.borrows = transport.(cluster.Borrower)
	r.Scope = r.NewScope(cfg.Seed)
	return r
}

// Formula returns the underlying formula.
func (r *Runner) Formula() *cnf.Formula { return r.formula }

// Config returns the runner configuration.
func (r *Runner) Config() Config { return r.cfg }

// Transport returns the transport the runner dispatches batches through.
func (r *Runner) Transport() cluster.Transport { return r.transport }

// Progress describes one completed subproblem within a running evaluation
// (Scope.EvaluatePointBudgeted) or family-processing call (SolveObserved).
type Progress struct {
	// Done is the number of subproblem results the call has taken in so
	// far, including cancelled placeholders; Total is the call's batch
	// size, so Done == Total on the last notification of a call that took
	// in its whole batch (an evaluation that stops early ends below it).
	Done, Total int
	// Result is the subproblem result that triggered the notification
	// (Result.Started is false for tasks cancelled before a solver saw
	// them).  Its Activity is valid until the observer returns.
	Result cluster.TaskResult
}

// absorbResult classifies a result into an accounting table.  Callers hold
// the lock guarding the destination.
func absorbResult(res *cluster.TaskResult, c *Counters) {
	if !res.Started {
		// Cancelled before a solver saw it: nothing to absorb, and counting
		// it as solved would skew per-subproblem averages.
		c.SubproblemsAborted++
		return
	}
	c.Solver = c.Solver.Add(res.Stats)
	if res.Cancelled {
		// Truncated mid-solve by a batch abort or cancellation: the effort
		// was real (absorbed above) but the subproblem was not solved to
		// completion.
		c.SubproblemsAborted++
	} else {
		c.SubproblemsSolved++
	}
}

// censored reports whether a result solved to its own conclusion ended
// without an answer at Config.SubproblemBudget: a censored sample of an
// evaluation, or a censored member of a Solve.  Its cost is the cap, not the
// subproblem's.  A task stopped by a tighter pruning allowance is none.
func (r *Runner) censored(res *cluster.TaskResult) bool {
	return res.Status == solver.Unknown && r.cfg.SubproblemBudget.ReachedBy(res.Stats)
}

// runBatch runs one batch through the transport's one batch call,
// RunDispatch.  It adds what every batch carries — the subproblem budget,
// tightened by opts.Budget, the cost metric and work stealing — and notes the
// batch's dispatch statistics in l, the caller's ledger.  The in-process
// transport reports none; the network leader what it stole and speculated.
func (r *Runner) runBatch(ctx context.Context, l *ledger, tasks []cluster.Task, opts cluster.BatchOptions, observe func(cluster.TaskResult), abort <-chan struct{}) ([]cluster.TaskResult, error) {
	opts.Budget = r.cfg.SubproblemBudget.TightenedBy(opts.Budget)
	opts.CostMetric = r.cfg.CostMetric
	opts.Steal = true
	results, ds, err := r.transport.RunDispatch(ctx, tasks, opts, observe, abort)
	l.note(Counters{
		TasksStolen:           ds.TasksStolen,
		SpeculativeDuplicates: ds.SpeculativeDuplicates,
		SpeculationWins:       ds.SpeculationWins,
	})
	return results, err
}

// SolveReport is the outcome of processing a whole decomposition family
// (solving mode).
type SolveReport struct {
	// Vars is the decomposition set used, sorted by variable index; Point is
	// the same set as a point of its search space.
	Vars  []cnf.Var    `json:"vars"`
	Point decomp.Point `json:"-"`
	// Processed is the number of subproblems a solver worked on (including
	// solves truncated by a stop-on-SAT or cancellation).
	Processed int `json:"processed"`
	// SubproblemsAborted counts the subproblems of the run that produced no
	// complete solve: truncated mid-search by stop-on-SAT/cancellation, or
	// never handed to a solver at all.
	SubproblemsAborted int `json:"subproblems_aborted"`
	// MembersCensored counts the members that ended without an answer at
	// Config.SubproblemBudget (the rule of a censored sample).  With
	// MembersCensored > 0 and no FoundSat the family did not decide the
	// instance: a censored member may be the satisfiable one.
	MembersCensored int `json:"members_censored,omitempty"`
	// TotalCost is the summed cost of all processed subproblems (1-core
	// sequential cost, comparable with the predictive function value).  A
	// censored member adds the cap, so with MembersCensored it is a lower
	// bound on the family's cost.
	TotalCost float64 `json:"total_cost"`
	// CostToFirstSat is the summed cost of the processed subproblems up to
	// and including the first satisfiable one (in enumeration order); equal
	// to TotalCost if no subproblem is satisfiable.  Under StopOnSat on one
	// slot that is every member up to the first satisfiable one, solved
	// whole.  On more slots it can be a lower bound on that sum: a member
	// below it that the stop cut short in flight adds only its truncated
	// cost, and one still queued behind another slot's work adds nothing.
	CostToFirstSat float64 `json:"cost_to_first_sat"`
	// CostToFirstSatLowerBound reports that CostToFirstSat is only a lower
	// bound: a satisfiable member was found, and some member below it was
	// not solved to completion (never started, cancelled in flight, or
	// censored).  When it is false the sum is exact.
	CostToFirstSatLowerBound bool `json:"cost_to_first_sat_lower_bound,omitempty"`
	// FoundSat reports whether a satisfiable subproblem was found.
	FoundSat bool `json:"found_sat"`
	// Model is a model of the original formula if FoundSat.
	Model cnf.Assignment `json:"-"`
	// SatIndex is the enumeration index of the first satisfiable
	// subproblem, -1 if none.
	SatIndex int64 `json:"sat_index"`
	// WallTime is the elapsed wall-clock time.
	WallTime time.Duration `json:"wall_time_ns"`
	// Interrupted reports whether the run was cancelled before completion.
	Interrupted bool `json:"interrupted"`
}

// SolveOptions configure the solving mode.
type SolveOptions struct {
	// StopOnSat stops processing as soon as one subproblem is satisfiable.
	// The paper's validation runs process the whole family to gather
	// statistics; key-recovery runs stop at the first hit.
	StopOnSat bool
	// MaxSubproblems bounds the number of processed subproblems (0 = all).
	// Enumeration order is by increasing assignment index.
	MaxSubproblems uint64
}

// FamilyBatch returns how many subproblems Solve processes of the family of a
// d-variable decomposition set under SolveOptions.MaxSubproblems.  It refuses
// an empty set, and more than 2^20 subproblems: a batch holds every one's
// literals, task and result at once, so more is refused before allocating.
func FamilyBatch(d int, maxSubproblems uint64) (int, error) {
	const most = 1 << 20 // the experiments solve 2^12 at most
	n := maxSubproblems
	if d < 63 && (n == 0 || n > 1<<d) {
		n = 1 << d
	}
	switch {
	case d == 0:
		return 0, errors.New("pdsat: empty decomposition set")
	case n == 0 || n > most:
		return 0, fmt.Errorf("pdsat: a family of 2^%d subproblems is more than one solve enumerates; set max_subproblems to at most %d", d, most)
	}
	return int(n), nil
}

// Solve processes the decomposition family induced by the point: it
// enumerates assignments of the decomposition set (FamilyBatch bounds them),
// solves every subproblem and aggregates costs.  With Config.RetainLearned
// set, each worker keeps its learned clauses across subproblems, which usually
// lowers the total effort at the price of scheduling-dependent costs.
func (r *Runner) Solve(ctx context.Context, p decomp.Point, opts SolveOptions) (*SolveReport, error) {
	return r.SolveObserved(ctx, p, opts, nil)
}

// SolveObserved behaves exactly like Solve but additionally streams a
// Progress notification for every collected subproblem result to observe
// (when non-nil), with the same one-at-a-time, in-order contract as
// Scope.EvaluatePointBudgeted.
func (r *Runner) SolveObserved(ctx context.Context, p decomp.Point, opts SolveOptions, observe func(Progress)) (*SolveReport, error) {
	if r.cfgErr != nil {
		return nil, r.cfgErr
	}
	total, err := FamilyBatch(p.Count(), opts.MaxSubproblems)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	buf := r.acquireBuffer()
	defer r.releaseBuffer(buf)
	tasks := buf.familyTasks(decomp.FamilyOf(r.formula, p), total)
	stop := cluster.StopNone
	if opts.StopOnSat {
		stop = cluster.StopOnSat
	}
	// A family is no scope's sample: its results go into the runner's own
	// ledger, their counters as they are observed, their activity once the
	// batch has returned.
	done := 0
	act := buf.activity(r.formula.NumVars)
	absorb := func(res cluster.TaskResult) {
		r.absorb(&res)
		addSparse(act, res.Activity)
		if observe != nil {
			done++
			observe(Progress{Done: done, Total: total, Result: res})
		}
	}
	retain := r.cfg.RetainLearned
	results, err := r.runBatch(ctx, &r.ledger, tasks, cluster.BatchOptions{
		Stop:   stop,
		Retain: retain,
		// Speculation is restricted to pristine batches: with retained
		// learned clauses a duplicate copy solves on different solver state,
		// so which copy wins would change the recorded result content.
		Speculate: !retain,
		Results:   buf.lentResults(total),
	}, absorb, nil)
	r.addActivity(act)
	if err != nil && !cluster.IsInterruption(err) {
		return nil, err
	}

	report := &SolveReport{Vars: p.SortedVars(), Point: p, SatIndex: -1, Interrupted: err != nil}
	// The results come in completion order; the costs are summed in
	// enumeration order, for a deterministic total and cost-to-first-SAT.
	costs, processed := buf.tables(total)
	firstCut := total // the first member not solved to completion, or censored
	for _, res := range results {
		if !res.Started || res.Cancelled {
			report.SubproblemsAborted++
			firstCut = min(firstCut, res.Index)
		} else if r.censored(&res) {
			report.MembersCensored++
			firstCut = min(firstCut, res.Index)
		}
		if !res.Started {
			continue // cancelled before a solver saw it
		}
		report.Processed++
		costs[res.Index], processed[res.Index] = res.Cost, true
		if res.Status == solver.Sat && (!report.FoundSat || int64(res.Index) < report.SatIndex) {
			report.FoundSat, report.Model, report.SatIndex = true, res.Model, int64(res.Index)
		}
	}
	for idx, ok := range processed {
		if !ok {
			continue
		}
		report.TotalCost += costs[idx]
		if !report.FoundSat || int64(idx) <= report.SatIndex {
			report.CostToFirstSat += costs[idx]
		}
	}
	report.CostToFirstSatLowerBound = report.FoundSat && int64(firstCut) < report.SatIndex
	report.WallTime = time.Since(start)
	return report, nil
}
