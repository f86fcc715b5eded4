// Package cluster dispatches batches of SAT subproblems to a pool of
// workers and collects their results.  It is the communication layer of the
// paper's PDSAT leader/worker architecture: the leader (internal/pdsat's
// Runner) prepares a batch of subproblems — assumption vectors over one
// formula, which with the solver configuration belongs to the Transport, not
// to a task — and the Transport decides where the subproblems actually run.
//
// Two backends implement Transport:
//
//   - Inproc runs the subproblems on goroutines inside the current process,
//     each owning one persistent solver, exactly like the original
//     goroutine-based runner.  This is the default and is bit-for-bit
//     identical to running without a cluster at all.
//
//   - Leader/Serve form a network transport (stdlib-only: TCP, one
//     length-prefixed binary frame per message; the layout is in proto.go).
//     A leader listens for workers, ships them the formula once at
//     registration, streams task batches, broadcasts non-blocking
//     interrupts (stop-on-SAT, Ctrl-C), exchanges heartbeats, and requeues
//     the in-flight tasks of a lost worker onto the remaining ones.  This
//     reproduces the MPI leader/worker deployment of the paper's
//     experiments (conf_pact_SemenovZ15 §4) across real machines.  Its
//     hosts are unequal and the subproblem costs heavy-tailed, so the
//     leader also rebalances a running batch: free slots are filled before
//     any queue, queued tasks are stolen back from a backlogged worker for
//     an idle one, and the last running tasks are duplicated onto idle
//     slots, first result wins (BatchOptions.Steal/Speculate, which
//     internal/pdsat's Runner sets on every batch).  Its subproblems
//     are often tens of microseconds of propagation, so both directions
//     send much and seldom: a worker's queue holds up to a millisecond of
//     work and is topped up by half of that at a time, and a worker's
//     results share a write while it has more to solve.  In a pristine
//     batch a result is a function of its task alone, so none of this
//     changes what Run returns, only when.
//
// The contract is the same for every backend: Run returns exactly one
// TaskResult per task, in completion order; tasks cancelled before a solver
// saw them yield placeholder results with Started == false; on context
// cancellation the partial results collected so far are returned together
// with the context's error.
//
// A result's conflict activity is borrowed, not returned.  It is a vector of
// a few dozen to a few hundred entries a task that its one reader only ever
// sums, so it exists in buffers that are written again and again — the
// solving slot's own, the connection's on the leader — and reaches the caller
// through the batch observer (ObservedTransport), which both backends call
// where they record the result, valid for the length of that call.  The
// results a batch returns carry none.
//
// Both directions of a batch are lent.  The tasks are the caller's (Task), and
// so is the array the results land in when the caller offers one with room for
// them all (BatchOptions.Results): an evaluation of thousands of subproblems
// then allocates neither its tasks nor its results, batch after batch.
//
// # Protocol compatibility
//
// The network transport speaks one version of its wire protocol
// (protocolVersion in proto.go, currently 11).  There is no negotiation: a
// worker dialing a leader of another version is rejected at registration
// with an explicit version-mismatch error and fails fast (ErrRejected)
// instead of redialing forever; one so old that it does not frame its
// messages this way (version 5 and earlier spoke encoding/gob) is simply
// disconnected.  Leaders and workers ship as one binary and are upgraded
// together.
//
// # Untrusted peers
//
// A worker is not trusted with more than its own tasks.  A frame that is
// malformed — truncated, over the size limit, with a count its bytes cannot
// hold, of an unknown kind — is a connection error like a failed read: the
// leader drops that worker and requeues what it held, and nothing a peer
// merely announces is allocated.  A result is recorded only if the sender
// holds the task it answers, and what it reports is checked where it is
// decoded, against the formula the connection was welcomed with: a known
// status, with a SAT a value for every variable, a cost and activities that
// are finite and not negative, activity for variables the formula has — the
// leader adds them into sums that a NaN or an index out of range would ruin
// for every honest worker's results as well.  Before a SAT counts or stops a
// batch the leader checks its model against the formula (checkModel); a
// worker whose model falsifies it is dropped like one that sent a malformed
// frame.  A worker holds its leader's tasks to the same formula.
package cluster

import (
	"context"
	"errors"
	"fmt"

	"github.com/paper-repro/pdsat-go/internal/cnf"
	"github.com/paper-repro/pdsat-go/internal/solver"
)

// Task is one subproblem: solve the transport's formula under the given
// assumptions.  It is an index and an assumption vector and nothing else: the
// formula and the solver configuration are the transport's, the same for every
// task of every batch, as PDSAT's workers all run one solver on one CNF.
//
// A batch's tasks, and the assumption vectors they point to, are the
// caller's, lent to the transport for the length of the call: it reads them
// and never writes into them, whatever it reassigns, requeues or ships.  A
// Borrower — both backends are — also keeps nothing of them once the call has
// returned, and the caller may then write the same arrays again, for its next
// batch; internal/pdsat's Runner draws every sample into the arrays of the one
// before.  Any other transport may keep them past the call (a wrapper that
// records the subproblems it passes on, say), so it is given vectors no caller
// writes again.  Either way a caller may cut many vectors from one array.  The
// array a batch's results are recorded in is lent the same way, by every
// transport (BatchOptions.Results).
type Task struct {
	// Index identifies the task within its batch.  A batch's indices must
	// be exactly 0..len(tasks)-1 (each once); both backends rely on this to
	// track completion and requeue lost work.
	Index int
	// Assumptions select the subproblem C[X̃/α]: literals over the formula's
	// variables, which both backends check before they dispatch (checkBatch).
	Assumptions []cnf.Lit
}

// TaskResult is the outcome of one subproblem solve, in the one form both
// backends use: the in-process workers record it in their batch themselves
// and the network workers put it on the wire field by field (proto.go).  The
// results a batch returns are recorded in the caller's array when it lends
// one (BatchOptions.Results), and in one the transport allocates otherwise.
type TaskResult struct {
	// Index echoes Task.Index.
	Index int
	// Cost is the subproblem's observed cost in the batch's cost metric.
	Cost float64
	// Status is the solver's conclusion (Unknown if interrupted/budgeted).
	Status solver.Status
	// Model is a satisfying assignment when Status == Sat.
	Model cnf.Assignment
	// Activity is the conflict-activity contribution of this subproblem:
	// the variables its solve bumped, in ascending order — in process and
	// off the wire alike — each with the number of its bumps.  It is sparse
	// from the solver to the runner's tables — a short subproblem bumps a
	// few dozen of a formula's thousands of variables, and one of these is
	// produced, shipped and absorbed per task.
	//
	// It is borrowed: set only in the TaskResult handed to a batch observer,
	// pointing into a buffer of the transport's that is overwritten once the
	// observer returns.  An observer adds it up, or copies what it wants to
	// keep; every TaskResult a transport returns has it empty.
	Activity solver.SparseActivities
	// Stats are the solver statistics attributed to this subproblem.
	Stats solver.Stats
	// Started distinguishes real solves (even interrupted ones) from
	// placeholders for tasks cancelled before a solver ever saw them.
	Started bool
	// Interrupted reports whether the solve ended early (interrupt message
	// or exhausted budget).
	Interrupted bool
	// Cancelled reports that the solve was cut short inconclusively by a
	// batch cancellation (context cancelled or stop-on-SAT) rather than by
	// its own per-task budget: its cost undercounts the subproblem's true
	// effort and must not be used as a Monte Carlo sample.  The effort it
	// did spend is still real (Stats), so aggregate accounting may keep it.
	Cancelled bool
}

// IsInterruption reports whether an error is a context cancellation — the
// only transport error for which partial results are meaningful (all other
// errors mean the batch genuinely failed).
func IsInterruption(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// StopMode tells a transport when to cancel the remainder of a batch: never,
// or at the first satisfiable subproblem, the two modes PDSAT has.
type StopMode int

const (
	// StopNone processes every task of the batch.
	StopNone StopMode = iota
	// StopOnSat cancels the batch as soon as one task reports Sat
	// (solving mode of the paper: stop at the first recovered key).
	StopOnSat
)

// BatchOptions configure one Run call.
type BatchOptions struct {
	// Stop selects the early-cancellation policy.
	Stop StopMode
	// Retain lets each worker keep learned clauses, activities and phases
	// across the tasks it processes in this batch (MiniSat-style
	// incremental reuse); otherwise every task starts from the solver's
	// pristine post-construction state, which makes its cost independent
	// of scheduling.
	Retain bool
	// Budget bounds the effort spent on a single task (0 fields mean
	// unlimited).
	Budget solver.Budget
	// CostMetric selects the unit of TaskResult.Cost.
	CostMetric solver.CostMetric
	// Steal lets a dispatching transport revoke queued (not yet started)
	// tasks from a backlogged worker and reassign them to an idle one.
	// Only the network Leader honours it; stealing moves tasks between
	// workers but never changes which subproblems are solved, so in
	// pristine (non-Retain) batches the results are unaffected.  It
	// also decides how deep a worker's queue may be: two tasks a slot
	// without it, or under StopOnSat; with it a fixed count of tasks a
	// slot, so that tasks of microseconds travel many to a frame — only
	// stealing can take a deep queue back from a worker that turns out
	// slow.
	Steal bool
	// Speculate lets a dispatching transport duplicate the last unfinished
	// tasks of a batch onto idle slots: the first result per task index
	// wins and the losing copy is discarded.  Task results are a pure
	// function of the task in pristine batches, so which copy wins never
	// changes the result content — only how soon it arrives.
	Speculate bool
	// Results is lent like the tasks.  When its capacity holds one result per
	// task, the batch's results are appended to it from its start and the
	// call returns a slice of that array instead of allocating one; a shorter
	// array is ignored, never grown into.  No transport, Borrower or not,
	// keeps any of it once the call has returned, so the caller may write it
	// again at once.  It stays with the caller: no wire carries it.
	Results []TaskResult
}

// resultsFor returns the array a batch of n tasks records its results in: the
// lent one if it has room for them all, a new one otherwise.
func resultsFor(lent []TaskResult, n int) []TaskResult {
	if cap(lent) >= n {
		return lent[:0]
	}
	return make([]TaskResult, 0, n)
}

// collector takes in a batch's results the one way both backends do, under
// the batch's lock: in completion order, each observed as it is recorded.
type collector struct {
	results []TaskResult // completion order; none carries its activity
	observe func(TaskResult)
	abort   <-chan struct{}
	err     error // the batch's first failure
}

// collect appends res without its activity, hands it with its activity to the
// observer, and reports whether the batch must now be cancelled: the abort
// has fired — before the observer's call or within it —, res stops the batch
// under the stop policy, or the observer panicked, which fails the batch.
// Its caller holds the batch's lock and cancels before it records another
// result.
func (c *collector) collect(res TaskResult, stop StopMode) (cancel bool) {
	kept := res
	kept.Activity = solver.SparseActivities{}
	c.results = append(c.results, kept)
	if c.observe != nil {
		defer func() {
			if p := recover(); p != nil {
				c.fail(fmt.Errorf("cluster: the batch observer panicked on task %d: %v", res.Index, p))
				cancel = true
			}
		}()
		c.observe(res)
	}
	select {
	case <-c.abort:
		return true
	default:
		return stop == StopOnSat && res.Status == solver.Sat
	}
}

// fail keeps the batch's first error.  The observer is not called again: the
// failure may have been its own.
func (c *collector) fail(err error) {
	if c.err == nil {
		c.err = err
	}
	c.observe = nil
}

// checkModel refuses a SAT whose model does not satisfy the formula.  Both
// backends run it on every result before it counts: one false SAT would end
// a solve that stops on SAT with a key that is not one.  It is one pass over
// the clauses, and a family has few SAT members.
func checkModel(f *cnf.Formula, res *TaskResult) error {
	if res.Status == solver.Sat && !solver.Verify(f, res.Model) {
		return fmt.Errorf("cluster: task %d is SAT with a model that falsifies the formula", res.Index)
	}
	return nil
}

// Transport runs batches of tasks for one fixed formula.  Implementations
// must return one TaskResult per task (see the package comment for the
// exact contract).  A Transport is bound to the formula it was created
// with; the pdsat Runner using it must be built on the same formula.
type Transport interface {
	// Run distributes the tasks, waits for the batch to finish (or be
	// cancelled) and returns the results in completion order.
	Run(ctx context.Context, tasks []Task, opts BatchOptions) ([]TaskResult, error)
	// Workers reports the current solving capacity (number of concurrent
	// subproblem slots).
	Workers() int
	// Close releases the transport's resources.  Closing the default
	// in-process transport is a no-op; closing a network leader
	// disconnects its workers.
	Close() error
}

// Borrower is implemented by transports that keep nothing of a batch's tasks
// once the call has returned (see Task): Inproc waits for its workers before
// it returns, and the Leader forgets what its workers held.
type Borrower interface {
	Transport
	// BorrowsTasks does nothing; it marks the type.
	BorrowsTasks()
}

// ObservedTransport is implemented by transports that can report batch
// progress while a Run call is still in flight.  observe is called once per
// TaskResult, in the same completion order in which the result will appear
// in Run's return value; the calls are made one at a time, each completed
// before the next begins and all before the call returns — on whichever
// goroutine recorded the result, so an observer may keep unlocked state but
// must not depend on goroutine identity.  It must not block for long: no
// result is recorded while it runs.  Both built-in backends (Inproc and
// Leader) implement it.  On both, a panic in the observer fails the batch: it
// is not called again, the batch is cancelled, and the call returns an error
// naming the panic.
//
// The observer is also the only place a result's conflict activity can be
// read (TaskResult.Activity): the vector it is handed is on loan until it
// returns, and the copy of the result in the returned slice has none.  A
// batch without an observer produces no activity for anyone.
type ObservedTransport interface {
	Transport
	// RunObserved behaves exactly like Run but additionally streams every
	// collected TaskResult to observe as it arrives.
	RunObserved(ctx context.Context, tasks []Task, opts BatchOptions, observe func(TaskResult)) ([]TaskResult, error)
}

// AbortableTransport is implemented by transports that support a
// caller-initiated mid-batch abort, the mechanism behind the evaluation
// engine's incumbent pruning: when the abort channel fires (is closed or
// sent to), the transport cancels the remainder of the batch — in-flight
// solves receive the solver's non-blocking interrupt and report truncated
// results marked Cancelled, tasks no solver has seen yet become placeholder
// results with Started == false — while the transport itself stays fully
// usable: the network leader keeps its workers connected (its interrupt
// message cancels only the batch), and the in-process backend keeps its
// solver pool.  An abort fired from the observer is taken before the next
// result is recorded; the in-process backend also starts no task after it,
// so that at most the workers−1 solves then in flight follow.
//
// Unlike a context cancellation, an abort is a planned outcome: the call
// still returns one result per task and a nil error (unless ctx was also
// cancelled, which takes precedence).  Both built-in backends implement it.
type AbortableTransport interface {
	ObservedTransport
	// RunAbortable behaves exactly like RunObserved but additionally
	// abandons the remainder of the batch when abort fires.  A nil abort
	// channel makes it identical to RunObserved.
	RunAbortable(ctx context.Context, tasks []Task, opts BatchOptions, observe func(TaskResult), abort <-chan struct{}) ([]TaskResult, error)
}

// DispatchStats counts the adaptive-dispatch actions of one batch.  All
// three are scheduling events: none of them changes the per-task results,
// which stay exactly one per index with content independent of where (and
// how often) a task ran.
type DispatchStats struct {
	// TasksStolen counts queued tasks revoked from a backlogged worker and
	// reassigned to another one.
	TasksStolen int
	// SpeculativeDuplicates counts unfinished tasks duplicated onto idle
	// slots near the end of a batch.
	SpeculativeDuplicates int
	// SpeculationWins counts speculated tasks whose duplicate copy
	// delivered the first (and therefore recorded) result.
	SpeculationWins int
}

// DispatchTransport is implemented by transports whose dispatch layer can
// reassign or duplicate tasks between workers — work stealing and
// speculative straggler re-dispatch, which internal/pdsat's Runner asks for
// on every batch through BatchOptions.Steal/Speculate — and report what it
// did.  Both backends implement it, and it is the one method internal/pdsat's
// Runner runs a batch with.  The network Leader steals and speculates; the
// in-process backend's workers claim tasks from one shared cursor, so
// imbalance cannot build up, and it reports zero statistics.
type DispatchTransport interface {
	AbortableTransport
	// RunDispatch behaves exactly like RunAbortable but additionally
	// returns the batch's dispatch statistics.
	RunDispatch(ctx context.Context, tasks []Task, opts BatchOptions, observe func(TaskResult), abort <-chan struct{}) ([]TaskResult, DispatchStats, error)
}

// checkBatch validates what every backend requires of a batch before it
// dispatches any of it: the index contract, and assumptions that are literals
// over the formula's variables 1..numVars.  With a 0 the solver would index
// its value array, in a worker goroutine; to a variable beyond the formula an
// in-process solver would silently grow, and every network worker refuse it.
func checkBatch(tasks []Task, numVars int) error {
	seen := make([]bool, len(tasks))
	for _, t := range tasks {
		if t.Index < 0 || t.Index >= len(tasks) || seen[t.Index] {
			return fmt.Errorf("cluster: batch task indices must be a permutation of 0..%d (got index %d)",
				len(tasks)-1, t.Index)
		}
		seen[t.Index] = true
		for _, l := range t.Assumptions {
			if v := l.Var(); v < 1 || int(v) > numVars { // below 1: zero, or the least int
				return fmt.Errorf("cluster: task %d assumes literal %d, the formula has %d variables", t.Index, l, numVars)
			}
		}
	}
	return nil
}
