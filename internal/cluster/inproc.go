package cluster

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/paper-repro/pdsat-go/internal/cnf"
	"github.com/paper-repro/pdsat-go/internal/solver"
)

// Inproc is the in-process Transport: tasks run on goroutines in the
// current process, each owning one persistent solver drawn from a pool that
// survives across batches, so the clause database and watch lists are built
// once per worker instead of once per subproblem.
//
// In pristine (non-Retain) batches every task starts with a solver.Reset,
// which makes the observed cost of a subproblem identical to what a freshly
// constructed solver would measure; fixed-seed estimates are therefore
// bit-for-bit independent of the pooling and of scheduling.
type Inproc struct {
	formula *cnf.Formula
	opts    solver.Options
	workers int

	// poolMu guards pool, the persistent per-worker solvers reused across
	// batches.  A worker goroutine takes one for the first task it solves
	// and returns it when it exits, so the pool grows to the number of
	// workers that were ever solving at once.  In pristine batches every
	// subproblem starts with a Reset, so any pooled solver is interchangeable
	// with any other; retain-mode workers instead carry learned clauses and
	// activities in the pooled solver and must rebase budgets and activity
	// diffs onto its cumulative counters.
	poolMu sync.Mutex
	pool   []pooledSolver
}

// pooledSolver is what a worker goroutine draws from the pool: the solver,
// and the buffer its tasks' conflict activity is harvested into, which goes
// back with it so that the next batch does not grow a new one.
type pooledSolver struct {
	solver *solver.Solver
	act    solver.SparseActivities
}

// NewInproc creates an in-process transport for the formula.  workers is
// the number of concurrent solver goroutines (0 or negative means
// GOMAXPROCS); opts configures the shared pooled solvers, and its zero value
// is solver.DefaultOptions (see solver.New).
func NewInproc(f *cnf.Formula, workers int, opts solver.Options) *Inproc {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Inproc{formula: f, opts: opts, workers: workers}
}

// Workers reports the number of concurrent solver goroutines per batch.
func (t *Inproc) Workers() int { return t.workers }

// Close implements Transport; the pooled solvers are simply released to the
// garbage collector.
func (t *Inproc) Close() error { return nil }

// BorrowsTasks implements Borrower: a batch call returns only once every
// worker goroutine has.
func (t *Inproc) BorrowsTasks() {}

// acquire hands out a persistent solver for one worker goroutine, creating
// it on first use.
func (t *Inproc) acquire() pooledSolver {
	t.poolMu.Lock()
	if n := len(t.pool); n > 0 {
		p := t.pool[n-1]
		t.pool = t.pool[:n-1]
		t.poolMu.Unlock()
		return p
	}
	t.poolMu.Unlock()
	return pooledSolver{solver: solver.New(t.formula, t.opts)}
}

// release returns a worker's solver and harvest buffer to the pool.
func (t *Inproc) release(p pooledSolver) {
	t.poolMu.Lock()
	t.pool = append(t.pool, p)
	t.poolMu.Unlock()
}

// PoolSize reports how many persistent solvers are currently parked in the
// pool (i.e. not held by a running worker goroutine).
func (t *Inproc) PoolSize() int {
	t.poolMu.Lock()
	defer t.poolMu.Unlock()
	return len(t.pool)
}

// RunDispatch implements DispatchTransport: it is RunAbortable with zero
// DispatchStats.  The workers share one cursor into the batch, so there is
// nothing to steal and no straggler to speculate on; Steal and Speculate are
// ignored.
func (t *Inproc) RunDispatch(ctx context.Context, tasks []Task, opts BatchOptions, observe func(TaskResult), abort <-chan struct{}) ([]TaskResult, DispatchStats, error) {
	results, err := t.RunAbortable(ctx, tasks, opts, observe, abort)
	return results, DispatchStats{}, err
}

// Run distributes the tasks over the worker goroutines and collects one
// result per task, in completion order.
func (t *Inproc) Run(ctx context.Context, tasks []Task, opts BatchOptions) ([]TaskResult, error) {
	return t.RunObserved(ctx, tasks, opts, nil)
}

// RunObserved implements ObservedTransport: observe (when non-nil) receives
// every result as the worker that produced it records it, in the same order
// as the returned slice.
func (t *Inproc) RunObserved(ctx context.Context, tasks []Task, opts BatchOptions, observe func(TaskResult)) ([]TaskResult, error) {
	return t.RunAbortable(ctx, tasks, opts, observe, nil)
}

// RunAbortable implements AbortableTransport: when abort fires, the batch's
// in-flight solves are interrupted (their truncated results are marked
// Cancelled) and unclaimed tasks drain as placeholders, but — unlike a
// context cancellation — the call returns the full result set with a nil
// error and the transport (solver pool included) stays usable for the next
// batch.  The caller sleeps while the workers serve themselves (inprocBatch)
// and is woken once per batch, not once per task.  A panic under a task
// fails the batch, not the process: the other tasks drain as placeholders and
// the error — not an interruption — names the task and the panic value.  A
// SAT whose model falsifies the formula, or a panic in the observer, fails
// the batch the same way.
func (t *Inproc) RunAbortable(ctx context.Context, tasks []Task, opts BatchOptions, observe func(TaskResult), abort <-chan struct{}) ([]TaskResult, error) {
	if err := checkBatch(tasks, t.formula.NumVars); err != nil {
		return nil, err
	}
	if len(tasks) == 0 {
		return nil, ctx.Err()
	}
	// The abort cancels only batchCtx — the batch — never ctx, so the "was
	// this a planned abort or a real cancellation" distinction below stays a
	// plain ctx.Err() check.
	batchCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	b := &inprocBatch{tasks: tasks, opts: opts, cancel: cancel, done: make(chan struct{}),
		collector: collector{results: resultsFor(opts.Results, len(tasks)), observe: observe, abort: abort}}
	// An abort that has already fired cancels the batch before a worker starts.
	select {
	case <-abort:
		cancel()
	default:
	}
	workers := min(t.workers, len(tasks))
	b.running.Store(int32(workers))
	for range workers {
		go func() {
			defer func() {
				if b.running.Add(-1) == 0 {
					close(b.done)
				}
			}()
			b.work(batchCtx, t)
		}()
	}
	select {
	case <-b.done:
	case <-abort:
		cancel()
		<-b.done
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.err != nil {
		return b.results, b.err
	}
	return b.results, ctx.Err()
}

// inprocBatch is one RunAbortable call in progress.  Its workers claim tasks
// from a shared cursor and record what they solved under mu, which orders the
// results and makes the observer's calls one at a time, each completed before
// the next begins and all before the call returns.
type inprocBatch struct {
	tasks []Task
	opts  BatchOptions
	// next is the cursor: the position in tasks of the first unclaimed one.
	next atomic.Int64
	// cancel cancels the batch, never the caller's context.
	cancel context.CancelFunc
	// running counts the workers that have not returned; the last closes done.
	running atomic.Int32
	done    chan struct{}

	mu        sync.Mutex
	collector // guarded by mu
}

// work is one worker goroutine: until no task is left it claims the next one,
// solves it — in a cancelled batch, answers it with a placeholder — and
// records the result.  It looks at the cancellation before every solve, so
// once a result has cancelled the batch no task starts: at most the
// workers−1 solves in flight beside it follow.  The pooled solver is drawn,
// and the slot's interrupt registered, for the first task the worker solves;
// one that finds the cursor exhausted or the batch cancelled never touches
// the pool, let alone builds a solver for nothing.
func (b *inprocBatch) work(ctx context.Context, t *Inproc) {
	var sw *solveWorker
	claimed := -1
	defer func() {
		p := recover()
		if p == nil {
			if sw != nil {
				sw.close()
			}
			return
		}
		// A panic under the claimed task, which gets no result.  The solver's
		// state is unknown, so it does not go back to the pool.
		if sw != nil {
			sw.unregister()
		}
		b.fail(fmt.Errorf("cluster: task %d panicked: %v", claimed, p))
		b.work(ctx, t) // drains placeholders
	}()
	for {
		i := int(b.next.Add(1)) - 1
		if i >= len(b.tasks) {
			return
		}
		claimed = b.tasks[i].Index
		res := TaskResult{Index: claimed, Status: solver.Unknown}
		if ctx.Err() == nil {
			if sw == nil {
				sw = newSolveWorker(ctx, t, b.opts.Retain)
			}
			res = sw.solveTask(b.tasks[i], b.opts)
			if err := checkModel(t.formula, &res); err != nil {
				b.fail(err) // the task gets no result, as under a panic
				continue
			}
		}
		b.record(res)
	}
}

// record records a result and cancels the batch if that is now due (collect):
// with mu held, so before the next result is recorded.  The activity is the
// worker's buffer, lent to the observer and to nobody after it.
func (b *inprocBatch) record(res TaskResult) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.collect(res, b.opts.Stop) {
		b.cancel()
	}
}

// fail fails the batch (collector.fail) and cancels it.
func (b *inprocBatch) fail(err error) {
	b.mu.Lock()
	b.collector.fail(err)
	b.mu.Unlock()
	b.cancel()
}

// solveWorker is the per-goroutine solving state of one batch: one
// persistent pooled solver, the buffer its tasks' conflict activity is
// harvested into, and the slot's interrupt registration.  The network
// worker (worker.go) reuses it for its local solving slots.
type solveWorker struct {
	transport *Inproc
	solver    *solver.Solver
	retain    bool
	// act is where every task's conflict activity is harvested, and what its
	// TaskResult.Activity points into: the result is recorded, or put on the
	// wire, before the slot takes its next task.  It comes from the pool with
	// the solver and goes back with it.
	act solver.SparseActivities

	// unregister removes the slot's registration with the batch context.
	unregister func() bool

	// The interrupt state: which task the slot is working on and whether it
	// was told to stop.  The batch's cancellation (once, through the
	// registration) and a discard aimed at one task (interruptTask) arrive on
	// other goroutines, possibly after the task they were meant for has
	// ended; mu makes "that task is still running" and the interrupt one
	// step, so a late one can never hit the slot's next task.
	mu   sync.Mutex
	busy bool // guarded by mu; a task is in progress
	task int  // guarded by mu; its index
	// running is the solver of the task in progress, nil while the task only
	// waits (an injected delay).
	running *solver.Solver // guarded by mu
	fired   bool           // guarded by mu; the task in progress was interrupted
	stopped bool           // guarded by mu; the batch is cancelled: every task from now on is interrupted
	// wake ends an injected delay early (capacity 1, filled under mu); nil
	// where no delay is ever injected.
	wake chan struct{}
}

// newSolveWorker draws a pooled solver for one worker goroutine and
// registers the slot with the batch context: the batch's cancellation is
// converted into the solver's non-blocking interrupt, mirroring the paper's
// modified MiniSat that polls for leader messages during search.
func newSolveWorker(batch context.Context, t *Inproc, retain bool) *solveWorker {
	p := t.acquire()
	sw := &solveWorker{transport: t, solver: p.solver, act: p.act, retain: retain}
	sw.unregister = context.AfterFunc(batch, sw.interruptBatch)
	return sw
}

// close ends the registration and returns the pooled solver with the
// harvest buffer.
func (w *solveWorker) close() {
	w.unregister()
	w.transport.release(pooledSolver{solver: w.solver, act: w.act})
}

// begin marks the start of a task: s is the solver about to run it, nil for
// a task that only waits.
func (w *solveWorker) begin(task int, s *solver.Solver) {
	w.mu.Lock()
	w.busy, w.task, w.running, w.fired = true, task, s, false
	select {
	case <-w.wake: // meant for an earlier task
	default:
	}
	if w.stopped {
		w.interruptLocked()
	}
	w.mu.Unlock()
}

// end marks the end of the task in progress and reports whether it was
// interrupted.
func (w *solveWorker) end() (interrupted bool) {
	w.mu.Lock()
	interrupted = w.fired
	w.busy, w.running = false, nil
	w.mu.Unlock()
	return interrupted
}

// interruptBatch interrupts the task in progress and every later one.
func (w *solveWorker) interruptBatch() {
	w.mu.Lock()
	w.stopped = true
	if w.busy {
		w.interruptLocked()
	}
	w.mu.Unlock()
}

// interruptTask interrupts the task in progress if it is the given one.
func (w *solveWorker) interruptTask(task int) {
	w.mu.Lock()
	if w.busy && w.task == task {
		w.interruptLocked()
	}
	w.mu.Unlock()
}

// requires mu
func (w *solveWorker) interruptLocked() {
	w.fired = true
	if w.running != nil {
		w.running.Interrupt()
	}
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// searchAllowance is the search effort a budget leaves after charging the
// construction baseline (0 if the baseline alone exhausts it, which makes
// the budget trip immediately, exactly like a fresh solver).
func searchAllowance(budget, base uint64) uint64 {
	if budget <= base {
		return 0
	}
	return budget - base
}

// solveTask solves one subproblem on the worker's persistent solver.  The
// reported cost is the equivalent of a fresh solver's lifetime effort —
// construction-time (root-level) propagation plus the search under the
// assumptions — because each member of a decomposition family is
// conceptually solved from scratch, exactly as the paper's modified MiniSat
// re-reads C[X̃/α] for every subproblem.  Counting only the post-assumption
// search would report zero cost for subproblems already decided by root
// propagation.
//
// In pristine mode solver.Reset makes the search (and therefore the cost)
// bit-for-bit identical to a fresh solver's.  In retain mode the search
// benefits from previously learned clauses; the cost is the construction
// baseline plus this call's actual effort.
func (w *solveWorker) solveTask(t Task, opts BatchOptions) TaskResult {
	s := w.solver
	start := time.Now()
	if w.retain {
		s.ClearInterrupt()
		// The solver's counters are cumulative across tasks, so a per-task
		// effort budget must be rebased onto the current totals.  Like a
		// fresh solver (whose lifetime counters include construction), the
		// budget charges the construction baseline, so the per-task search
		// allowance is budget minus baseline in both modes.
		b := opts.Budget
		base := s.BaseStats()
		if b.MaxConflicts > 0 {
			b.MaxConflicts = s.Stats().Conflicts + searchAllowance(b.MaxConflicts, base.Conflicts)
		}
		if b.MaxPropagations > 0 {
			b.MaxPropagations = s.Stats().Propagations + searchAllowance(b.MaxPropagations, base.Propagations)
		}
		s.SetBudget(b)
	} else {
		s.Reset()
		s.SetBudget(opts.Budget)
	}
	// The solve is open to the slot's interrupts for exactly as long as it
	// runs.  One that still concluded (the interrupt raced with a normal
	// finish) produced a complete cost; only an inconclusive one is cancelled:
	// its cost then undercounts the subproblem.
	w.begin(t.Index, s)
	res := s.SolveWithAssumptions(t.Assumptions)
	cancelled := w.end() && res.Status == solver.Unknown
	// The harvest takes what this task bumped, in either mode: every task
	// before it on this solver was harvested when it ended.
	w.act = s.AppendConflictActivities(w.act.Emptied())
	var taskStats solver.Stats
	if w.retain {
		taskStats = s.BaseStats().Add(res.Stats)
	} else {
		// Reset rebased the stats to the construction baseline, so the
		// lifetime values are per-task.
		taskStats = s.Stats()
	}
	taskStats.SolveTime = time.Since(start)
	return TaskResult{
		Index:       t.Index,
		Cost:        solver.EffortCost(taskStats, opts.CostMetric),
		Status:      res.Status,
		Model:       res.Model,
		Activity:    w.act,
		Stats:       taskStats,
		Started:     true,
		Interrupted: res.Interrupted,
		Cancelled:   cancelled,
	}
}
