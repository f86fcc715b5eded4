package cluster

import (
	"context"
	"runtime"
	"slices"
	"strings"
	"testing"

	"github.com/paper-repro/pdsat-go/internal/cnf"
	"github.com/paper-repro/pdsat-go/internal/solver"
)

// The tests of the in-process dispatch count results and run under the race
// detector; none of them reads a clock.  requeueTasks are decided by
// propagation in about a microsecond, so the workers outrun anything that is
// not ordered by the batch itself.

var propagationBatch = BatchOptions{CostMetric: solver.CostPropagations}

// checkOnePerIndex fails the test unless the results hold every index of the
// batch exactly once.
func checkOnePerIndex(t *testing.T, results []TaskResult, tasks int) {
	t.Helper()
	if len(results) != tasks {
		t.Fatalf("got %d results for %d tasks", len(results), tasks)
	}
	seen := make([]bool, tasks)
	for _, res := range results {
		if res.Index < 0 || res.Index >= tasks || seen[res.Index] {
			t.Fatalf("index %d is out of range or reported twice", res.Index)
		}
		seen[res.Index] = true
	}
}

// checkMatchesFreshTransport runs the tasks on tr and fails the test unless
// every task costs what it costs on a new transport.
func checkMatchesFreshTransport(t *testing.T, tr *Inproc, tasks []Task) {
	t.Helper()
	got, err := tr.Run(context.Background(), tasks, propagationBatch)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstInproc(t, tasks, propagationBatch, got)
}

// TestInprocObserverIsSerialised: the observer is called by whichever worker
// finished a task, but one call at a time, each completed before the next
// begins, in the order of the returned results, and never after the call has
// returned — so an observer may keep plain, unlocked state, as every
// observer in the tree does.
func TestInprocObserverIsSerialised(t *testing.T) {
	tr := NewInproc(requeueFormula(), 8, solver.DefaultOptions())
	tasks := requeueTasks(4000)
	var (
		calls    int
		inside   bool
		observed []int
	)
	results, err := tr.RunObserved(context.Background(), tasks, propagationBatch, func(res TaskResult) {
		if inside {
			t.Error("the observer was entered while a call to it was in progress")
		}
		inside = true
		calls++
		observed = append(observed, res.Index)
		inside = false
	})
	if err != nil {
		t.Fatal(err)
	}
	checkOnePerIndex(t, results, len(tasks))
	if calls != len(tasks) {
		t.Fatalf("the observer saw %d of %d results before the call returned", calls, len(tasks))
	}
	returned := make([]int, len(results))
	for i, res := range results {
		returned[i] = res.Index
	}
	if !slices.Equal(observed, returned) {
		t.Fatal("the observed order differs from the returned order")
	}
}

// TestInprocAbortRunAhead: an abort fired by the observer at the k-th result
// is taken before the next result is recorded and before another task
// starts, so the only solves that can follow it are those the other
// workers−1 goroutines had in flight.
func TestInprocAbortRunAhead(t *testing.T) {
	const workers, k = 8, 100
	tr := NewInproc(requeueFormula(), workers, solver.DefaultOptions())
	tasks := requeueTasks(4000)
	abort := make(chan struct{})
	seen := 0
	results, err := tr.RunAbortable(context.Background(), tasks, propagationBatch, func(TaskResult) {
		if seen++; seen == k {
			close(abort)
		}
	}, abort)
	if err != nil {
		t.Fatalf("an aborted batch returned the error %v", err)
	}
	checkOnePerIndex(t, results, len(tasks))
	started := 0
	for i, res := range results {
		if res.Started {
			started++
		} else if i < k {
			t.Fatalf("result %d, before the abort, is a placeholder", i)
		}
	}
	if started > k+workers-1 {
		t.Fatalf("%d tasks were started, want at most k + workers - 1 = %d", started, k+workers-1)
	}
	checkMatchesFreshTransport(t, tr, tasks[:64])
}

// TestInprocLateWorkerTakesNoSolver: a worker draws its solver for the first
// task it solves, so one that finds the cursor exhausted leaves the pool
// alone.  On one processor the first worker to run drains a batch of
// microsecond tasks before the others start; in the observer's last call it
// steps aside, still holding its solver, until they have all come and gone.
// Had they drawn a solver on arrival, the pool would have been empty and the
// first of them would have built a second one.  (The attempts are for a host
// that takes the processor away for so long that the runtime preempts the
// first worker mid-batch and another one legitimately solves a task.)
func TestInprocLateWorkerTakesNoSolver(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const attempts, tasks = 10, 32
	var sizes []int
	for range attempts {
		tr := NewInproc(requeueFormula(), 8, solver.DefaultOptions())
		seen := 0
		results, err := tr.RunObserved(context.Background(), requeueTasks(tasks), propagationBatch, func(TaskResult) {
			if seen++; seen == tasks {
				for range 100 {
					runtime.Gosched()
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		checkOnePerIndex(t, results, tasks)
		if tr.PoolSize() == 1 {
			return
		}
		sizes = append(sizes, tr.PoolSize())
	}
	t.Fatalf("the pool holds %v solvers after batches one worker could have drained, want 1", sizes)
}

// TestInprocRunsAfterClose: Close releases nothing a batch needs — it returns
// nil, and the transport still runs a batch afterwards, with the costs a new
// one gives.
func TestInprocRunsAfterClose(t *testing.T) {
	tr := NewInproc(requeueFormula(), 2, solver.DefaultOptions())
	if err := tr.Close(); err != nil {
		t.Fatalf("Close returned %v", err)
	}
	checkMatchesFreshTransport(t, tr, requeueTasks(16))
}

// checkPanicError fails the test unless err reports a panic with the given
// value under the given task as a failed batch, not as an interruption.
func checkPanicError(t *testing.T, err error, task, value string) {
	t.Helper()
	if err == nil || IsInterruption(err) || !strings.Contains(err.Error(), task+" panicked") ||
		!strings.Contains(err.Error(), value) {
		t.Fatalf("got the error %v, want one naming %s and %q", err, task, value)
	}
}

// TestInprocRecoversPanicBuildingSolver: a transport whose formula has a
// clause with the zero literal panics where the first worker builds its
// solver.  That used to end the
// process from a goroutine no caller could recover on; it is the batch's
// error now.
func TestInprocRecoversPanicBuildingSolver(t *testing.T) {
	tr := NewInproc(&cnf.Formula{NumVars: 2, Clauses: []cnf.Clause{{1, 0}}}, 2, solver.Options{})
	_, err := tr.Run(context.Background(), requeueTasks(1), BatchOptions{})
	checkPanicError(t, err, "task 0", "index out of range")
}

// TestInprocRecoversPanicUnderSolve panics under solveTask on a healthy
// transport — the caller's observer rewrites a task the batch check has
// passed into one that assumes the zero literal, and the solver indexes its
// value array with it while the worker holds its pooled one.  The batch fails with
// an error naming the task, the tasks behind it drain as placeholders the
// observer is not told about, the solver the worker held is not returned to
// the pool, and the transport serves the next batch.
func TestInprocRecoversPanicUnderSolve(t *testing.T) {
	f := requeueFormula()
	tr := NewInproc(f, 1, solver.DefaultOptions())
	tasks := requeueTasks(8)
	if _, err := tr.Run(context.Background(), tasks, propagationBatch); err != nil {
		t.Fatal(err)
	}
	if got := tr.PoolSize(); got != 1 {
		t.Fatalf("the pool holds %d solvers after a batch, want the worker's one", got)
	}

	const bad = 3
	failing := requeueTasks(8)
	observed := 0
	results, err := tr.RunObserved(context.Background(), failing, propagationBatch, func(TaskResult) {
		if observed++; observed == bad {
			failing[bad].Assumptions[0] = 0
		}
	})
	checkPanicError(t, err, "task 3", "index out of range")
	if len(results) != len(failing)-1 || observed != bad {
		t.Fatalf("%d results, %d of them observed; want one for every task but the panicking one, and the %d before it observed",
			len(results), observed, bad)
	}
	for i, res := range results {
		if res.Index == bad || res.Started != (i < bad) {
			t.Fatalf("result %d is %+v; want solves before task %d, placeholders after, nothing for it", i, res, bad)
		}
	}
	if got := tr.PoolSize(); got != 0 {
		t.Fatalf("the pool holds %d solvers after the panic, want none: the one that was held is not reused", got)
	}
	checkMatchesFreshTransport(t, tr, tasks)
}

// TestInprocFailsOnAFalseSat: an in-process SAT is checked against the
// transport's formula, as a worker's is on the leader.  The formula gains the
// unit clause ¬24 after the worker's pooled solver was built without it, so
// that solver's one model, every variable true, falsifies it.  The batch fails
// with an error naming the task, which gets no result, as under a panic.
func TestInprocFailsOnAFalseSat(t *testing.T) {
	f := requeueFormula()
	tr := NewInproc(f, 1, solver.DefaultOptions())
	tasks := requeueTasks(8)
	if _, err := tr.Run(context.Background(), tasks, propagationBatch); err != nil {
		t.Fatal(err)
	}
	f.AddClauseLits(-24)
	results, err := tr.Run(context.Background(), tasks, propagationBatch)
	if err == nil || IsInterruption(err) || !strings.Contains(err.Error(), "task 0 is SAT with a model that falsifies the formula") {
		t.Fatalf("got the error %v, want one naming task 0's false SAT", err)
	}
	if len(results) != len(tasks)-1 {
		t.Fatalf("%d results, want one for every task but task 0", len(results))
	}
	for _, res := range results {
		if res.Index == 0 || res.Started {
			t.Fatalf("result %+v; want placeholders for the tasks behind task 0, nothing for it", res)
		}
	}
}

// guardedPigeonholes is three pigeons in two holes (variables 1–6), every
// clause guarded by variable 7: assuming 7 takes conflicts to refute, which
// bump variables; variable 8 is free.
func guardedPigeonholes() *cnf.Formula {
	f := cnf.New(8)
	in := func(pigeon, hole int) cnf.Var { return cnf.Var(1 + 2*pigeon + hole) }
	guard := cnf.NewLit(7, false)
	for p := range 3 {
		f.AddClauseLits(cnf.NewLit(in(p, 0), true), cnf.NewLit(in(p, 1), true), guard)
	}
	for h := range 2 {
		for a := range 3 {
			for b := a + 1; b < 3; b++ {
				f.AddClauseLits(cnf.NewLit(in(a, h), false), cnf.NewLit(in(b, h), false), guard)
			}
		}
	}
	return f
}

// TestInprocHarvestBufferSurvivesTheBatch: the buffer a worker harvests its
// tasks' conflict activity into goes back to the pool with its solver, so a
// warm batch whose task bumps variables allocates no more than one whose task
// bumps none, where every batch used to grow a buffer of its own.
func TestInprocHarvestBufferSurvivesTheBatch(t *testing.T) {
	tr := NewInproc(guardedPigeonholes(), 1, solver.DefaultOptions())
	bumping := []Task{{Index: 0, Assumptions: []cnf.Lit{cnf.NewLit(7, true)}}}
	quiet := []Task{{Index: 0, Assumptions: []cnf.Lit{cnf.NewLit(8, true), cnf.NewLit(8, false)}}}
	bumped := 0
	allocs := func(tasks []Task) float64 {
		return testing.AllocsPerRun(20, func() {
			bumped = 0
			results, err := tr.RunObserved(context.Background(), tasks, propagationBatch, func(res TaskResult) { bumped += len(res.Activity.Vars) })
			if err != nil || len(results) != 1 || results[0].Status != solver.Unsat {
				t.Fatalf("results %+v, error %v; want one refutation", results, err)
			}
		})
	}
	quietAllocs := allocs(quiet)
	if bumped != 0 {
		t.Fatalf("the quiet task bumped %d variables", bumped)
	}
	bumpingAllocs := allocs(bumping)
	if bumped == 0 {
		t.Fatal("the pigeonhole task bumped no variable")
	}
	if bumpingAllocs > quietAllocs {
		t.Fatalf("a warm batch allocates %v times with a task that bumps %d variables, %v with one that bumps none", bumpingAllocs, bumped, quietAllocs)
	}
}
