package cluster

import (
	"context"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/paper-repro/pdsat-go/internal/cnf"
	"github.com/paper-repro/pdsat-go/internal/encoder"
	"github.com/paper-repro/pdsat-go/internal/solver"
)

// The borrowed activity vector's tests count results and compare sums; none
// of them reads a clock to decide.

// activitySum is an observer that adds up what it is lent, per task and in
// all, and afterwards scribbles over the vector: a transport that handed out
// memory it still reads, or two results sharing a vector, would show.
type activitySum struct {
	seen  map[int]int // task index → observe calls
	dense []float64   // by variable
}

func newActivitySum(numVars int) *activitySum {
	return &activitySum{seen: map[int]int{}, dense: make([]float64, numVars+1)}
}

func (a *activitySum) observe(res TaskResult) {
	a.seen[res.Index]++
	for i, v := range res.Activity.Vars {
		a.dense[v] += res.Activity.Acts[i]
		res.Activity.Vars[i], res.Activity.Acts[i] = 1, -1
	}
}

// check fails unless every task was observed once, no returned result kept
// an activity vector and the observed sum is want.
func (a *activitySum) check(t *testing.T, tasks int, results []TaskResult, want []float64) {
	t.Helper()
	for i := 0; i < tasks; i++ {
		if a.seen[i] != 1 {
			t.Errorf("task %d was observed %d times", i, a.seen[i])
		}
	}
	if len(results) != tasks {
		t.Errorf("%d results for %d tasks", len(results), tasks)
	}
	for _, res := range results {
		if len(res.Activity.Vars) != 0 || len(res.Activity.Acts) != 0 {
			t.Errorf("the returned result of task %d carries an activity vector of %d entries", res.Index, len(res.Activity.Vars))
		}
	}
	if !slices.Equal(a.dense, want) {
		t.Errorf("observed activity sum differs from the reference:\n got %v\nwant %v", a.dense, want)
	}
}

// TestActivityIsBorrowed: a result's activity vector is the observer's for
// the length of its call and nobody's after.  What the observer of a pristine
// batch adds up is, on either backend, the dense activity of a fresh solver
// per task, and the results the batch returns carry none; on the leader a
// result that is not recorded — the losing copy of a speculated task — lends
// nothing, and a task requeued from a lost worker lends once.
func TestActivityIsBorrowed(t *testing.T) {
	inst, err := encoder.NewInstance(encoder.A51(), encoder.Config{KeystreamLen: 40, KnownSuffix: 44, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	vars := inst.UnknownStartVars()[:6]
	tasks := make([]Task, 48)
	want := make([]float64, inst.CNF.NumVars+1)
	for i := range tasks {
		tasks[i].Index = i
		for j, v := range vars {
			tasks[i].Assumptions = append(tasks[i].Assumptions, cnf.NewLit(v, (i*7>>j)&1 == 0))
		}
		s := solver.New(inst.CNF, solver.DefaultOptions())
		s.SolveWithAssumptions(tasks[i].Assumptions)
		h := s.AppendConflictActivities(solver.SparseActivities{})
		for i, v := range h.Vars {
			want[v] += h.Acts[i]
		}
	}
	if slices.Max(want) == 0 {
		t.Fatal("no task had a conflict; the test compares nothing")
	}
	opts := BatchOptions{CostMetric: solver.CostConflicts, Steal: true, Speculate: true}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	t.Run("inproc", func(t *testing.T) {
		sum := newActivitySum(inst.CNF.NumVars)
		results, err := NewInproc(inst.CNF, 3, solver.DefaultOptions()).RunObserved(ctx, tasks, opts, sum.observe)
		if err != nil {
			t.Fatal(err)
		}
		sum.check(t, len(tasks), results, want)
	})

	t.Run("loopback", func(t *testing.T) {
		leader, err := Listen("127.0.0.1:0", inst.CNF, LeaderOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var served sync.WaitGroup
		defer served.Wait()
		defer leader.Close()
		for _, name := range []string{"one", "two"} {
			served.Add(1)
			go func() {
				defer served.Done()
				_ = Serve(ctx, leader.Addr().String(), WorkerOptions{Capacity: 1, Name: name})
			}()
		}
		if err := leader.WaitForWorkers(ctx, 2); err != nil {
			t.Fatal(err)
		}
		// Twice: the second batch finds the leader's and the workers' buffers
		// as the first one left them.
		for round := 0; round < 2; round++ {
			sum := newActivitySum(inst.CNF.NumVars)
			results, err := leader.RunObserved(ctx, tasks, opts, sum.observe)
			if err != nil {
				t.Fatal(err)
			}
			sum.check(t, len(tasks), results, want)
		}
	})

	// Two workers by hand, so that who answers what, and when, is the test's
	// to say: A registers alone and is handed tasks 0 and 1, its slot and the
	// queue behind it; B joins and takes task 2.  A's answers bump variable
	// 1+task by 100, B's variable 11+task by 1.
	byHand := func(t *testing.T, speculate bool, script func(a, b *wire, connA net.Conn, recorded <-chan int, answer func(w *wire, task int))) (*activitySum, []TaskResult, DispatchStats) {
		t.Helper()
		f := requeueFormula()
		// No pings: a hand-driven worker answers none while the other is driven.
		leader, err := Listen("127.0.0.1:0", f, LeaderOptions{Heartbeat: time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		defer leader.Close()
		addr := leader.Addr().String()
		connA, a := register(t, addr, "A", 1)
		defer connA.Close()
		if err := leader.WaitForWorkers(ctx, 1); err != nil {
			t.Fatal(err)
		}
		sum := newActivitySum(f.NumVars)
		recorded := make(chan int, 3) // one send a task
		done := inBackground(ctx, leader, requeueTasks(3), BatchOptions{CostMetric: solver.CostPropagations, Speculate: speculate}, func(res TaskResult) {
			sum.observe(res)
			recorded <- res.Index
		}, nil)
		chunk := firstChunk(t, a)
		holds(t, chunk, 0, 1)
		batch := chunk.Batch
		connB, b := register(t, addr, "B", 1)
		defer connB.Close()
		holds(t, firstChunk(t, b), 2)
		script(a, b, connA, recorded, func(w *wire, task int) {
			t.Helper()
			act := solver.SparseActivities{Vars: []cnf.Var{cnf.Var(11 + task)}, Acts: []float64{1}}
			if w == a {
				act = solver.SparseActivities{Vars: []cnf.Var{cnf.Var(1 + task)}, Acts: []float64{100}}
			}
			res := TaskResult{Index: task, Cost: 5, Status: solver.Unsat, Started: true, Activity: act}
			if err := w.send(&envelope{Kind: kindResult, Batch: batch, Result: &res}); err != nil {
				t.Fatal(err)
			}
		})
		out := <-done
		if out.err != nil {
			t.Fatal(out.err)
		}
		return sum, out.results, out.stats
	}

	// Once B has answered task 2 the batch's tail is speculated: task 0 is
	// duplicated onto B's free slot, and B's copy wins.  A answers task 0 all
	// the same — a result the leader drops — and then task 1, of which B holds
	// a duplicate by now, as its owner.
	t.Run("speculation loser", func(t *testing.T) {
		sum, results, stats := byHand(t, true, func(a, b *wire, _ net.Conn, recorded <-chan int, answer func(*wire, int)) {
			answer(b, 2)
			holds(t, firstChunk(t, b), 0) // the speculative duplicate
			answer(b, 0)
			if <-recorded != 2 || <-recorded != 0 {
				t.Fatal("the observer did not see task 2 and then task 0")
			}
			holds(t, firstChunk(t, b), 1)
			answer(a, 0) // the loser, once the winner is recorded
			answer(a, 1)
		})
		if stats.SpeculativeDuplicates != 2 || stats.SpeculationWins != 1 {
			t.Errorf("dispatch statistics %+v, want two duplicates of which one won", stats)
		}
		want := make([]float64, len(sum.dense))
		want[13], want[11], want[2] = 1, 1, 100 // B's answers for 2 and 0, A's for 1
		sum.check(t, 3, results, want)
	})

	// A answers task 0 and goes down with task 1, which B is given and answers.
	t.Run("requeue", func(t *testing.T) {
		sum, results, _ := byHand(t, false, func(a, b *wire, connA net.Conn, _ <-chan int, answer func(*wire, int)) {
			answer(a, 0)
			// No more from A, and nothing of what it sent lost to a reset.
			if err := connA.(*net.TCPConn).CloseWrite(); err != nil {
				t.Fatal(err)
			}
			holds(t, firstChunk(t, b), 1) // requeued from the lost worker
			answer(b, 1)
			answer(b, 2)
		})
		want := make([]float64, len(sum.dense))
		want[1], want[12], want[13] = 100, 1, 1
		sum.check(t, 3, results, want)
	})
}

// holds fails unless env is a chunk of exactly the given tasks.
func holds(t *testing.T, env *envelope, want ...int) {
	t.Helper()
	var got []int
	for _, q := range env.Queued {
		got = append(got, q.index)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("a chunk of tasks %v, want %v", got, want)
	}
}
