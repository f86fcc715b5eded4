package cluster

import (
	"context"
	"math"
	"net"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/paper-repro/pdsat-go/internal/cnf"
	"github.com/paper-repro/pdsat-go/internal/solver"
)

// requeueFormula builds a small formula with enough search effort per
// subproblem to keep tasks in flight: a chain of equivalences plus a few
// xor-ish clauses.
func requeueFormula() *cnf.Formula {
	f := cnf.New(24)
	for v := 1; v < 24; v++ {
		a, b := cnf.Var(v), cnf.Var(v+1)
		f.AddClauseLits(cnf.NewLit(a, false), cnf.NewLit(b, true))
		f.AddClauseLits(cnf.NewLit(a, true), cnf.NewLit(b, false))
	}
	f.AddClauseLits(cnf.NewLit(1, true), cnf.NewLit(12, true), cnf.NewLit(24, true))
	return f
}

// requeueTasks makes one task per assignment of variables 1..2 plus extras,
// all indices 0..n-1.
func requeueTasks(n int) []Task {
	tasks := make([]Task, n)
	for i := range tasks {
		v1 := cnf.NewLit(1, i%2 == 0)
		v2 := cnf.NewLit(2, (i/2)%2 == 0)
		tasks[i] = Task{Index: i, Assumptions: []cnf.Lit{v1, v2}}
	}
	return tasks
}

// fakeWorker speaks just enough of the wire protocol to register, receive a
// chunk of tasks, and then vanish without answering — the worker-loss
// scenario the leader must absorb by requeuing.
func fakeWorker(t *testing.T, addr string, capacity int, gotTasks chan<- int) {
	defer close(gotTasks)
	w := dialWorker(t, addr, "fake", capacity)
	if w == nil {
		return
	}
	defer w.close()
	for {
		env, err := nextFrame(w, 10*time.Second)
		if err != nil {
			t.Errorf("fake worker waiting for tasks: %v", err)
			return
		}
		if env.Kind == kindTasks {
			// Took a chunk, now die without answering.
			gotTasks <- len(env.Queued)
			return
		}
	}
}

// TestWorkerDisconnectRequeues kills a worker that has accepted tasks and
// checks that the leader requeues them onto a later-joining worker: the
// batch still completes with every task actually solved (no cancelled
// placeholders), the results match the in-process transport exactly, and the
// caller's tasks, which the leader queues in place, are as they were.
func TestWorkerDisconnectRequeues(t *testing.T) {
	f := requeueFormula()
	leader, err := Listen("127.0.0.1:0", f, LeaderOptions{
		Heartbeat: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	addr := leader.Addr().String()

	// The doomed worker registers first and receives the initial chunk.
	gotTasks := make(chan int, 1)
	go fakeWorker(t, addr, 4, gotTasks)
	waitCtx, waitCancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer waitCancel()
	if err := leader.WaitForWorkers(waitCtx, 1); err != nil {
		t.Fatalf("fake worker did not register: %v", err)
	}

	// The batch is the front of a longer array, whose tail a requeue appending
	// in place would overwrite; the caller's tasks must come back as they went.
	all := requeueTasks(32)
	tasks := all[:16]
	sent := make([]Task, len(all))
	for i, task := range all {
		sent[i] = Task{Index: task.Index, Assumptions: slices.Clone(task.Assumptions)}
	}
	opts := BatchOptions{CostMetric: solver.CostPropagations}
	runCtx, runCancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer runCancel()
	done := inBackground(runCtx, leader, tasks, opts, nil, nil)

	// Wait until the fake worker has actually been handed tasks and died.
	n, ok := <-gotTasks
	if ok && n == 0 {
		t.Fatal("fake worker received an empty chunk")
	}

	// Now bring up a real worker; the leader must requeue the lost chunk
	// onto it.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		_ = Serve(ctx, addr, WorkerOptions{Capacity: 2, Name: "survivor"})
	}()

	out := <-done
	if out.err != nil {
		t.Fatalf("Run after worker loss: %v", out.err)
	}
	for i, task := range all {
		if task.Index != sent[i].Index || !slices.Equal(task.Assumptions, sent[i].Assumptions) {
			t.Fatalf("the caller's task %d is %+v after the batch, it was %+v", i, task, sent[i])
		}
	}
	// Every task solved once, none lost instead of requeued, and the requeued
	// run bit-identical to the in-process transport.
	checkAgainstInproc(t, tasks, opts, out.results)
}

// TestBatchIndexValidation checks the shared index contract.
func TestBatchIndexValidation(t *testing.T) {
	f := requeueFormula()
	tr := NewInproc(f, 1, solver.DefaultOptions())
	_, err := tr.Run(context.Background(), []Task{{Index: 1}}, BatchOptions{})
	if err == nil {
		t.Fatal("expected an error for an out-of-range task index")
	}
	_, err = tr.Run(context.Background(), []Task{{Index: 0}, {Index: 0}}, BatchOptions{})
	if err == nil {
		t.Fatal("expected an error for duplicate task indices")
	}
}

// TestBatchRejectsZeroLiteral: an assumption is a literal of the transport's
// formula.  0 is none — the solver would index its value array with it in a
// worker goroutine, which takes the process down — and a variable the formula
// does not have used to make the backends disagree: an in-process solver grew
// to it silently, and every network worker refused the frame, was dropped and
// requeued onto, redialled and refused it again, for ever.  Both backends
// return the same error before they dispatch anything; the leader's worker
// never hears of the batch, stays registered and serves the next one.
func TestBatchRejectsZeroLiteral(t *testing.T) {
	f := requeueFormula()
	var lost atomic.Int32
	leader, err := Listen("127.0.0.1:0", f, LeaderOptions{
		OnEvent: func(ev ClusterEvent) {
			if ev.Kind == WorkerLost {
				lost.Add(1)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = Serve(ctx, leader.Addr().String(), WorkerOptions{Capacity: 2, Name: "bystander"})
	}()
	defer func() { // the worker must not outlive the test
		leader.Close()
		<-served
	}()
	if err := leader.WaitForWorkers(ctx, 1); err != nil {
		t.Fatalf("worker did not register: %v", err)
	}
	inproc := NewInproc(f, 2, solver.DefaultOptions())

	for name, bad := range map[string]cnf.Lit{
		"the zero literal":              0,
		"a variable beyond the formula": cnf.Lit(f.NumVars + 1),
		"its negation":                  -cnf.Lit(f.NumVars + 1),
		"the least int":                 math.MinInt,
	} {
		tasks := requeueTasks(4)
		tasks[2].Assumptions = []cnf.Lit{3, bad, -5}
		var errs [2]string
		for i, tr := range []Transport{inproc, leader} {
			res, err := tr.Run(ctx, tasks, BatchOptions{})
			if err == nil || res != nil || !strings.Contains(err.Error(), "task 2 assumes literal "+bad.String()) ||
				!strings.Contains(err.Error(), "the formula has 24 variables") {
				t.Errorf("%s, backend %d: Run returned %d results and %v, want an error naming task, literal and the formula's variable count",
					name, i, len(res), err)
				continue
			}
			errs[i] = err.Error()
		}
		if errs[0] != errs[1] {
			t.Errorf("%s: the backends disagree: in process %q, leader %q", name, errs[0], errs[1])
		}
	}
	if got := lost.Load(); got != 0 || leader.WorkerCount() != 1 {
		t.Fatalf("%d workers lost, %d registered; want the one worker untouched by refused batches", got, leader.WorkerCount())
	}
	// The largest variable is the formula's, and both backends serve it.
	tasks := requeueTasks(4)
	tasks[2].Assumptions = []cnf.Lit{3, -cnf.Lit(f.NumVars)}
	for i, tr := range []Transport{inproc, leader} {
		res, err := tr.Run(ctx, tasks, BatchOptions{})
		if err != nil || len(res) != len(tasks) {
			t.Fatalf("backend %d after the refused batches: %d results and %v, want %d and nil", i, len(res), err, len(tasks))
		}
	}
}

// abortingWorker speaks the wire protocol far enough to register, take a
// chunk of tasks and then hold them silently (answering pings) until it is
// told to die.  It reports the abort notification it receives, so the test
// can order "leader aborted the batch" strictly before "worker vanished".
func abortingWorker(t *testing.T, addr string, capacity int, gotTasks chan<- int, sawAbort chan<- uint64, die <-chan struct{}) {
	w := dialWorker(t, addr, "holder", capacity)
	if w == nil {
		close(gotTasks)
		return
	}
	defer w.close()
	reported := false
	for {
		select {
		case <-die:
			return // vanish without answering anything
		default:
		}
		// Not nextFrame: the die channel is polled between any two frames.
		env, err := w.recv(500 * time.Millisecond)
		if err != nil {
			continue // read timeout: poll the die channel again
		}
		switch env.Kind {
		case kindPing:
			w.send(&envelope{Kind: kindPong})
		case kindTasks:
			if !reported {
				reported = true
				gotTasks <- len(env.Queued)
				close(gotTasks)
			}
		case kindInterrupt:
			sawAbort <- env.Batch
		}
	}
}

// TestAbortedBatchWorkerLossDoesNotResurrectTasks is the non-blocking
// batch-abort requeue test: when a worker holding an aborted batch's tasks
// is lost, the leader must *not* requeue those tasks onto the remaining
// workers — the abort already converted the batch's outcome to
// placeholders, and resurrecting the tasks would solve subproblems the
// evaluation engine has proven worthless.
func TestAbortedBatchWorkerLossDoesNotResurrectTasks(t *testing.T) {
	f := requeueFormula()
	type lost struct {
		name     string
		requeued int
	}
	lostCh := make(chan lost, 4)
	leader, err := Listen("127.0.0.1:0", f, LeaderOptions{
		Heartbeat: 100 * time.Millisecond,
		OnEvent: func(ev ClusterEvent) {
			if ev.Kind == WorkerLost {
				lostCh <- lost{ev.Worker, ev.Count}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	addr := leader.Addr().String()

	// The holder registers with enough slots to be handed every task (the
	// leader fills free slots in registration order before it queues
	// anything), takes the batch and sits on it.
	gotTasks := make(chan int, 1)
	sawAbort := make(chan uint64, 1)
	die := make(chan struct{})
	go abortingWorker(t, addr, 16, gotTasks, sawAbort, die)
	waitCtx, waitCancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer waitCancel()
	if err := leader.WaitForWorkers(waitCtx, 1); err != nil {
		t.Fatalf("holder did not register: %v", err)
	}

	// A survivor with spare capacity is present the whole time: if the
	// leader wrongly requeued the aborted tasks, it would solve them.
	survivorCtx, survivorCancel := context.WithCancel(context.Background())
	defer survivorCancel()
	go func() {
		_ = Serve(survivorCtx, addr, WorkerOptions{Capacity: 2, Name: "survivor"})
	}()
	if err := leader.WaitForWorkers(waitCtx, 2); err != nil {
		t.Fatalf("survivor did not register: %v", err)
	}

	tasks := requeueTasks(16)
	abort := make(chan struct{})
	runCtx, runCancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer runCancel()
	done := inBackground(runCtx, leader, tasks, BatchOptions{CostMetric: solver.CostPropagations}, nil, abort)

	// Wait for the holder to own tasks, then abort the batch and wait for
	// the abort to reach the holder before killing it, so the worker loss
	// strictly follows the abort.
	if n, ok := <-gotTasks; ok && n == 0 {
		t.Fatal("holder received an empty chunk")
	}
	close(abort)
	select {
	case <-sawAbort:
	case <-time.After(10 * time.Second):
		t.Fatal("holder never received the batch abort")
	}
	close(die)

	out := <-done
	if out.err != nil {
		t.Fatalf("aborted Run returned error: %v", out.err)
	}
	if len(out.results) != len(tasks) {
		t.Fatalf("got %d results for %d tasks", len(out.results), len(tasks))
	}
	solved := 0
	seen := make([]bool, len(tasks))
	for _, res := range out.results {
		if seen[res.Index] {
			t.Fatalf("duplicate result for task %d", res.Index)
		}
		seen[res.Index] = true
		if res.Started && !res.Cancelled {
			solved++
		}
	}
	// The holder answered nothing and its loss happened after the abort:
	// every one of its tasks must come back as a placeholder or truncated
	// result, none solved by the survivor.
	if solved != 0 {
		t.Fatalf("%d task(s) of the aborted batch were resurrected and solved", solved)
	}
	// The holder's loss must have requeued nothing.
	deadline := time.After(10 * time.Second)
	for {
		select {
		case l := <-lostCh:
			if l.name == "holder" {
				if l.requeued != 0 {
					t.Fatalf("worker loss during the aborted batch requeued %d task(s)", l.requeued)
				}
				return
			}
		case <-deadline:
			t.Fatal("leader never reported the holder as lost")
		}
	}
}

// TestInprocAbort checks the in-process batch abort: a pre-fired abort
// channel yields one result per task with a nil error (a planned outcome,
// not a cancellation), nothing solved to completion, and leaves the
// transport and its solver pool fully usable for the next batch.
func TestInprocAbort(t *testing.T) {
	f := requeueFormula()
	tr := NewInproc(f, 2, solver.DefaultOptions())
	tasks := requeueTasks(8)

	abort := make(chan struct{})
	close(abort)
	results, err := tr.RunAbortable(context.Background(), tasks, BatchOptions{CostMetric: solver.CostPropagations}, nil, abort)
	if err != nil {
		t.Fatalf("aborted batch returned error: %v", err)
	}
	if len(results) != len(tasks) {
		t.Fatalf("got %d results for %d tasks", len(results), len(tasks))
	}
	for _, res := range results {
		if res.Started && !res.Cancelled {
			t.Fatalf("task %d was solved to completion despite the abort", res.Index)
		}
	}

	// The transport must still run normal batches, bit-identical to a
	// fresh one.
	checkMatchesFreshTransport(t, tr, tasks)
}

// TestInprocAbortMidBatch aborts from the observe callback after half the
// results arrived: the collected prefix must be real solves and the batch
// must still account for every task.
func TestInprocAbortMidBatch(t *testing.T) {
	f := requeueFormula()
	tr := NewInproc(f, 2, solver.DefaultOptions())
	tasks := requeueTasks(16)

	abort := make(chan struct{})
	collected := 0
	results, err := tr.RunAbortable(context.Background(), tasks, BatchOptions{CostMetric: solver.CostPropagations},
		func(res TaskResult) {
			collected++
			if collected == 4 {
				close(abort)
			}
		}, abort)
	if err != nil {
		t.Fatalf("aborted batch returned error: %v", err)
	}
	if len(results) != len(tasks) {
		t.Fatalf("got %d results for %d tasks", len(results), len(tasks))
	}
	full := 0
	for _, res := range results {
		if res.Started && !res.Cancelled {
			full++
		}
	}
	if full == 0 {
		t.Fatal("no task finished before the abort")
	}
	if full == len(tasks) {
		t.Fatal("abort did not cut the batch short")
	}
}

// TestLeaderCloseWaitsForItsGoroutines: Close returns only after the accept
// loop, every connection goroutine — registered or still in the handshake —
// and every pinger have exited, so no LeaderOptions callback runs once the
// caller has moved on (one used to fire into finished tests).
func TestLeaderCloseWaitsForItsGoroutines(t *testing.T) {
	baseline := leaderGoroutines()
	var closed atomic.Bool
	var late atomic.Int32
	note := func() {
		if closed.Load() {
			late.Add(1)
		}
	}
	leader, err := Listen("127.0.0.1:0", requeueFormula(), LeaderOptions{
		Heartbeat: 10 * time.Millisecond,
		OnEvent:   func(ClusterEvent) { note() },
	})
	if err != nil {
		t.Fatal(err)
	}
	addr := leader.Addr().String()
	// Two registered workers that never answer anything (the leader runs a
	// connection goroutine and a pinger for each) and one connection that
	// never says hello.  None of them runs a goroutine on this side.
	for range 2 {
		conn, _ := register(t, addr, "mute", 1)
		defer conn.Close()
	}
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// The accept loop, three connection goroutines, two pingers.
	for deadline := time.Now().Add(10 * time.Second); leaderGoroutines() != baseline+6; {
		if time.Now().After(deadline) {
			t.Fatalf("%d leader goroutines over a baseline of %d, want 6 more", leaderGoroutines(), baseline)
		}
		time.Sleep(time.Millisecond)
	}

	if err := leader.Close(); err != nil {
		t.Fatal(err)
	}
	closed.Store(true)
	// A goroutine that has announced its exit may still be on its way out.
	for deadline := time.Now().Add(5 * time.Second); leaderGoroutines() > baseline; {
		if time.Now().After(deadline) {
			t.Fatalf("%d leader goroutines after Close, baseline %d", leaderGoroutines(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // five heartbeats
	if n := late.Load(); n != 0 {
		t.Fatalf("%d callback(s) fired after Close returned", n)
	}
}
