package cluster

import (
	"context"
	"slices"
	"testing"
	"time"

	"github.com/paper-repro/pdsat-go/internal/solver"
)

// hoardingWorker registers with a large capacity, swallows every task it is
// handed, answers pings, and reacts to the leader's steal revoke in one of
// two ways: ack the revoke (giving back the requested tail of its queue) and
// then die, or die without acking.  Both orders must leave every task solved
// exactly once — the acked tasks requeue through handleRevoked, everything
// still in the dead worker's custody requeues through dropWorker, and
// nothing requeues through both.
func hoardingWorker(t *testing.T, addr string, capacity, expect int, ackSteal bool, gotTasks chan<- int) {
	reported := false
	defer func() {
		if !reported {
			close(gotTasks)
		}
	}()
	w := dialWorker(t, addr, "hoarder", capacity)
	if w == nil {
		return
	}
	defer w.close()
	var held []int
	for {
		env, err := nextFrame(w, 10*time.Second)
		if err != nil {
			t.Errorf("hoarding worker read: %v", err)
			return
		}
		switch env.Kind {
		case kindTasks:
			for _, task := range env.Queued {
				held = append(held, task.index)
			}
			// The adaptive assignment fills execution slots and queue depth
			// as separate chunks, so wait until the whole batch arrived.
			if !reported && len(held) >= expect {
				reported = true
				gotTasks <- len(held)
				close(gotTasks)
			}
		case kindRevoke:
			if !ackSteal {
				return // die mid-steal, before the acknowledgement
			}
			n := env.Count
			if n > len(held) {
				n = len(held)
			}
			idxs := append([]int(nil), held[len(held)-n:]...)
			if err := w.send(&envelope{Kind: kindRevoked, Batch: env.Batch, Indices: idxs}); err != nil {
				t.Errorf("hoarding worker revoke ack: %v", err)
			}
			return // die right after the acknowledgement
		}
	}
}

// runStealRequeueScenario drives the shared exactly-once custody scenario:
// a hoarding worker takes the whole batch, a real worker joins and triggers
// a steal, and the hoarder dies (before or after acking the revoke,
// depending on ackSteal).  Every task must come back solved exactly once and
// bit-identical to the in-process transport.
func runStealRequeueScenario(t *testing.T, ackSteal bool) DispatchStats {
	t.Helper()
	f := requeueFormula()
	leader, err := Listen("127.0.0.1:0", f, LeaderOptions{
		Heartbeat: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	addr := leader.Addr().String()

	// The hoarder registers alone with capacity 8 (dispatch depth 16), so
	// the initial assignment hands it the entire 16-task batch.
	gotTasks := make(chan int, 1)
	go hoardingWorker(t, addr, 8, 16, ackSteal, gotTasks)
	waitCtx, waitCancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer waitCancel()
	if err := leader.WaitForWorkers(waitCtx, 1); err != nil {
		t.Fatalf("hoarder did not register: %v", err)
	}

	tasks := requeueTasks(16)
	opts := BatchOptions{CostMetric: solver.CostPropagations, Steal: true}
	runCtx, runCancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer runCancel()
	done := inBackground(runCtx, leader, tasks, opts, nil, nil)

	// Wait until the hoarder holds the whole batch, then bring up the real
	// worker: the pending queue is dry, so the leader plans a steal against
	// the hoarder, and the hoarder's scripted death follows.
	if n, ok := <-gotTasks; ok && n != len(tasks) {
		t.Fatalf("hoarder received %d tasks, want the whole batch of %d", n, len(tasks))
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		_ = Serve(ctx, addr, WorkerOptions{Capacity: 2, Name: "survivor"})
	}()

	out := <-done
	if out.err != nil {
		t.Fatalf("RunDispatch after steal/death: %v", out.err)
	}
	// Every task solved once, none lost in the steal/death window; custody
	// churn must not change results: pristine per-task resets make the
	// outcome worker-independent, so the run matches in-process exactly.
	checkAgainstInproc(t, tasks, opts, out.results)
	return out.stats
}

// TestStealAckThenWorkerDeathRequeuesExactlyOnce covers the acked-revoke
// side of the custody invariant: the hoarder gives back the stolen tail and
// dies immediately after, so the stolen tasks requeue through the
// acknowledgement and the rest through worker loss — each exactly once.
func TestStealAckThenWorkerDeathRequeuesExactlyOnce(t *testing.T) {
	stats := runStealRequeueScenario(t, true)
	if stats.TasksStolen == 0 {
		t.Fatal("no task was stolen despite a backlogged hoarder and an idle worker")
	}
	if stats.SpeculativeDuplicates != 0 || stats.SpeculationWins != 0 {
		t.Fatalf("speculation ran in a steal-only batch: %+v", stats)
	}
}

// TestStealVictimDiesBeforeAckRequeuesExactlyOnce covers the other side:
// the victim dies with the revoke un-acked, so custody of every task it
// held — including the ones the leader asked back — transfers through
// dropWorker alone.  Nothing is stolen (the ack never landed) and nothing
// is solved twice.
func TestStealVictimDiesBeforeAckRequeuesExactlyOnce(t *testing.T) {
	stats := runStealRequeueScenario(t, false)
	if stats.TasksStolen != 0 {
		t.Fatalf("%d task(s) counted as stolen although the revoke was never acked", stats.TasksStolen)
	}
}

// TestStealAsksForHalfTheBacklog drives a steal with two scripted one-slot
// workers.  The first holds a whole batch of ten, one task running and nine
// queued; when the second registers, drained, the leader's first revoke asks
// the first for ⌈9/2⌉ = 5 of them, and every task given back goes to the
// drained worker in one frame.
func TestStealAsksForHalfTheBacklog(t *testing.T) {
	leader, err := Listen("127.0.0.1:0", requeueFormula(), LeaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	addr := leader.Addr().String()
	victimConn, victim := register(t, addr, "victim", 1)
	defer victimConn.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	tasks := requeueTasks(10)
	done := inBackground(ctx, leader, tasks, BatchOptions{CostMetric: solver.CostPropagations, Steal: true}, nil, nil)

	var held []int
	for _, task := range firstChunk(t, victim).Queued {
		held = append(held, task.index)
	}
	if len(held) != len(tasks) {
		t.Fatalf("the only worker was sent %d tasks of %d", len(held), len(tasks))
	}
	thiefConn, thief := register(t, addr, "thief", 1)
	defer thiefConn.Close()
	env, err := nextFrame(victim, 10*time.Second)
	if err != nil || env.Kind != kindRevoke || env.Discard {
		t.Fatalf("the victim read %+v, %v, want a stealing revoke", env, err)
	}
	if backlog := len(held) - 1; env.Count != (backlog+1)/2 {
		t.Fatalf("the first revoke asks for %d of a backlog of %d, want %d", env.Count, backlog, (backlog+1)/2)
	}
	given := held[len(held)-env.Count:]
	if err := victim.send(&envelope{Kind: kindRevoked, Batch: env.Batch, Indices: given}); err != nil {
		t.Fatal(err)
	}
	var got []int
	for _, task := range firstChunk(t, thief).Queued {
		got = append(got, task.index)
	}
	if !slices.Equal(got, given) {
		t.Fatalf("the drained worker was sent tasks %v, want the %v given back", got, given)
	}

	cancel()
	victimConn.Close()
	thiefConn.Close()
	if out := <-done; out.stats.TasksStolen != len(given) {
		t.Fatalf("%d tasks counted as stolen, want %d", out.stats.TasksStolen, len(given))
	}
}

// TestSpeculationOvertakesStraggler is the fault-injection test of the
// adaptive dispatch pipeline on real workers: one worker's execution is
// stalled by an injected per-task delay far longer than the test budget, so
// the batch finishes only if the leader first steals the straggler's queued
// task and then speculatively duplicates its running one onto the healthy
// worker.  The duplicate's result must win, the straggler's copy must be
// discarded, and the results must still be bit-identical to the in-process
// transport.
func TestSpeculationOvertakesStraggler(t *testing.T) {
	f := requeueFormula()
	leader, err := Listen("127.0.0.1:0", f, LeaderOptions{
		Heartbeat: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	addr := leader.Addr().String()

	// The straggler registers first (lowest id, first in assignment order)
	// and sleeps two minutes on every task it starts; the healthy worker
	// does everything else.  The whole test runs under a 90-second deadline,
	// so waiting out even one injected delay fails the test.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		_ = Serve(ctx, addr, WorkerOptions{
			Capacity: 1, Name: "straggler",
			TaskDelay: func(Task) time.Duration { return 2 * time.Minute },
		})
	}()
	waitCtx, waitCancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer waitCancel()
	if err := leader.WaitForWorkers(waitCtx, 1); err != nil {
		t.Fatalf("straggler did not register: %v", err)
	}
	go func() {
		_ = Serve(ctx, addr, WorkerOptions{Capacity: 2, Name: "healthy"})
	}()
	if err := leader.WaitForWorkers(waitCtx, 2); err != nil {
		t.Fatalf("healthy worker did not register: %v", err)
	}

	tasks := requeueTasks(8)
	opts := BatchOptions{CostMetric: solver.CostPropagations, Steal: true, Speculate: true}
	runCtx, runCancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer runCancel()
	results, stats, err := leader.RunDispatch(runCtx, tasks, opts, nil, nil)
	if err != nil {
		t.Fatalf("RunDispatch with a straggler: %v", err)
	}
	// Every task solved once, none stalled behind the straggler.
	// First-result-wins must be invisible in the content: the winning copy
	// solves the same subproblem from the same pristine state.
	checkAgainstInproc(t, tasks, opts, results)
	if stats.SpeculativeDuplicates == 0 {
		t.Fatal("no speculative duplicate was dispatched against the straggler")
	}
	if stats.SpeculationWins == 0 {
		t.Fatal("no speculative duplicate won against the straggler")
	}
	if stats.SpeculationWins > stats.SpeculativeDuplicates {
		t.Fatalf("more wins than duplicates: %+v", stats)
	}
}
