package pdsat_test

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/paper-repro/pdsat-go/internal/cluster"
	"github.com/paper-repro/pdsat-go/pdsat"
)

// TestFleetSurvivesWorkerLoss kills a TCP worker in the middle of a running
// fleet and checks the race still terminates with consistent accounting:
// every member produces a result, the leader requeues the lost worker's
// in-flight subproblems (so nothing is lost and nothing double-counted —
// solved+aborted exactly matches evaluations × sample size), a worker_lost
// WorkerEvent carrying the requeued count reaches the fleet job's stream, and the per-member best values are
// bit-identical to the same fixed-seed fleet run entirely in-process.
func TestFleetSurvivesWorkerLoss(t *testing.T) {
	inst := testInstance(t, 46, 40, 3)
	const sample = 10
	spec := pdsat.FleetJob{
		Members: []pdsat.FleetMemberSpec{
			{Method: "tabu", Count: 2},
			{Method: "sa"},
		},
		Seed:           7,
		MaxEvaluations: 12,
	}

	// Reference run: the same fixed-seed fleet on the in-process transport.
	refSession, err := pdsat.NewSession(pdsat.FromInstance(inst), fleetTestConfig(sample, nil))
	if err != nil {
		t.Fatal(err)
	}
	want := mustRun(t, refSession, spec).Fleet
	refSession.Close()

	// Cluster run: a leader with two remote workers, one of which dies
	// mid-fleet.  Worker churn is forwarded into the session's job streams
	// once the session exists, like cmd/pdsat -listen does.  requeued is
	// the count of the doomed worker's tasks the leader reports requeueing.
	var sessionRef atomic.Pointer[pdsat.Session]
	requeued := make(chan int, 1)
	leader, err := cluster.Listen("127.0.0.1:0", inst.CNF, cluster.LeaderOptions{
		Heartbeat: 100 * time.Millisecond,
		OnEvent: func(ev pdsat.ClusterEvent) {
			if ev.Kind == cluster.WorkerLost && ev.Worker == "doomed" {
				requeued <- ev.Count
			}
			if s := sessionRef.Load(); s != nil {
				s.PublishClusterEvent(ev)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	addr := leader.Addr().String()

	// Cleanups run last-in first-out: close the leader, cancel the workers,
	// then wait for them, so that none outlives the test.
	var workers sync.WaitGroup
	t.Cleanup(workers.Wait)
	doomedCtx, killDoomed := context.WithCancel(context.Background())
	t.Cleanup(killDoomed)
	survivorCtx, stopSurvivor := context.WithCancel(context.Background())
	t.Cleanup(stopSurvivor)
	t.Cleanup(func() { leader.Close() })
	workers.Add(2)
	go func() {
		defer workers.Done()
		_ = cluster.Serve(doomedCtx, addr, cluster.WorkerOptions{Capacity: 2, Name: "doomed"})
	}()
	go func() {
		defer workers.Done()
		_ = cluster.Serve(survivorCtx, addr, cluster.WorkerOptions{Capacity: 2, Name: "survivor"})
	}()
	waitCtx, waitCancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer waitCancel()
	if err := leader.WaitForWorkers(waitCtx, 2); err != nil {
		t.Fatal(err)
	}

	cfg := fleetTestConfig(sample, nil)
	cfg.Runner.Transport = leader
	session, err := pdsat.NewSession(pdsat.FromInstance(inst), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer session.Close()
	sessionRef.Store(session)

	j, err := session.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}

	// Kill the doomed worker once the fleet has real work in flight.
	sawLost := make(chan pdsat.WorkerEvent, 1)
	go func() {
		progressed := 0
		for e := range j.Subscribe(context.Background()) {
			switch ev := e.(type) {
			case pdsat.SampleProgress:
				progressed++
				if progressed == 2*sample {
					killDoomed()
				}
			case pdsat.WorkerEvent:
				if ev.Kind != cluster.WorkerLost {
					break
				}
				select {
				case sawLost <- ev:
				default:
				}
			}
		}
	}()

	select {
	case <-j.Done():
	case <-time.After(180 * time.Second):
		t.Fatal("fleet did not terminate after the worker loss")
	}
	res, err := j.Result(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got := res.Fleet
	if got == nil || len(got.Members) != len(want.Members) {
		t.Fatalf("fleet result malformed after worker loss: %+v", got)
	}
	for i, m := range got.Members {
		if m.Err != "" {
			t.Fatalf("member %d failed after worker loss: %s", i, m.Err)
		}
		if m.Result == nil {
			t.Fatalf("member %d has no result after worker loss", i)
		}
		// Pristine per-subproblem resets make costs worker-independent, so
		// the requeued run must reproduce the in-process fleet exactly.
		sameSearchResult(t, "member-after-loss", m.Result, want.Members[i].Result)
	}
	if got.BestMember != want.BestMember || got.BestValue != want.BestValue {
		t.Fatalf("winner differs after worker loss: %d/%v vs %d/%v",
			got.BestMember, got.BestValue, want.BestMember, want.BestValue)
	}

	select {
	case lost := <-sawLost:
		if n := <-requeued; lost.Worker != "doomed" || lost.Count != n {
			t.Fatalf("lost worker %q with %d tasks requeued, want doomed with the leader's %d", lost.Worker, lost.Count, n)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker_lost event never reached the fleet job's stream")
	}

	// Accounting: with the zero policy every evaluation solves its full
	// sample exactly once — requeued, not lost, not duplicated.
	stats := session.Stats()
	if stats.SubproblemsSolved != stats.Evaluations*sample {
		t.Fatalf("accounting skew after worker loss: %d solved for %d evaluations × %d samples",
			stats.SubproblemsSolved, stats.Evaluations, sample)
	}
	if stats.SubproblemsAborted != 0 {
		t.Fatalf("%d subproblems aborted in an uncancelled zero-policy fleet", stats.SubproblemsAborted)
	}
}
