package cluster_test

import (
	"context"
	"slices"
	"testing"
	"time"

	"github.com/paper-repro/pdsat-go/internal/cluster"
	"github.com/paper-repro/pdsat-go/internal/cnf"
	"github.com/paper-repro/pdsat-go/internal/decomp"
	"github.com/paper-repro/pdsat-go/internal/encoder"
	"github.com/paper-repro/pdsat-go/internal/pdsat"
	"github.com/paper-repro/pdsat-go/internal/solver"
)

// testInstance builds the small weakened A5/1 instance used across the
// runner tests.
func testInstance(t *testing.T) *encoder.Instance {
	t.Helper()
	inst, err := encoder.NewInstance(encoder.A51(), encoder.Config{
		KeystreamLen: 40, KnownSuffix: 44, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func testPoint(t *testing.T, inst *encoder.Instance, n int) decomp.Point {
	t.Helper()
	space := decomp.NewSpace(inst.UnknownStartVars())
	p, err := space.PointFromVars(space.Vars()[:n])
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// startLeader spins up a loopback leader plus one real worker process
// (in-process goroutine running the worker protocol) and waits for the
// registration to complete.
func startLeader(t *testing.T, inst *encoder.Instance, capacity int) *cluster.Leader {
	t.Helper()
	leader, err := cluster.Listen("127.0.0.1:0", inst.CNF, cluster.LeaderOptions{
		Heartbeat: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Cleanups run last-in first-out: close the leader, cancel the worker,
	// then wait for it, so that it never outlives the test.
	served := make(chan struct{})
	t.Cleanup(func() { <-served })
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	t.Cleanup(func() { leader.Close() })
	go func() {
		defer close(served)
		// Serve returns nil when the leader closes the worker down.
		_ = cluster.Serve(ctx, leader.Addr().String(), cluster.WorkerOptions{
			Capacity: capacity, Name: "test-worker",
		})
	}()
	waitCtx, waitCancel := context.WithTimeout(ctx, 10*time.Second)
	defer waitCancel()
	if err := leader.WaitForWorkers(waitCtx, 1); err != nil {
		t.Fatalf("worker did not register: %v", err)
	}
	return leader
}

// TestNetEstimateBitIdenticalToInproc is the acceptance regression for the
// network transport: a fixed-seed EvaluatePoint routed through a loopback
// TCP worker must be bit-for-bit identical to the in-process estimate —
// same sample costs, same F value, same absorbed conflict activity, same
// aggregate statistics — because every subproblem is solved from a pristine
// solver state regardless of which worker (goroutine or remote machine)
// processed it.
func TestNetEstimateBitIdenticalToInproc(t *testing.T) {
	inst := testInstance(t)
	p := testPoint(t, inst, 8)
	cfg := pdsat.Config{SampleSize: 24, Workers: 3, Seed: 7, CostMetric: solver.CostPropagations}

	local := pdsat.NewRunner(inst.CNF, cfg)

	leader := startLeader(t, inst, 3)
	netCfg := cfg
	netCfg.Transport = leader
	remote := pdsat.NewRunner(inst.CNF, netCfg)

	// Two evaluations back to back: the second exercises batch reuse of the
	// same worker connection (and of its pooled solvers).
	for round := 0; round < 2; round++ {
		le, err := local.EvaluatePoint(context.Background(), p)
		if err != nil {
			t.Fatalf("round %d: inproc: %v", round, err)
		}
		re, err := remote.EvaluatePoint(context.Background(), p)
		if err != nil {
			t.Fatalf("round %d: net: %v", round, err)
		}
		if le.Estimate.Value != re.Estimate.Value {
			t.Fatalf("round %d: F differs: inproc %v, net %v", round, le.Estimate.Value, re.Estimate.Value)
		}
		lv, rv := le.Sample.Values(), re.Sample.Values()
		if len(lv) != len(rv) {
			t.Fatalf("round %d: sample sizes differ: %d vs %d", round, len(lv), len(rv))
		}
		for i := range lv {
			if lv[i] != rv[i] {
				t.Fatalf("round %d: sample %d differs: inproc %v, net %v", round, i, lv[i], rv[i])
			}
		}
		if le.SatisfiableSamples != re.SatisfiableSamples {
			t.Fatalf("round %d: SAT counts differ: %d vs %d", round, le.SatisfiableSamples, re.SatisfiableSamples)
		}
	}

	if l, r := local.SubproblemsSolved(), remote.SubproblemsSolved(); l != r {
		t.Fatalf("subproblem counts differ: inproc %d, net %d", l, r)
	}
	la, ra := local.AggregateStats(), remote.AggregateStats()
	la.SolveTime, ra.SolveTime = 0, 0 // wall time legitimately differs
	if la != ra {
		t.Fatalf("aggregate stats differ:\ninproc %+v\nnet    %+v", la, ra)
	}
	for v := 1; v <= inst.CNF.NumVars; v++ {
		if l, r := local.VarActivity(cnf.Var(v)), remote.VarActivity(cnf.Var(v)); l != r {
			t.Fatalf("conflict activity of variable %d differs: inproc %v, net %v", v, l, r)
		}
	}
}

// TestNetSolveStopOnSat exercises the leader→worker interrupt broadcast:
// processing a decomposition family over the network with StopOnSat must
// find the planted key and terminate (cancelling the in-flight subproblems
// instead of waiting for the whole family).
func TestNetSolveStopOnSat(t *testing.T) {
	inst := testInstance(t)
	p := testPoint(t, inst, 10)
	leader := startLeader(t, inst, 2)
	cfg := pdsat.Config{SampleSize: 4, Seed: 1, Transport: leader}
	r := pdsat.NewRunner(inst.CNF, cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	report, err := r.Solve(ctx, p, pdsat.SolveOptions{StopOnSat: true})
	if err != nil {
		t.Fatal(err)
	}
	if !report.FoundSat {
		t.Fatal("expected a satisfiable subproblem (the planted secret)")
	}
	if ok, err := inst.CheckRecoveredState(encoder.A51(), report.Model); err != nil || !ok {
		t.Fatalf("recovered state does not reproduce the keystream (ok=%v, err=%v)", ok, err)
	}
}

// TestNetRunnerInterruptPartialEstimate checks the Ctrl-C semantics end to
// end over the network: cancelling mid-evaluation returns a partial
// estimate plus the context error.
func TestNetRunnerInterruptPartialEstimate(t *testing.T) {
	inst := testInstance(t)
	p := testPoint(t, inst, 8)
	leader := startLeader(t, inst, 2)
	cfg := pdsat.Config{SampleSize: 64, Seed: 5, Transport: leader, CostMetric: solver.CostPropagations}
	r := pdsat.NewRunner(inst.CNF, cfg)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	est, err := r.EvaluatePoint(ctx, p)
	if err == nil {
		// The whole sample finished before the cancel landed; nothing to
		// assert beyond a complete estimate.
		if est == nil || est.Interrupted {
			t.Fatal("uninterrupted evaluation must return a complete estimate")
		}
		return
	}
	if est == nil {
		t.Skip("cancelled before any subproblem completed")
	}
	if !est.Interrupted {
		t.Fatal("partial estimate must be marked Interrupted")
	}
	if n := len(est.Sample.Values()); n == 0 || n > 64 {
		t.Fatalf("partial sample has %d values, want 1..64", n)
	}
}

// TestTaskResultActivityIsSparseDense checks the sparse conflict activities
// a TaskResult lends its observer against the harvests of a reference
// solver, for both backends and both reuse modes: in a pristine batch every
// result holds exactly what a solver Reset before the task harvests after it;
// in a retain batch (one worker, so the order is fixed) what a single solver
// that runs the tasks in order harvests after each — its contribution, not
// the running total.  Both backends are held to the one reference, entries
// and order, so an in-process batch and the same batch over loopback lend
// identical vectors, index for index.
func TestTaskResultActivityIsSparseDense(t *testing.T) {
	inst := testInstance(t)
	vars := inst.UnknownStartVars()[:6]
	tasks := make([]cluster.Task, 12)
	for i := range tasks {
		tasks[i].Index = i
		for j, v := range vars {
			tasks[i].Assumptions = append(tasks[i].Assumptions, cnf.NewLit(v, (i*7>>j)&1 == 0))
		}
	}
	reference := func(retain bool) []solver.SparseActivities {
		want := make([]solver.SparseActivities, len(tasks))
		s := solver.New(inst.CNF, solver.DefaultOptions())
		for i, tk := range tasks {
			if !retain {
				s.Reset()
			}
			s.SolveWithAssumptions(tk.Assumptions)
			want[i] = s.AppendConflictActivities(solver.SparseActivities{})
		}
		return want
	}
	// A fresh transport per case: a retain batch continues from whatever
	// its pooled solver did before, and the reference starts from New.
	transports := []struct {
		name string
		new  func() cluster.ObservedTransport
	}{
		{"inproc", func() cluster.ObservedTransport { return cluster.NewInproc(inst.CNF, 1, solver.DefaultOptions()) }},
		{"tcp", func() cluster.ObservedTransport { return startLeader(t, inst, 1) }},
	}
	for _, retain := range []bool{false, true} {
		want := reference(retain)
		for _, tr := range transports {
			got := make([]solver.SparseActivities, len(tasks))
			bumped, observed := 0, 0
			_, err := tr.new().RunObserved(context.Background(), tasks, cluster.BatchOptions{Retain: retain, CostMetric: solver.CostConflicts}, func(res cluster.TaskResult) {
				observed++
				got[res.Index] = res.Activity.Clone()
				bumped += len(res.Activity.Vars)
			})
			if err != nil {
				t.Fatalf("%s retain=%v: %v", tr.name, retain, err)
			}
			if observed != len(tasks) || bumped == 0 {
				t.Fatalf("%s retain=%v: %d of %d results observed, %d activity entries; the test compares nothing", tr.name, retain, observed, len(tasks), bumped)
			}
			for i, w := range want {
				if !slices.Equal(got[i].Vars, w.Vars) || !slices.Equal(got[i].Acts, w.Acts) {
					t.Errorf("%s retain=%v task %d: activity %+v, reference harvest %+v", tr.name, retain, i, got[i], w)
				}
			}
		}
	}
}
