package pdsat

import (
	"context"
	"math"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/paper-repro/pdsat-go/internal/cluster"
	"github.com/paper-repro/pdsat-go/internal/cnf"
	"github.com/paper-repro/pdsat-go/internal/decomp"
	"github.com/paper-repro/pdsat-go/internal/eval"
	"github.com/paper-repro/pdsat-go/internal/optimize"
	"github.com/paper-repro/pdsat-go/internal/solver"
)

// loopbackCluster starts a leader for the formula and a loopback worker for
// each of workers, registered in that order.
func loopbackCluster(t *testing.T, f *cnf.Formula, workers ...cluster.WorkerOptions) *cluster.Leader {
	t.Helper()
	leader, err := cluster.Listen("127.0.0.1:0", f, cluster.LeaderOptions{
		Heartbeat: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Cleanups run last-in first-out: close the leader, cancel the workers,
	// then wait for them, so that none outlives the test.
	var running sync.WaitGroup
	t.Cleanup(running.Wait)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	t.Cleanup(func() { leader.Close() })
	waitCtx, waitCancel := context.WithTimeout(ctx, 10*time.Second)
	defer waitCancel()
	for i, opts := range workers {
		running.Add(1)
		go func() {
			defer running.Done()
			_ = cluster.Serve(ctx, leader.Addr().String(), opts)
		}()
		if err := leader.WaitForWorkers(waitCtx, i+1); err != nil {
			t.Fatalf("worker %q did not register: %v", opts.Name, err)
		}
	}
	return leader
}

// stragglerCluster starts a leader for the formula with two loopback
// workers: "straggler" (one slot, registered first, so it sits at the head
// of the assignment order) waits stall before every task it starts, and
// "healthy" (two slots) does not.
func stragglerCluster(t *testing.T, f *cnf.Formula, stall time.Duration) *cluster.Leader {
	t.Helper()
	return loopbackCluster(t, f,
		cluster.WorkerOptions{Capacity: 1, Name: "straggler", TaskDelay: func(cluster.Task) time.Duration { return stall }},
		cluster.WorkerOptions{Capacity: 2, Name: "healthy"})
}

// TestReusedBuffersOverLoopback: a runner draws every evaluation into the
// buffers of the ones before, a buffer to each evaluation running at once.
// On a loopback leader with two one-slot workers, under the default policy
// (pruning, stages, stealing and speculation), back-to-back evaluations on
// one runner and then two tabu searches at once on the same runner, each in
// a scope of its own, give the F values and the best sets of the same slots
// evaluated each on a runner of its own, whose buffers are fresh.  The race
// detector watches the buffers change hands.
func TestReusedBuffersOverLoopback(t *testing.T) {
	inst := scopeTestInstance(t)
	space := unknownSpace(inst)
	cfg := evalTestConfig(eval.DefaultPolicy())
	cfg.Transport = loopbackCluster(t, inst.CNF,
		cluster.WorkerOptions{Capacity: 1, Name: "w1"}, cluster.WorkerOptions{Capacity: 1, Name: "w2"})
	const seed = 9
	ctx := context.Background()
	reused := NewRunner(inst.CNF, cfg)
	fresh := freshRunners{f: inst.CNF, cfg: cfg, seed: seed, slots: NewRunner(inst.CNF, cfg)}

	// Back to back, on sets of three sizes.
	sc := reused.NewScope(seed)
	for i, p := range []decomp.Point{space.FullPoint(), space.FullPoint().Flip(1), space.FullPoint().Flip(2).Flip(5), space.FullPoint()} {
		got, err := sc.EvaluateSlotObserved(ctx, p, cfg.Policy, math.Inf(1), -1, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.EvaluateSlot(ctx, p, cfg.Policy, math.Inf(1), i)
		if err != nil {
			t.Fatal(err)
		}
		if got.Value != want.Value || got.Estimate != want.Estimate || got.StagesRun != want.StagesRun {
			t.Fatalf("evaluation %d: %+v on a reused runner, %+v on a fresh one", i, got, want)
		}
	}

	// Two searches at once: two evaluations at a time on the reused runner.
	search := func(o *Objective) (*optimize.Result, error) {
		return optimize.TabuSearch(ctx, o, space.FullPoint(), optimize.Options{Seed: 5, MaxEvaluations: 20})
	}
	var (
		got  [2]*optimize.Result
		errs [2]error
		wg   sync.WaitGroup
	)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = search(NewObjective(reused.NewScope(seed+int64(i)), noActivity{}, cfg.Policy, nil, nil))
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		own := freshRunners{f: inst.CNF, cfg: cfg, seed: seed + int64(i), slots: NewRunner(inst.CNF, cfg)}
		want, err := search(&Objective{Engine: eval.NewEngine(&own, cfg.Policy, nil), ActivitySource: noActivity{}})
		if err != nil {
			t.Fatal(err)
		}
		if got[i].BestValue != want.BestValue || !got[i].BestPoint.Equal(want.BestPoint) {
			t.Fatalf("search %d: best F %v at %v on a reused runner, %v at %v on fresh ones",
				i, got[i].BestValue, got[i].BestPoint.SortedVars(), want.BestValue, want.BestPoint.SortedVars())
		}
	}
	if reused.bufferCount() > 2 {
		t.Fatalf("the runner keeps %d sample buffers after evaluating at most two at a time", reused.bufferCount())
	}
}

// TestPrunedSearchIsTimingIndependent: a pruned evaluation is valued at its
// incumbent and adds no conflict activity, so where its abort lands changes
// nothing a search reads.  On the weakened A5/1 instance at N = 20 under
// DefaultPolicy, a fixed-seed tabu search and annealing of 60 evaluations
// each, both of which prune, give the same result on two in-process workers
// and on a loopback leader with two one-slot workers, twice over: every
// visit, pruned values included, the best value, and the runner's conflict
// activity of every variable.
func TestPrunedSearchIsTimingIndependent(t *testing.T) {
	inst := scopeTestInstance(t)
	start := unknownSpace(inst).FullPoint()
	inproc := Config{SampleSize: 20, Workers: 2, Seed: 5, CostMetric: solver.CostConflicts, Policy: eval.DefaultPolicy()}
	loopback := inproc
	loopback.Transport = loopbackCluster(t, inst.CNF,
		cluster.WorkerOptions{Capacity: 1, Name: "w1"}, cluster.WorkerOptions{Capacity: 1, Name: "w2"})
	type outcome struct {
		res      *optimize.Result
		activity []float64
	}
	for _, m := range []struct {
		name   string
		search func(context.Context, optimize.Objective, decomp.Point, optimize.Options) (*optimize.Result, error)
	}{{"tabu", optimize.TabuSearch}, {"sa", optimize.SimulatedAnnealing}} {
		run := func(cfg Config) outcome {
			r := NewRunner(inst.CNF, cfg)
			res, err := m.search(context.Background(), objectiveOf(r), start, optimize.Options{Seed: 5, MaxEvaluations: 60})
			if err != nil {
				t.Fatal(err)
			}
			out := outcome{res: res}
			res.WallTime = 0
			for v := 0; v <= inst.CNF.NumVars; v++ {
				out.activity = append(out.activity, r.VarActivity(cnf.Var(v)))
			}
			return out
		}
		want := run(inproc)
		pruned := 0
		for _, v := range want.res.Trace {
			if v.Pruned {
				pruned++
			}
		}
		if pruned == 0 {
			t.Fatalf("%s: no evaluation pruned; the test proves nothing", m.name)
		}
		for round := range 2 {
			for _, c := range []struct {
				name string
				cfg  Config
			}{{"in-process", inproc}, {"loopback", loopback}} {
				got := run(c.cfg)
				if reflect.DeepEqual(got, want) {
					continue
				}
				i := 0 // the first visit that differs
				for i < min(len(got.res.Trace), len(want.res.Trace)) && reflect.DeepEqual(got.res.Trace[i], want.res.Trace[i]) {
					i++
				}
				t.Fatalf("%s, round %d %s: differs from the first in-process run from visit %d of %d on (best F %v, want %v; same activity: %v)",
					m.name, round, c.name, i, len(want.res.Trace), got.res.BestValue, want.res.BestValue, slices.Equal(got.activity, want.activity))
			}
		}
		t.Logf("%s: %d of %d visits pruned, best F %v", m.name, pruned, len(want.res.Trace), want.res.BestValue)
	}
}

// freshRunners is an eval.Backend that evaluates every slot of a scope seed
// on a runner of its own, so that no evaluation finds a buffer another one
// drew into; slots draws the slot numbers.
type freshRunners struct {
	f     *cnf.Formula
	cfg   Config
	seed  int64
	slots *Runner
}

func (b *freshRunners) ReserveEvalSlots(n int) int { return b.slots.ReserveEvalSlots(n) }

func (b *freshRunners) EvaluateSlot(ctx context.Context, p decomp.Point, pol eval.Policy, incumbent float64, slot int) (*eval.Evaluation, error) {
	if slot < 0 {
		slot = b.slots.ReserveEvalSlots(1)
	}
	return NewRunner(b.f, b.cfg).NewScope(b.seed).EvaluateSlotObserved(ctx, p, pol, incumbent, slot, nil)
}

// noActivity leaves the tabu search's choice of a new centre to the order of
// the variables, the same whichever runner solved what.
type noActivity struct{}

func (noActivity) VarActivity(cnf.Var) float64 { return 0 }

// TestAdaptiveDispatchBitIdenticalEstimate is the determinism gate of
// adaptive dispatch: with work stealing, speculation and queues sized in
// solve time all engaged — against a cluster whose first worker stalls every
// task it starts — a fixed-seed estimate must still be bit-identical to the
// plain in-process runner.  The dispatch policies may only move subproblems
// between workers; each sample's content is a function of the scope seed and
// its slot alone.
func TestAdaptiveDispatchBitIdenticalEstimate(t *testing.T) {
	inst := weakBivium(t, 167, 60, 21)
	space := unknownSpace(inst)
	p := space.FullPoint()

	ref := NewRunner(inst.CNF, evalTestConfig(eval.Policy{}))
	want, err := ref.EvaluatePoint(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}

	// Only stealing the straggler's queue and speculating its running task
	// lets the batch finish inside the test deadline.
	cfg := evalTestConfig(eval.Policy{})
	cfg.Transport = stragglerCluster(t, inst.CNF, 2*time.Minute)
	r := NewRunner(inst.CNF, cfg)
	runCtx, runCancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer runCancel()
	got, err := r.EvaluatePoint(runCtx, p)
	if err != nil {
		t.Fatal(err)
	}

	if got.Estimate != want.Estimate {
		t.Fatalf("estimate differs under adaptive dispatch:\n got %+v\nwant %+v", got.Estimate, want.Estimate)
	}
	gv, wv := got.Sample.Values(), want.Sample.Values()
	if len(gv) != len(wv) {
		t.Fatalf("sample sizes differ: %d vs %d", len(gv), len(wv))
	}
	for i := range gv {
		if gv[i] != wv[i] {
			t.Fatalf("sample %d differs under adaptive dispatch: %v vs %v", i, gv[i], wv[i])
		}
	}

	// The policies must actually have fired — a test where the straggler
	// never stalls anything would prove nothing — and their duplicates must
	// stay invisible to the sample accounting.
	if r.SpeculativeDuplicates() == 0 || r.SpeculationWins() == 0 {
		t.Fatalf("speculation never engaged against the straggler: stolen=%d dup=%d wins=%d",
			r.TasksStolen(), r.SpeculativeDuplicates(), r.SpeculationWins())
	}
	if got, want := r.SubproblemsSolved(), ref.SubproblemsSolved(); got != want {
		t.Fatalf("solved-subproblem count differs under speculation: %d vs %d (duplicate leaked into the ledger)", got, want)
	}
}

// TestDefaultConfigRebalancesAroundSlowWorker is what a user gets without
// setting anything: on a network leader a default Config takes work off a
// worker that is slow, not dead — the batch would finish without help — and
// the estimate, the solved count and the sample ledger are the in-process
// runner's.
func TestDefaultConfigRebalancesAroundSlowWorker(t *testing.T) {
	inst := weakBivium(t, 167, 60, 21)
	p := unknownSpace(inst).FullPoint()

	ref := NewRunner(inst.CNF, DefaultConfig())
	want, err := ref.EvaluatePoint(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}

	cfg := DefaultConfig()
	cfg.Transport = stragglerCluster(t, inst.CNF, 200*time.Millisecond)
	r := NewRunner(inst.CNF, cfg)
	got, err := r.EvaluatePoint(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if got.Estimate != want.Estimate {
		t.Fatalf("estimate differs from the in-process runner's:\n got %+v\nwant %+v", got.Estimate, want.Estimate)
	}
	if r.TasksStolen()+r.SpeculationWins() == 0 {
		t.Fatalf("nothing was taken off the slow worker: stolen=%d dup=%d wins=%d",
			r.TasksStolen(), r.SpeculativeDuplicates(), r.SpeculationWins())
	}
	solved, aborted, skipped := r.SubproblemsSolved(), r.SubproblemsAborted(), r.SamplesSkipped()
	if solved != cfg.SampleSize || aborted != 0 || r.SamplesPlanned() != solved+aborted+skipped {
		t.Fatalf("ledger: planned %d, solved %d, aborted %d, skipped %d; want all %d solved",
			r.SamplesPlanned(), solved, aborted, skipped, cfg.SampleSize)
	}
}

// TestRetainedSolveNeverSpeculates pins the one place speculation is off:
// with learned clauses retained a duplicate would solve on another worker's
// solver state, so which copy wins would change the recorded result.  The
// pristine run of the same family on the same cluster does speculate.
func TestRetainedSolveNeverSpeculates(t *testing.T) {
	inst := weakBivium(t, 171, 60, 21)
	p := unknownSpace(inst).FullPoint()
	for _, retain := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.RetainLearned = retain
		cfg.Transport = stragglerCluster(t, inst.CNF, 200*time.Millisecond)
		r := NewRunner(inst.CNF, cfg)
		report, err := r.Solve(context.Background(), p, SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if want := 1 << p.Count(); report.Processed != want || !report.FoundSat {
			t.Fatalf("retain=%v: processed %d of %d subproblems, found SAT: %v", retain, report.Processed, want, report.FoundSat)
		}
		if dup := r.SpeculativeDuplicates(); (dup == 0) != retain {
			t.Fatalf("retain=%v: %d speculative duplicates", retain, dup)
		}
	}
}

// TestCancelledWorkerLosesNoSamples cancels a worker's own context — the
// process going down, not the leader aborting a batch — in the middle of a
// batch, from inside the worker's third task.  What that cancellation leaves
// of the worker's tasks (placeholders for the queued ones, a cut-short
// stand-in for the running one) is not a result: the worker must send none
// of it before its connection closes, so that the leader requeues those
// tasks onto the surviving worker and the evaluation still has every sample
// solved and the F of the in-process runner.
func TestCancelledWorkerLosesNoSamples(t *testing.T) {
	inst := weakBivium(t, 167, 60, 21)
	p := unknownSpace(inst).FullPoint()

	ref := NewRunner(inst.CNF, evalTestConfig(eval.Policy{}))
	want, err := ref.EvaluatePoint(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}

	leader, err := cluster.Listen("127.0.0.1:0", inst.CNF, cluster.LeaderOptions{
		Heartbeat: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr := leader.Addr().String()

	// Cleanups run last-in first-out: close the leader, cancel the workers,
	// then wait for them, so that none outlives the test.
	var workers sync.WaitGroup
	t.Cleanup(workers.Wait)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	t.Cleanup(func() { leader.Close() })

	// The doomed worker registers first, so the leader hands it the head of
	// the batch.  It answers two tasks and goes down inside the third, with
	// more tasks queued behind it.
	doomedCtx, killDoomed := context.WithCancel(ctx)
	var started atomic.Int32
	workers.Add(1)
	go func() {
		defer workers.Done()
		_ = cluster.Serve(doomedCtx, addr, cluster.WorkerOptions{
			Capacity: 2, Name: "doomed",
			TaskDelay: func(cluster.Task) time.Duration {
				if started.Add(1) < 3 {
					return 0
				}
				killDoomed()
				return time.Minute
			},
		})
	}()
	waitCtx, waitCancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer waitCancel()
	if err := leader.WaitForWorkers(waitCtx, 1); err != nil {
		t.Fatalf("doomed worker did not register: %v", err)
	}
	// The survivor holds its tasks until the doomed worker has gone down.
	// The batch is a millisecond of solving, and the worker that has its
	// solvers built first can finish it alone, stealing what the other has
	// queued: left to race, the doomed worker did not reach a third task in
	// one run out of ten to twenty.
	workers.Add(1)
	go func() {
		defer workers.Done()
		_ = cluster.Serve(ctx, addr, cluster.WorkerOptions{
			Capacity: 2, Name: "survivor",
			TaskDelay: func(cluster.Task) time.Duration { <-doomedCtx.Done(); return 0 },
		})
	}()
	if err := leader.WaitForWorkers(waitCtx, 2); err != nil {
		t.Fatalf("surviving worker did not register: %v", err)
	}

	cfg := evalTestConfig(eval.Policy{})
	cfg.Transport = leader
	r := NewRunner(inst.CNF, cfg)
	runCtx, runCancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer runCancel()
	got, err := r.EvaluatePoint(runCtx, p)
	if err != nil {
		t.Fatal(err)
	}
	if started.Load() < 3 {
		t.Fatalf("the doomed worker started %d tasks, want at least 3: it never went down mid-batch", started.Load())
	}
	if solved, aborted := r.SubproblemsSolved(), r.SubproblemsAborted(); solved != cfg.SampleSize || aborted != 0 {
		t.Fatalf("%d subproblems solved and %d aborted, want all %d solved: the leader recorded what a cancelled worker sent",
			solved, aborted, cfg.SampleSize)
	}
	if got.Estimate != want.Estimate {
		t.Fatalf("estimate differs after a worker went down:\n got %+v\nwant %+v", got.Estimate, want.Estimate)
	}
}

// bufferCount is the number of sample buffers the runner keeps.
func (r *Runner) bufferCount() int {
	r.bufMu.Lock()
	defer r.bufMu.Unlock()
	return len(r.buffers)
}
