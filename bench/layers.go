package main

import (
	"context"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"github.com/paper-repro/pdsat-go/internal/cluster"
	"github.com/paper-repro/pdsat-go/internal/cnf"
	"github.com/paper-repro/pdsat-go/internal/decomp"
	"github.com/paper-repro/pdsat-go/internal/eval"
	runner "github.com/paper-repro/pdsat-go/internal/pdsat"
	"github.com/paper-repro/pdsat-go/internal/solver"
)

// heapAllocated returns the cumulative bytes allocated on the heap; unlike
// runtime.ReadMemStats it does not stop the world, so it can be read around
// every batch.
func heapAllocated() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

// batchRecord is what the tracing transport saw of one batch.
type batchRecord struct {
	tasks, aborted int
	duration       time.Duration
	// firstResult is the time from the call to the first observed result
	// (zero when the batch had no observer); abortLatency the time from the
	// abort channel firing to the call returning (zero when it never fired).
	firstResult, abortLatency time.Duration
	allocated                 uint64
}

// replayTask is a solved task kept for the solver probe: the subproblem, the
// budget and metric it ran under and the cost the transport reported.
type replayTask struct {
	assumptions []cnf.Lit
	budget      solver.Budget
	metric      solver.CostMetric
	cost        float64
}

// maxReplay is the number of recorded tasks the solver probe replays.
const maxReplay = 256

// tracedTransport wraps a cluster.Transport with a span and counters per
// batch.  It implements all four rungs of the transport ladder and hands
// every call to the rung of the wrapped transport that Runner.runBatch
// would have picked, so the wrapped transport sees the calls it would see
// without the wrapper.
type tracedTransport struct {
	inner cluster.Transport
	tr    *tracer

	mu         sync.Mutex
	batches    []batchRecord   // guarded by mu
	solveTimes []time.Duration // guarded by mu
	stats      solver.Stats    // guarded by mu
	replay     []replayTask    // guarded by mu
}

var _ cluster.DispatchTransport = (*tracedTransport)(nil)

func (t *tracedTransport) Workers() int { return t.inner.Workers() }
func (t *tracedTransport) Close() error { return t.inner.Close() }

func (t *tracedTransport) Run(ctx context.Context, tasks []cluster.Task, opts cluster.BatchOptions) ([]cluster.TaskResult, error) {
	results, _, err := t.record(ctx, "Run", tasks, opts, nil, nil)
	return results, err
}

func (t *tracedTransport) RunObserved(ctx context.Context, tasks []cluster.Task, opts cluster.BatchOptions, observe func(cluster.TaskResult)) ([]cluster.TaskResult, error) {
	results, _, err := t.record(ctx, "RunObserved", tasks, opts, observe, nil)
	return results, err
}

func (t *tracedTransport) RunAbortable(ctx context.Context, tasks []cluster.Task, opts cluster.BatchOptions, observe func(cluster.TaskResult), abort <-chan struct{}) ([]cluster.TaskResult, error) {
	results, _, err := t.record(ctx, "RunAbortable", tasks, opts, observe, abort)
	return results, err
}

func (t *tracedTransport) RunDispatch(ctx context.Context, tasks []cluster.Task, opts cluster.BatchOptions, observe func(cluster.TaskResult), abort <-chan struct{}) ([]cluster.TaskResult, cluster.DispatchStats, error) {
	return t.record(ctx, "RunDispatch", tasks, opts, observe, abort)
}

// delegate is Runner.runBatch's ladder against the wrapped transport.
func (t *tracedTransport) delegate(ctx context.Context, tasks []cluster.Task, opts cluster.BatchOptions, observe func(cluster.TaskResult), abort <-chan struct{}) ([]cluster.TaskResult, cluster.DispatchStats, error) {
	if opts.Steal || opts.Speculate {
		if dt, ok := t.inner.(cluster.DispatchTransport); ok {
			return dt.RunDispatch(ctx, tasks, opts, observe, abort)
		}
	}
	if abort != nil {
		if at, ok := t.inner.(cluster.AbortableTransport); ok {
			results, err := at.RunAbortable(ctx, tasks, opts, observe, abort)
			return results, cluster.DispatchStats{}, err
		}
	}
	if observe != nil {
		if ot, ok := t.inner.(cluster.ObservedTransport); ok {
			results, err := ot.RunObserved(ctx, tasks, opts, observe)
			return results, cluster.DispatchStats{}, err
		}
	}
	results, err := t.inner.Run(ctx, tasks, opts)
	if observe != nil {
		for _, res := range results {
			observe(res)
		}
	}
	return results, cluster.DispatchStats{}, err
}

// record runs one batch under a cluster span and keeps its counters.
func (t *tracedTransport) record(ctx context.Context, op string, tasks []cluster.Task, opts cluster.BatchOptions, observe func(cluster.TaskResult), abort <-chan struct{}) ([]cluster.TaskResult, cluster.DispatchStats, error) {
	ctx, id := t.tr.begin(ctx, layerCluster, op)
	start := time.Now()
	allocated := heapAllocated()

	// firstAt and abortAt are nanoseconds since start, written by the
	// transport's collection path and by the abort watcher.
	var firstAt, abortAt atomic.Int64
	timed := observe
	if observe != nil {
		timed = func(res cluster.TaskResult) {
			firstAt.CompareAndSwap(0, int64(time.Since(start)))
			observe(res)
		}
	}
	var watcher sync.WaitGroup
	returned := make(chan struct{})
	if abort != nil {
		watcher.Add(1)
		go func() {
			defer watcher.Done()
			select {
			case <-abort:
				abortAt.Store(int64(time.Since(start)))
			case <-returned:
			}
		}()
	}

	results, ds, err := t.delegate(ctx, tasks, opts, timed, abort)

	rec := batchRecord{tasks: len(tasks), duration: time.Since(start)}
	close(returned)
	watcher.Wait()
	t.tr.end(id)
	rec.allocated = heapAllocated() - allocated
	rec.firstResult = time.Duration(firstAt.Load())
	if at := abortAt.Load(); at > 0 {
		rec.abortLatency = rec.duration - time.Duration(at)
	}

	t.mu.Lock()
	defer t.mu.Unlock()
	// Results come in completion order; the probe needs each one's task.
	var assumptions map[int][]cnf.Lit
	if len(t.replay) < maxReplay {
		assumptions = make(map[int][]cnf.Lit, len(tasks))
		for _, tk := range tasks {
			assumptions[tk.Index] = tk.Assumptions
		}
	}
	for _, res := range results {
		if !res.Started || res.Cancelled {
			rec.aborted++
		}
		if !res.Started {
			continue
		}
		t.stats = t.stats.Add(res.Stats)
		t.solveTimes = append(t.solveTimes, res.Stats.SolveTime)
		if !res.Cancelled && !opts.Retain && len(t.replay) < maxReplay {
			t.replay = append(t.replay, replayTask{
				assumptions: assumptions[res.Index],
				budget:      opts.Budget,
				metric:      opts.CostMetric,
				cost:        res.Cost,
			})
		}
	}
	t.batches = append(t.batches, rec)
	return results, ds, err
}

// reset forgets everything recorded so far (the warm-up's batch).
func (t *tracedTransport) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.batches, t.solveTimes, t.replay, t.stats = nil, nil, nil, solver.Stats{}
}

// evalRecord is what the tracing objective saw of one evaluation.
type evalRecord struct {
	cacheHit, pruned, earlyStopped bool
}

// evalLog collects the evaluations of a traced run across its jobs' engines.
type evalLog struct {
	mu      sync.Mutex
	records []evalRecord // guarded by mu
}

func (l *evalLog) add(ev *eval.Evaluation) {
	if ev == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.records = append(l.records, evalRecord{cacheHit: ev.CacheHit, pruned: ev.Pruned, earlyStopped: ev.EarlyStopped})
}

// take returns the records collected so far and forgets them.
func (l *evalLog) take() []evalRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	records := l.records
	l.records = nil
	return records
}

// tracedEval puts the eval and pdsat spans around one evaluation engine and
// the runner behind it.  Towards the optimizer it is the objective (as
// pdsat.Session's jobObjective is); towards the engine it is the backend
// (as pdsat.Session's sessionBackend is).
type tracedEval struct {
	tr     *tracer
	runner *runner.Runner
	engine *eval.Engine
	// observe stands where the session's event-emitting sample observer
	// stands, so the runner takes the observed rungs of the transport.
	observe func(runner.Progress)
	log     *evalLog
}

// newTracedEval builds the engine over the traced backend, sharing the
// cross-job F-cache as a session does.
func newTracedEval(tr *tracer, r *runner.Runner, pol eval.Policy, cache *eval.Cache, observe func(runner.Progress), log *evalLog) *tracedEval {
	te := &tracedEval{tr: tr, runner: r, observe: observe, log: log}
	te.engine = eval.NewEngine(tracedBackend{te}, pol, cache)
	return te
}

// Evaluate implements optimize.Objective (the searches prefer EvaluateF).
func (te *tracedEval) Evaluate(ctx context.Context, p decomp.Point) (float64, error) {
	ev, err := te.EvaluateF(ctx, p, inf)
	if err != nil {
		return 0, err
	}
	return ev.Value, nil
}

// EvaluateF implements eval.Evaluator under an eval span.
func (te *tracedEval) EvaluateF(ctx context.Context, p decomp.Point, incumbent float64) (*eval.Evaluation, error) {
	ctx, id := te.tr.begin(ctx, layerEval, "EvaluateF")
	ev, err := te.engine.EvaluateF(ctx, p, incumbent)
	te.tr.end(id)
	te.log.add(ev)
	if err != nil {
		return nil, err
	}
	return ev, nil
}

// ReserveSlots implements eval.SlotEvaluator.
func (te *tracedEval) ReserveSlots(n int) (int, bool) { return te.engine.ReserveSlots(n) }

// EvaluateSlotF implements eval.SlotEvaluator under an eval span.
func (te *tracedEval) EvaluateSlotF(ctx context.Context, p decomp.Point, incumbent float64, slot int) (*eval.Evaluation, error) {
	ctx, id := te.tr.begin(ctx, layerEval, "EvaluateSlotF")
	ev, err := te.engine.EvaluateSlotF(ctx, p, incumbent, slot)
	te.tr.end(id)
	te.log.add(ev)
	return ev, err
}

// VarActivity implements optimize.ActivitySource.
func (te *tracedEval) VarActivity(v cnf.Var) float64 { return te.runner.VarActivity(v) }

// tracedBackend is the engine's view of tracedEval: eval.SlotBackend over
// the runner, one pdsat span per evaluation.
type tracedBackend struct{ te *tracedEval }

func (b tracedBackend) EvaluateBudgeted(ctx context.Context, p decomp.Point, pol eval.Policy, incumbent float64) (*eval.Evaluation, error) {
	ctx, id := b.te.tr.begin(ctx, layerPdsat, "EvaluatePointBudgeted")
	defer b.te.tr.end(id)
	pe, err := b.te.runner.EvaluatePointBudgeted(ctx, p, pol, incumbent, b.te.observe)
	if pe == nil {
		return nil, err
	}
	ev := pe.Evaluation()
	return &ev, err
}

func (b tracedBackend) ReserveEvalSlots(n int) int { return b.te.runner.ReserveEvalSlots(n) }

func (b tracedBackend) EvaluateSlot(ctx context.Context, p decomp.Point, pol eval.Policy, incumbent float64, slot int) (*eval.Evaluation, error) {
	ctx, id := b.te.tr.begin(ctx, layerPdsat, "EvaluateSlotObserved")
	defer b.te.tr.end(id)
	return b.te.runner.EvaluateSlotObserved(ctx, p, pol, incumbent, slot, b.te.observe)
}
