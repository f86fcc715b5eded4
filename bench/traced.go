package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"github.com/paper-repro/pdsat-go/internal/cluster"
	"github.com/paper-repro/pdsat-go/internal/cnf"
	"github.com/paper-repro/pdsat-go/internal/decomp"
	"github.com/paper-repro/pdsat-go/internal/encoder"
	"github.com/paper-repro/pdsat-go/internal/eval"
	"github.com/paper-repro/pdsat-go/internal/montecarlo"
	"github.com/paper-repro/pdsat-go/internal/optimize"
	runner "github.com/paper-repro/pdsat-go/internal/pdsat"
	"github.com/paper-repro/pdsat-go/internal/solver"
)

var inf = math.Inf(1)

// traced is the result of one traced run: the per-layer metrics by name,
// the fixed-seed outcome (which must equal the Session run's), the summed
// solver effort, the wall clock of the timed job sequence and the spans.
type traced struct {
	metrics map[string]float64
	outcome outcome
	effort  solver.Stats
	wallS   float64
	spans   []span
	// formula, point and replay feed the probes, which run once the traced
	// run's transport is shut down: the instance, the first step's
	// decomposition set and the first solved tasks.
	formula *cnf.Formula
	point   decomp.Point
	replay  []replayTask
}

// runTraced runs the workload's job sequence once as a composition of the
// same layers a pdsat.Session stacks — optimize over eval.Engine over
// internal/pdsat.Runner over a cluster.Transport — with a span around every
// call across a layer boundary.  It follows Session's job code step for
// step, so a fixed seed yields the Session run's outcome bit for bit; that
// is checked by the caller.
func runTraced(ctx context.Context, w workload, s seeds, c *checks) (*traced, error) {
	// A metric that does not apply to the workload reads 0.
	m := make(map[string]float64, len(perLayer))
	for _, mt := range perLayer {
		m[mt.name] = 0
	}

	encodeStart := time.Now()
	inst, err := w.newInstance(s.instance)
	if err != nil {
		return nil, err
	}
	m["encoder.encode_ms"] = msSince(encodeStart)
	m["encoder.vars"] = float64(inst.CNF.NumVars)
	m["encoder.clauses"] = float64(inst.CNF.NumClauses())

	// The transport a session would use, behind the tracing wrapper; over
	// TCP the workers additionally dial through the byte-counting forwarder.
	joinStart := time.Now()
	var inner cluster.Transport
	var fwd *forwarder
	if w.tcp {
		fwd = &forwarder{}
		lb, lerr := startLoopback(ctx, inst.CNF, fwd)
		if lerr != nil {
			return nil, lerr
		}
		defer fwd.close()
		defer lb.close()
		inner = lb.leader
	} else {
		inner = cluster.NewInproc(inst.CNF, workers, solver.DefaultOptions())
	}
	m["cluster.worker_join_ms"] = msSince(joinStart)

	tr := newTracer()
	transport := &tracedTransport{inner: inner, tr: tr}
	cfg := w.runnerConfig(s, transport)
	r := runner.NewRunner(inst.CNF, cfg)
	space := decomp.NewSpace(inst.UnknownStartVars())
	cache := eval.NewCache()
	// A session passes its event-emitting sample observer; passing one here
	// makes the runner take the same observed rungs of the transport.
	observe := func(runner.Progress) {}

	evals := &evalLog{}
	jobs := 0
	// estimate mirrors pdsat.EstimateJob: one engine per job, evaluated
	// with no incumbent.
	estimate := func(jctx context.Context, p decomp.Point) (*eval.Evaluation, error) {
		return newTracedEval(tr, r, cfg.Policy, cache, observe, evals).EvaluateF(jctx, p, inf)
	}
	// job opens a job span; the returned function closes it.
	job := func() (context.Context, func()) {
		jobs++
		jctx, id := tr.begin(ctx, layerJob, fmt.Sprintf("job-%d", jobs))
		return jctx, func() { tr.end(id) }
	}

	// The warm-up consumes evaluation slot 0 as it does in a Session run.
	if _, err = estimate(ctx, space.FullPoint()); err != nil {
		return nil, fmt.Errorf("warm-up estimate: %w", err)
	}
	transport.reset()
	evals.take()
	jobs = 0
	warmSpans := len(tr.snapshot())
	var setupOut, setupIn int64
	if fwd != nil {
		setupOut, setupIn = fwd.toWorkers.Load(), fwd.toLeader.Load()
	}
	before := counters(r)

	t := &traced{metrics: m, formula: inst.CNF, point: space.FullPoint()}
	visits := 0
	familySolved := 0
	wallStart := time.Now()
	for i, step := range w.steps(space.Vars()) {
		p := space.FullPoint()
		if step.vars != nil {
			if p, err = space.PointFromVars(step.vars); err != nil {
				return nil, err
			}
		}
		if i == 0 {
			t.point = p
		}
		switch step.kind {
		case jobEstimate:
			jctx, done := job()
			ev, err := estimate(jctx, p)
			done()
			if err != nil {
				return nil, err
			}
			t.outcome.addValue(ev.Estimate.Value)

		case jobSearch:
			// Mirrors pdsat.SearchJob: one engine for the whole search, the
			// policy's concurrency as the search width, a visit observer, and
			// a final re-estimate of the best point through the same engine.
			jctx, done := job()
			te := newTracedEval(tr, r, cfg.Policy, cache, observe, evals)
			opts := optimize.Options{MaxEvaluations: w.maxEvals, Seed: s.search}
			opts.MaxConcurrentEvals = cfg.Policy.MaxConcurrentEvals
			opts.Observer = func(optimize.Visit) { visits++ }
			octx, oid := tr.begin(jctx, layerOptimize, "TabuSearch")
			res, err := optimize.TabuSearch(octx, te, p, opts)
			tr.end(oid)
			if err != nil {
				done()
				return nil, err
			}
			best, err := te.EvaluateF(jctx, res.BestPoint, inf)
			done()
			if err != nil {
				return nil, err
			}
			t.outcome.addSearch(res, best.Estimate.Value)
			m["optimize.best_f"] = res.BestValue
			m["optimize.best_set_size"] = float64(res.BestPoint.Count())

		case jobPredictSolve:
			// Mirrors Session.PredictAndSolve: an estimate job, then a solve
			// job over the whole family, then the key check.
			jctx, done := job()
			ev, err := estimate(jctx, p)
			done()
			if err != nil {
				return nil, err
			}
			jctx, done = job()
			sctx, sid := tr.begin(jctx, layerPdsat, "Solve")
			report, err := r.SolveObserved(sctx, p, runner.SolveOptions{}, observe)
			tr.end(sid)
			done()
			if err != nil {
				return nil, err
			}
			keyValid := false
			if gen, err := encoder.ByName(inst.Generator); err == nil && report.FoundSat {
				keyValid, _ = inst.CheckRecoveredState(gen, report.Model) // an error leaves it false
			}
			c.ok(keyValid, "%s: traced solve recovered no valid key", w.name)
			t.outcome.addValue(ev.Estimate.Value)
			t.outcome.addSolve(report)
			familySolved += report.Processed
			m["pdsat.family_size"] += float64(report.Processed)
			m["pdsat.predict_dev_pct"] = 100 * montecarlo.RelativeDeviation(ev.Estimate.Value, report.TotalCost)
		}
	}
	t.wallS = time.Since(wallStart).Seconds()
	t.effort = effort(r.AggregateStats())
	t.spans = tr.snapshot()[warmSpans:]

	after := counters(r)
	layerMetrics(m, t.spans, transport, evals.take(), after.minus(before), familySolved, visits)
	if fwd != nil {
		tasks := m["cluster.tasks"]
		m["cluster.wire_bytes_setup"] = float64(setupOut + setupIn)
		m["cluster.wire_bytes_out_per_task"] = ratio(float64(fwd.toWorkers.Load()-setupOut), tasks)
		m["cluster.wire_bytes_in_per_task"] = ratio(float64(fwd.toLeader.Load()-setupIn), tasks)
	}
	c.ok(m["pdsat.ledger_imbalance"] == 0, "%s: traced sample ledger is off by %v", w.name, m["pdsat.ledger_imbalance"])
	c.ok(m["job.self_sum_error_pct"] <= 1, "%s: layer self times miss the jobs' wall clock by %.3f%%", w.name, m["job.self_sum_error_pct"])

	t.replay = transport.replay
	return t, nil
}

func msSince(t time.Time) float64 { return micros(time.Since(t)) / 1e3 }

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// runnerCounters are the runner's cumulative counters.
type runnerCounters struct {
	evaluations, planned, solved, aborted, skipped int
	stolen, duplicates, wins                       int
}

func counters(r *runner.Runner) runnerCounters {
	return runnerCounters{
		evaluations: r.Evaluations(), planned: r.SamplesPlanned(), solved: r.SubproblemsSolved(),
		aborted: r.SubproblemsAborted(), skipped: r.SamplesSkipped(),
		stolen: r.TasksStolen(), duplicates: r.SpeculativeDuplicates(), wins: r.SpeculationWins(),
	}
}

func (a runnerCounters) minus(b runnerCounters) runnerCounters {
	return runnerCounters{
		evaluations: a.evaluations - b.evaluations, planned: a.planned - b.planned, solved: a.solved - b.solved,
		aborted: a.aborted - b.aborted, skipped: a.skipped - b.skipped,
		stolen: a.stolen - b.stolen, duplicates: a.duplicates - b.duplicates, wins: a.wins - b.wins,
	}
}

// layerMetrics derives the per-layer metrics of the timed job sequence from
// its spans and the wrappers' counters.
func layerMetrics(m map[string]float64, spans []span, tt *tracedTransport, evals []evalRecord, rc runnerCounters, familySolved, visits int) {
	self := selfTimes(spans)

	// Self times add up to the jobs' wall clock by construction; the error
	// is reported so that a layer that stops waiting for its calls shows.
	var jobWall, selfSum time.Duration
	for i, s := range spans {
		selfSum += self[i]
		if s.Layer == layerJob {
			jobWall += s.duration()
		}
	}
	m["job.self_s"] = layerSelf(spans, self, layerJob, "").Seconds()
	m["job.self_sum_error_pct"] = 100 * ratio(math.Abs((selfSum-jobWall).Seconds()), jobWall.Seconds())
	m["trace.spans"] = float64(len(spans))

	// cluster and, inside its spans, the solver (TaskResult.Stats.SolveTime
	// is measured by the slot that solved the task, on both backends).
	tt.mu.Lock()
	defer tt.mu.Unlock()
	slots := float64(tt.inner.Workers())
	var runTime, busy time.Duration
	var tasks, aborted int
	var allocated uint64
	var batchMS, firstMS, abortMS, solveUS []float64
	for _, b := range tt.batches {
		runTime += b.duration
		tasks += b.tasks
		aborted += b.aborted
		allocated += b.allocated
		batchMS = append(batchMS, micros(b.duration)/1e3)
		if b.firstResult > 0 {
			firstMS = append(firstMS, micros(b.firstResult)/1e3)
		}
		if b.abortLatency > 0 {
			abortMS = append(abortMS, micros(b.abortLatency)/1e3)
		}
	}
	for _, d := range tt.solveTimes {
		busy += d
		solveUS = append(solveUS, micros(d))
	}
	st := tt.stats
	m["solver.busy_s"] = busy.Seconds()
	m["solver.solves"] = float64(len(tt.solveTimes))
	m["solver.propagations"] = float64(st.Propagations)
	m["solver.conflicts"] = float64(st.Conflicts)
	m["solver.decisions"] = float64(st.Decisions)
	m["solver.reduce_dbs"] = float64(st.ReduceDBs)
	m["solver.learned"] = float64(st.Learned)
	m["solver.arena_bytes"] = float64(st.ArenaBytes)
	m["solver.props_per_s"] = ratio(float64(st.Propagations), busy.Seconds())
	m["solver.conflicts_per_s"] = ratio(float64(st.Conflicts), busy.Seconds())
	m["solver.solve_p50_us"] = percentile(solveUS, 50)
	m["solver.solve_p99_us"] = percentile(solveUS, 99)

	m["cluster.batches"] = float64(len(tt.batches))
	m["cluster.tasks"] = float64(tasks)
	m["cluster.run_s"] = runTime.Seconds()
	m["cluster.batch_p50_ms"] = percentile(batchMS, 50)
	m["cluster.batch_p95_ms"] = percentile(batchMS, 95)
	m["cluster.first_result_ms_p50"] = percentile(firstMS, 50)
	m["cluster.slot_util_pct"] = 100 * ratio(busy.Seconds(), runTime.Seconds()*slots)
	m["cluster.task_overhead_us"] = ratio(micros(runTime)*slots-micros(busy), float64(tasks))
	m["cluster.tasks_per_s"] = ratio(float64(tasks), runTime.Seconds())
	m["cluster.alloc_kb_per_task"] = ratio(float64(allocated)/1e3, float64(tasks))
	m["cluster.aborted_tasks"] = float64(aborted)
	m["cluster.abort_latency_ms_p50"] = percentile(abortMS, 50)
	m["cluster.tasks_stolen"] = float64(rc.stolen)
	m["cluster.speculative_duplicates"] = float64(rc.duplicates)
	m["cluster.speculation_wins"] = float64(rc.wins)

	// pdsat: the runner's sampling, batching and absorbing around the
	// transport calls.
	sampleSolved := rc.solved - familySolved
	pdsatSelf := layerSelf(spans, self, layerPdsat, "") - layerSelf(spans, self, layerPdsat, "Solve")
	m["pdsat.evaluations"] = float64(rc.evaluations)
	m["pdsat.self_s"] = pdsatSelf.Seconds()
	m["pdsat.self_us_per_sample"] = ratio(micros(pdsatSelf), float64(sampleSolved+rc.aborted))
	m["pdsat.samples_planned"] = float64(rc.planned)
	m["pdsat.samples_solved"] = float64(sampleSolved)
	m["pdsat.samples_aborted"] = float64(rc.aborted)
	m["pdsat.samples_skipped"] = float64(rc.skipped)
	m["pdsat.ledger_imbalance"] = float64(rc.planned - sampleSolved - rc.aborted - rc.skipped)
	m["pdsat.solve_self_s"] = layerSelf(spans, self, layerPdsat, "Solve").Seconds()

	// eval: the engine's cache, policy and bookkeeping around the backend.
	var hits, pruned, early int
	for _, e := range evals {
		if e.cacheHit {
			hits++
		}
		if e.pruned {
			pruned++
		}
		if e.earlyStopped {
			early++
		}
	}
	evalSelf := layerSelf(spans, self, layerEval, "")
	latencies := layerDurations(spans, layerEval)
	m["eval.calls"] = float64(len(evals))
	m["eval.self_s"] = evalSelf.Seconds()
	m["eval.self_us_per_call"] = ratio(micros(evalSelf), float64(len(evals)))
	m["eval.cache_hits"] = float64(hits)
	m["eval.pruned"] = float64(pruned)
	m["eval.early_stopped"] = float64(early)
	m["eval.samples_saved_pct"] = 100 * (1 - ratio(float64(sampleSolved), float64(rc.planned)))
	m["eval.latency_p50_ms"] = percentile(latencies, 50)
	m["eval.latency_p95_ms"] = percentile(latencies, 95)

	// optimize: the search's bookkeeping per visit.
	optSelf := layerSelf(spans, self, layerOptimize, "")
	m["optimize.visits"] = float64(visits)
	m["optimize.self_s"] = optSelf.Seconds()
	m["optimize.self_us_per_visit"] = ratio(micros(optSelf), float64(visits))
}
