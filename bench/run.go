package main

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"syscall"
	"time"

	"github.com/paper-repro/pdsat-go/internal/cluster"
	"github.com/paper-repro/pdsat-go/internal/cnf"
	"github.com/paper-repro/pdsat-go/internal/encoder"
	"github.com/paper-repro/pdsat-go/internal/solver"
	"github.com/paper-repro/pdsat-go/pdsat"
)

// workers is the number of solving slots of every workload: the box has two
// cores, and a benchmark with more workers than cores measures the scheduler.
const workers = 2

// seeds derives every source of randomness of one repetition from its base
// seed; the program under test receives only the generated instance and
// configuration.
type seeds struct{ instance, runner, search int64 }

// seeds returns the seeds of case i of a run with the given seed: case 0
// uses the seed itself (secret = seed, runner seed = seed+1, search seed =
// seed+2), later cases independent ones, so that a run does not hang on one
// instance's luck.  A workload that pins its secrets draws only the
// sampling from the seed.
func (w workload) seeds(seed int64, i int) seeds {
	base := seed + 1000*int64(i)
	s := seeds{instance: base, runner: base + 1, search: base + 2}
	if w.pinSecret != 0 {
		s.instance = w.pinSecret + 1000*int64(i)
	}
	return s
}

// checks counts the correctness checks of a run; every failed one is a
// failed operation and makes the benchmark exit non-zero.
type checks struct {
	attempted, failed int
	failures          []string
}

// ok records one check.
func (c *checks) ok(cond bool, format string, args ...any) {
	c.attempted++
	if !cond {
		c.failed++
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// outcome is the fixed-seed result of one job sequence, compared bit for
// bit across repetitions, backends and the traced composition.  Floats are
// kept as their IEEE bits so that the comparison is exact.
type outcome struct {
	// Values holds every full (unpruned) F in job order: each estimate, and
	// for a search its best value, the re-estimate of the best set and every
	// unpruned visit.  A pruned visit's lower bound depends on when the
	// abort landed, so only its Pruned flag is part of the outcome.
	Values []uint64
	Pruned []bool
	// Sets holds the decomposition sets that go with the values: a search's
	// best set.
	Sets [][]cnf.Var
	// Solved holds, for a predict-and-solve step, the processed subproblem
	// count, the SAT index and the measured total cost.
	Solved []uint64
}

func (o *outcome) addValue(v float64) { o.Values = append(o.Values, math.Float64bits(v)) }

func (o *outcome) addSearch(res *pdsat.SearchResult, best float64) {
	o.addValue(res.BestValue)
	o.addValue(best)
	o.Sets = append(o.Sets, res.BestPoint.SortedVars())
	for _, v := range res.Trace {
		o.Pruned = append(o.Pruned, v.Pruned)
		if !v.Pruned {
			o.addValue(v.Value)
		}
	}
}

func (o *outcome) addSolve(report *pdsat.SolveReport) {
	o.Solved = append(o.Solved, uint64(report.Processed), uint64(report.SatIndex), math.Float64bits(report.TotalCost))
}

func (o outcome) equal(other outcome) bool { return reflect.DeepEqual(o, other) }

// effort is the part of the solver statistics that is a pure function of
// the subproblems solved (everything but the wall-clock SolveTime).
func effort(st solver.Stats) solver.Stats {
	st.SolveTime = 0
	return st
}

// loopback is a cluster.Leader plus two one-slot workers in this process: a
// closed loop, one leader, two connections.
type loopback struct {
	leader *cluster.Leader
	stop   context.CancelFunc
	served sync.WaitGroup
}

// startLoopback listens on a free loopback port and joins the workers.
// When via is non-nil the workers dial the forwarder instead, which relays
// to the leader and counts the bytes.
func startLoopback(ctx context.Context, f *cnf.Formula, via *forwarder) (*loopback, error) {
	leader, err := cluster.Listen("127.0.0.1:0", f, cluster.LeaderOptions{})
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	addr := leader.Addr().String()
	if via != nil {
		if err := via.start(addr); err != nil {
			leader.Close()
			return nil, err
		}
		addr = via.addr()
	}
	wctx, stop := context.WithCancel(ctx)
	lb := &loopback{leader: leader, stop: stop}
	for i := 0; i < workers; i++ {
		lb.served.Add(1)
		go func() {
			defer lb.served.Done()
			// Serve's error is the cancellation or the leader's shutdown.
			_ = cluster.Serve(wctx, addr, cluster.WorkerOptions{Capacity: 1, Name: fmt.Sprintf("bench-%d", i)})
		}()
	}
	wait, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := leader.WaitForWorkers(wait, workers); err != nil {
		lb.close()
		return nil, fmt.Errorf("waiting for workers: %w", err)
	}
	return lb, nil
}

// close shuts the leader down and returns once both workers have exited.
func (lb *loopback) close() {
	lb.leader.Close()
	lb.stop()
	lb.served.Wait()
}

// newInstance encodes the workload's instance for a secret.
func (w workload) newInstance(secret int64) (*encoder.Instance, error) {
	gen, err := encoder.ByName(w.generator)
	if err != nil {
		return nil, err
	}
	return encoder.NewInstance(gen, encoder.Config{
		KeystreamLen: w.keystream,
		KnownSuffix:  w.knownSuffix,
		Seed:         secret,
	})
}

// runnerConfig is the runner configuration shared by the Session runs and
// the traced composition.
func (w workload) runnerConfig(s seeds, transport cluster.Transport) pdsat.RunnerConfig {
	cfg := pdsat.DefaultConfig().Runner
	cfg.SampleSize = w.sample
	cfg.Workers = workers
	cfg.Seed = s.runner
	cfg.CostMetric = solver.CostPropagations
	cfg.Policy = w.policy
	cfg.SubproblemBudget = w.budget
	cfg.Transport = transport
	return cfg
}

// rep is what one untraced repetition measured.
type rep struct {
	setupS, wallS, cpuS, allocMB float64
	outcome                      outcome
	effort                       solver.Stats
	// events counts the events drained from the timed jobs' streams; submitUS
	// and resultLagUS are the medians of Submit's return time and of the lag
	// from a job's Done event to its Result.
	events      int
	submitUS    float64
	resultLagUS float64
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// totalAlloc returns the bytes allocated by the process so far.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// runSession runs one repetition of the workload through the public
// pdsat.Session API with tracing off.  forceInproc replaces a TCP
// workload's transport by the in-process one (the cross-backend reference).
func runSession(ctx context.Context, w workload, s seeds, forceInproc bool, c *checks) (rep, error) {
	var r rep
	// Start from a collected heap, so that the previous repetition's garbage
	// is not charged to this one's set-up.
	runtime.GC()
	setupStart := time.Now()
	inst, err := w.newInstance(s.instance)
	if err != nil {
		return r, err
	}
	var transport cluster.Transport
	if w.tcp && !forceInproc {
		lb, lerr := startLoopback(ctx, inst.CNF, nil)
		if lerr != nil {
			return r, lerr
		}
		defer lb.close()
		transport = lb.leader
	}
	cfg := pdsat.DefaultConfig()
	cfg.Runner = w.runnerConfig(s, transport)
	cfg.Search.MaxEvaluations = w.maxEvals
	cfg.Search.Seed = s.search
	sess, err := pdsat.NewSession(pdsat.FromInstance(inst), cfg)
	if err != nil {
		return r, err
	}
	defer sess.Close()
	var submits, lags []float64
	familySolved := 0
	// collect drains a job's event stream as a client would, checks that it
	// ended in exactly one Done without error, and returns its result.
	collect := func(j *pdsat.Job) (*pdsat.JobResult, error) {
		dones, doneErr := 0, ""
		var doneAt time.Time
		for ev := range j.Events() {
			r.events++
			if d, ok := ev.(pdsat.Done); ok {
				dones++
				doneErr = d.Err
				doneAt = time.Now()
			}
		}
		res, err := j.Result(ctx)
		if !doneAt.IsZero() {
			lags = append(lags, micros(time.Since(doneAt)))
		}
		c.ok(dones == 1 && doneErr == "" && err == nil && res != nil,
			"%s: job %s ended with %d Done events, Done.Err %q, error %v", w.name, j.ID(), dones, doneErr, err)
		if err == nil && res == nil {
			err = fmt.Errorf("job %s returned no result", j.ID())
		}
		return res, err
	}
	runJob := func(spec pdsat.JobSpec) (*pdsat.JobResult, error) {
		c.attempted++ // one operation per submitted job
		t0 := time.Now()
		j, err := sess.Submit(ctx, spec)
		if err != nil {
			return nil, err
		}
		submits = append(submits, micros(time.Since(t0)))
		return collect(j)
	}

	// The warm-up estimate of the full start set builds the pooled solvers
	// and consumes evaluation slot 0, so the timed jobs always start at
	// slot 1.
	if _, err := runJob(pdsat.EstimateJob{}); err != nil {
		return r, fmt.Errorf("warm-up estimate: %w", err)
	}
	r.events, lags = 0, nil
	r.setupS = time.Since(setupStart).Seconds()

	alloc0, cpu0, wall0 := totalAlloc(), cpuTime(), time.Now()
	for _, step := range w.steps(sess.Problem().StartSet) {
		switch step.kind {
		case jobEstimate:
			res, err := runJob(pdsat.EstimateJob{Vars: step.vars})
			if err != nil {
				return r, err
			}
			r.outcome.addValue(res.Estimate.Estimate.Value)
		case jobSearch:
			res, err := runJob(pdsat.SearchJob{Method: "tabu"})
			if err != nil {
				return r, err
			}
			best := math.NaN()
			if res.Search.Best != nil {
				best = res.Search.Best.Estimate.Value
			}
			r.outcome.addSearch(res.Search.Result, best)
		case jobPredictSolve:
			before := len(sess.Jobs())
			cmp, err := sess.PredictAndSolve(ctx, step.vars)
			c.ok(err == nil, "%s: PredictAndSolve: %v", w.name, err)
			if err != nil {
				return r, err
			}
			var report *pdsat.SolveReport
			for _, j := range sess.Jobs()[before:] {
				res, err := collect(j)
				if err != nil {
					return r, err
				}
				if res.Solve != nil {
					report = res.Solve
				}
			}
			family := 1 << len(step.vars)
			c.ok(report != nil && report.Processed == family && cmp.FoundSat && cmp.KeyValid,
				"%s: solve processed %v of %d subproblems, sat %v, key valid %v", w.name, report, family, cmp.FoundSat, cmp.KeyValid)
			if report == nil {
				return r, fmt.Errorf("%s: no solve report", w.name)
			}
			r.outcome.addValue(cmp.Predicted1Core)
			r.outcome.addSolve(report)
			familySolved += report.Processed
		}
	}
	r.wallS = time.Since(wall0).Seconds()
	r.cpuS = (cpuTime() - cpu0).Seconds()
	r.allocMB = float64(totalAlloc()-alloc0) / 1e6
	r.submitUS, r.resultLagUS = median(submits), median(lags)

	st := sess.Stats()
	r.effort = effort(st.Solver)
	// A solve-mode family is processed outside the sample ledger but inside
	// the solved counter.
	solved := st.SubproblemsSolved - familySolved
	c.ok(st.SamplesPlanned == solved+st.SubproblemsAborted+st.SamplesSkipped,
		"%s: sample ledger: planned %d != solved %d + aborted %d + skipped %d",
		w.name, st.SamplesPlanned, solved, st.SubproblemsAborted, st.SamplesSkipped)
	return r, nil
}
