package pdsat

import (
	"context"
	"fmt"
	"math"
	"sync"

	"github.com/paper-repro/pdsat-go/internal/eval"
	"github.com/paper-repro/pdsat-go/internal/optimize"
	runner "github.com/paper-repro/pdsat-go/internal/pdsat"
)

// JobKind identifies the type of work a job performs.
type JobKind string

// The job kinds: the three of the paper's PDSAT workflow plus the fleet
// race of concurrent searches (see FleetJob).
const (
	JobEstimate JobKind = "estimate"
	JobSearch   JobKind = "search"
	JobSolve    JobKind = "solve"
	JobFleet    JobKind = "fleet"
)

// Search method names accepted by SearchJob.Method (the short forms "sa"
// and "tabu" are accepted too; empty means tabu search).
const (
	MethodSimulatedAnnealing = "simulated annealing"
	MethodTabu               = "tabu search"
)

// JobSpec describes one unit of asynchronous work for Session.Submit.  The
// implementations are EstimateJob, SearchJob and SolveJob.
type JobSpec interface {
	// Kind returns the job kind.
	Kind() JobKind
	// validate checks the spec against the session eagerly, so Submit
	// fails before a job is created.
	validate(s *Session) error
	// run executes the spec on the job's goroutine.
	run(ctx context.Context, j *Job) (*JobResult, error)
}

// EstimateJob evaluates the predictive function F at one decomposition
// set.  It emits a SampleProgress event per collected subproblem result
// (plus a CacheHit when the evaluation is served from the F-cache) and
// produces JobResult.Estimate.
type EstimateJob struct {
	// Vars is the decomposition set to estimate; empty means the full
	// start set.  It must be a subset of the problem's start set.
	Vars []Var `json:"vars,omitempty"`
	// Policy optionally overrides the session's evaluation policy for this
	// job (staged sampling and the F-cache apply to estimations; pruning
	// needs a search incumbent and never triggers here).  Nil means the
	// session default.
	Policy *EvalPolicy `json:"policy,omitempty"`
}

// Kind implements JobSpec.
func (EstimateJob) Kind() JobKind { return JobEstimate }

func (spec EstimateJob) validate(s *Session) error {
	if spec.Policy != nil {
		if err := spec.Policy.Validate(); err != nil {
			return err
		}
	}
	_, err := s.pointFromVars(spec.Vars)
	return err
}

func (spec EstimateJob) run(ctx context.Context, j *Job) (*JobResult, error) {
	p, err := j.session.pointFromVars(spec.Vars)
	if err != nil {
		return nil, err
	}
	est, err := j.session.estimateObserved(ctx, p, j, j.session.policyFor(spec.Policy))
	if est == nil {
		return nil, err
	}
	return &JobResult{Estimate: est}, err
}

// SearchJob minimizes the predictive function with one of the paper's
// metaheuristics.  It emits a SearchVisit event per optimizer step,
// SampleProgress events for the samples of the evaluation currently in
// flight, EvalPruned/CacheHit events when the evaluation policy saves work,
// and produces JobResult.Search.
type SearchJob struct {
	// Method selects the metaheuristic: "sa"/"simulated annealing" or
	// "tabu"/"tabu search" (default).
	Method string `json:"method,omitempty"`
	// Start is the starting decomposition set; empty means the full start
	// set, as in the paper.
	Start []Var `json:"start,omitempty"`
	// Policy optionally overrides the session's evaluation policy for this
	// job: incumbent pruning, staged sampling and the cross-search F-cache.
	// Nil means the session default.
	Policy *EvalPolicy `json:"policy,omitempty"`
}

// Kind implements JobSpec.
func (SearchJob) Kind() JobKind { return JobSearch }

// methodName normalizes the accepted method spellings.
func (spec SearchJob) methodName() (string, error) {
	switch spec.Method {
	case "sa", "annealing", MethodSimulatedAnnealing:
		return MethodSimulatedAnnealing, nil
	case "", "tabu", MethodTabu:
		return MethodTabu, nil
	default:
		return "", fmt.Errorf("pdsat: unknown search method %q", spec.Method)
	}
}

func (spec SearchJob) validate(s *Session) error {
	if _, err := spec.methodName(); err != nil {
		return err
	}
	if spec.Policy != nil {
		if err := spec.Policy.Validate(); err != nil {
			return err
		}
	}
	_, err := s.pointFromVars(spec.Start)
	return err
}

func (spec SearchJob) run(ctx context.Context, j *Job) (*JobResult, error) {
	s := j.session
	method, err := spec.methodName()
	if err != nil {
		return nil, err
	}
	start, err := s.pointFromVars(spec.Start)
	if err != nil {
		return nil, err
	}
	// One engine for the whole search: the optimizer threads its incumbent
	// through the objective into the engine, which prunes, stages and
	// memoizes according to the job's effective policy.  The runner evaluates
	// in its default scope and reports the session-wide conflict activity.
	obj, opts := s.searchMember(j, s.runner, s.policyFor(spec.Policy), 0)
	var res *SearchResult
	switch method {
	case MethodSimulatedAnnealing:
		res, err = optimize.SimulatedAnnealing(ctx, obj, start, opts)
	default:
		res, err = optimize.TabuSearch(ctx, obj, start, opts)
	}
	if err != nil {
		return nil, err
	}
	// Re-estimate the best point through the same engine: with the cache
	// enabled this is a free hit on the value the search already computed.
	var best *SetEstimate
	ev, err := obj.EvaluateF(ctx, res.BestPoint, math.Inf(1))
	if ev != nil {
		best = s.setEstimateFrom(res.BestPoint, ev)
	}
	if best == nil && err != nil {
		// The search itself succeeded; return its result even if the final
		// re-estimation was interrupted before producing anything.
		return &JobResult{Search: &SearchOutcome{Method: method, Result: res}}, nil
	}
	return &JobResult{Search: &SearchOutcome{Method: method, Result: res, Best: best}}, nil
}

// evalScope is where a search member's evaluations run and where its tabu
// search reads conflict activity: the session's runner for a plain search
// (its default scope, session-wide activity), a member's own runner.Scope
// in a fleet (isolated sampling state and scope-local activity over the
// shared transport).
type evalScope interface {
	ReserveEvalSlots(n int) int
	EvaluateSlotObserved(ctx context.Context, p Point, pol EvalPolicy, incumbent float64, slot int, observe func(runner.Progress)) (*eval.Evaluation, error)
	optimize.ActivitySource
}

// searchMember builds what one search of a job runs on: an engine over the
// scope under the policy, adapted as the optimizer objective, and the
// session's search options with the job's event emission chained onto (not
// replacing) the observers the configuration already carries.  member tags
// the events; a plain search is member 0.
func (s *Session) searchMember(j *Job, scope evalScope, pol EvalPolicy, member int) (*searchObjective, SearchOptions) {
	engine := s.engineFor(j, scope, pol, member)
	opts := s.cfg.Search
	// The policy's evaluation concurrency is the width of the neighbourhood
	// loops unless the search options already pin one.
	if opts.MaxConcurrentEvals == 0 {
		opts.MaxConcurrentEvals = pol.MaxConcurrentEvals
	}
	userNeighborhood := opts.NeighborhoodObserver
	opts.NeighborhoodObserver = func(nb optimize.Neighborhood) {
		if userNeighborhood != nil {
			userNeighborhood(nb)
		}
		j.emit(neighborhoodDoneEvent(j.id, member, nb))
	}
	userObserver := opts.Observer
	opts.Observer = func(v optimize.Visit) {
		if userObserver != nil {
			userObserver(v)
		}
		j.emit(SearchVisit{
			Job:      j.id,
			Member:   member,
			Index:    v.Index,
			Vars:     v.Point.SortedVars(),
			Value:    v.Value,
			Accepted: v.Accepted,
			Improved: v.Improved,
			Pruned:   v.Pruned,
		})
	}
	return &searchObjective{Engine: engine, ActivitySource: scope}, opts
}

// searchObjective is a search member's engine as its optimizer objective.  The
// engine is embedded: its EvaluateF (the searches thread their incumbent into
// every evaluation) and its slot methods (a wide neighbourhood pass reserves a
// whole submission's evaluation indexes upfront, so every candidate's sample
// seed is independent of the completion order) are the objective's by
// promotion, as is the activity source the tabu search's getNewCenter reads.
type searchObjective struct {
	*eval.Engine
	optimize.ActivitySource
}

// Evaluate implements optimize.Objective (the searches prefer EvaluateF).
func (o *searchObjective) Evaluate(ctx context.Context, p Point) (float64, error) {
	ev, err := o.EvaluateF(ctx, p, math.Inf(1))
	if err != nil {
		return 0, err
	}
	return ev.Value, nil
}

// scopeBackend is an evaluation scope as an eval.SlotBackend that streams each
// evaluation's sample progress to observe (nil for none); the slot
// reservation is the scope's own, promoted.
type scopeBackend struct {
	evalScope
	observe func(runner.Progress)
}

// EvaluateBudgeted implements eval.Backend.
func (b scopeBackend) EvaluateBudgeted(ctx context.Context, p Point, pol EvalPolicy, incumbent float64) (*eval.Evaluation, error) {
	return b.EvaluateSlot(ctx, p, pol, incumbent, -1) // the scope reserves the next slot
}

// EvaluateSlot implements eval.SlotBackend.
func (b scopeBackend) EvaluateSlot(ctx context.Context, p Point, pol EvalPolicy, incumbent float64, slot int) (*eval.Evaluation, error) {
	return b.EvaluateSlotObserved(ctx, p, pol, incumbent, slot, b.observe)
}

// wireBest returns a search result's best set and its F as events and HTTP
// results carry them: nothing for a search cancelled during its start
// evaluation, whose best value is the +Inf it began with — which JSON cannot
// spell — and whose best point is only where it started.
func wireBest(r *SearchResult) ([]Var, *float64) {
	if math.IsInf(r.BestValue, 1) {
		return nil, nil
	}
	return r.BestPoint.SortedVars(), &r.BestValue
}

// neighborhoodDoneEvent converts an optimizer neighbourhood pass summary
// into the job event.
func neighborhoodDoneEvent(job string, member int, nb optimize.Neighborhood) NeighborhoodDone {
	return NeighborhoodDone{
		Job:        job,
		Member:     member,
		Center:     nb.Center.SortedVars(),
		Radius:     nb.Radius,
		Candidates: nb.Candidates,
		Evaluated:  nb.Evaluated,
		Pruned:     nb.Pruned,
		Cancelled:  nb.Cancelled,
		Improved:   nb.Improved,
		BestValue:  nb.BestValue,
		Width:      nb.Width,
	}
}

// SolveJob processes the whole decomposition family induced by a set:
// enumerate every assignment, solve every subproblem.  It emits a
// SampleProgress event per processed subproblem and produces
// JobResult.Solve.
type SolveJob struct {
	// Vars is the decomposition set; empty means the full start set.  The
	// set must be small enough to enumerate (|Vars| < 63).
	Vars []Var `json:"vars,omitempty"`
	// StopOnSat stops processing as soon as one subproblem is satisfiable
	// (key recovery); otherwise the whole family is processed (validation
	// runs).
	StopOnSat bool `json:"stop_on_sat,omitempty"`
	// MaxSubproblems bounds the number of processed subproblems (0 = all).
	MaxSubproblems uint64 `json:"max_subproblems,omitempty"`
}

// Kind implements JobSpec.
func (SolveJob) Kind() JobKind { return JobSolve }

func (spec SolveJob) validate(s *Session) error {
	_, err := s.pointFromVars(spec.Vars)
	return err
}

func (spec SolveJob) run(ctx context.Context, j *Job) (*JobResult, error) {
	p, err := j.session.pointFromVars(spec.Vars)
	if err != nil {
		return nil, err
	}
	report, err := j.session.runner.SolveObserved(ctx, p, SolveOptions{
		StopOnSat:      spec.StopOnSat,
		MaxSubproblems: spec.MaxSubproblems,
	}, sampleObserver(j))
	if report == nil {
		return nil, err
	}
	return &JobResult{Solve: report}, err
}

// JobResult carries a finished job's typed result: exactly one field is
// non-nil, matching the job's kind.
type JobResult struct {
	// Estimate is an EstimateJob's result.
	Estimate *SetEstimate `json:"estimate,omitempty"`
	// Search is a SearchJob's result.
	Search *SearchOutcome `json:"search,omitempty"`
	// Solve is a SolveJob's result.
	Solve *SolveReport `json:"solve,omitempty"`
	// Fleet is a FleetJob's result.
	Fleet *FleetOutcome `json:"fleet,omitempty"`
}

// Job is the handle of one submitted unit of work.  It exposes the job's
// typed progress-event stream (Events/Subscribe), its result (Result) and
// cancellation (Cancel).
type Job struct {
	id      string
	kind    JobKind
	session *Session
	cancel  context.CancelFunc
	log     *eventLog
	done    chan struct{}

	mu     sync.Mutex
	result *JobResult // guarded by mu
	err    error      // guarded by mu
}

// Submit validates the spec, registers a job and starts it asynchronously.
// ctx bounds the job's lifetime (independently of Cancel); pass
// context.Background() for a job that only ends on its own or via Cancel.
func (s *Session) Submit(ctx context.Context, spec JobSpec) (*Job, error) {
	if spec == nil {
		return nil, fmt.Errorf("pdsat: nil job spec")
	}
	if err := spec.validate(s); err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, fmt.Errorf("pdsat: session is closed")
	}
	s.nextID++
	jctx, cancel := context.WithCancel(ctx)
	j := &Job{
		id:      fmt.Sprintf("job-%d", s.nextID),
		kind:    spec.Kind(),
		session: s,
		cancel:  cancel,
		log:     newEventLog(),
		done:    make(chan struct{}),
	}
	s.jobs = append(s.jobs, j)
	s.byID[j.id] = j
	s.mu.Unlock()

	go func() {
		defer cancel()
		result, err := spec.run(jctx, j)
		j.finish(result, err, jctx.Err() != nil)
	}()
	return j, nil
}

// EstimateJob submits an estimation job: Submit with a typed spec.
func (s *Session) EstimateJob(ctx context.Context, spec EstimateJob) (*Job, error) {
	return s.Submit(ctx, spec)
}

// SearchJob submits a search job: Submit with a typed spec.
func (s *Session) SearchJob(ctx context.Context, spec SearchJob) (*Job, error) {
	return s.Submit(ctx, spec)
}

// SolveJob submits a solving job: Submit with a typed spec.
func (s *Session) SolveJob(ctx context.Context, spec SolveJob) (*Job, error) {
	return s.Submit(ctx, spec)
}

// ID returns the job's session-unique identifier ("job-1", "job-2", …).
func (j *Job) ID() string { return j.id }

// Kind returns the job's kind.
func (j *Job) Kind() JobKind { return j.kind }

// Events returns an ordered stream of the job's progress events, from the
// job's start through its terminal Done event, after which the channel is
// closed.  Every call returns a fresh channel replaying the full history,
// so late and concurrent consumers all observe the same ordered stream.
// Abandoning the channel before it closes parks its forwarding goroutine
// for the life of the process (nothing ever cancels its pending send);
// a consumer that may detach early must use Subscribe with a cancellable
// context instead.
func (j *Job) Events() <-chan Event { return j.log.subscribe(nil) }

// Subscribe is Events with a detach handle: the returned channel closes
// when the stream ends or ctx is cancelled, whichever comes first.
func (j *Job) Subscribe(ctx context.Context) <-chan Event { return j.log.subscribe(ctx.Done()) }

// Done returns a channel closed when the job has finished (its result and
// error are then final and the Done event has been emitted).
func (j *Job) Done() <-chan struct{} { return j.done }

// Result blocks until the job finishes (or ctx is cancelled) and returns
// its result.  Both may be non-nil at once: a cancelled estimation returns
// the partial estimate together with the context's error.  Result does not
// cancel the job when ctx expires — it stops waiting.
func (j *Job) Result(ctx context.Context) (*JobResult, error) {
	select {
	case <-j.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.err
}

// finishedResult waits for the job to finish and returns its final result
// and error.  Unlike Result it takes no context: callers use it when the
// wait must be on the job alone (whose own context already makes it finish
// promptly), never racing a second context that could drop the partial
// result of an interrupted run.
func (j *Job) finishedResult() (*JobResult, error) {
	<-j.done
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.err
}

// Cancel asks the job to stop.  Running subproblems receive the solver's
// non-blocking interrupt, the job finishes promptly with a partial result
// where the mode supports one, and the event stream still terminates with
// its single Done event.  Cancel is idempotent and safe after completion.
func (j *Job) Cancel() { j.cancel() }

// Err returns the job's error, or nil while it is still running.
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Finished reports whether the job has completed.
func (j *Job) Finished() bool {
	select {
	case <-j.done:
		return true
	default:
		return false
	}
}

// emit appends an event to the job's stream (dropped once the stream is
// sealed by Done).
func (j *Job) emit(e Event) { j.log.append(e) }

// finish records the result, emits the single terminal Done event and
// seals the stream.  The done channel closes first, so that whoever has seen
// the terminal event finds the job Finished.
func (j *Job) finish(result *JobResult, err error, cancelled bool) {
	j.mu.Lock()
	j.result = result
	j.err = err
	j.mu.Unlock()
	msg := ""
	if err != nil {
		msg = err.Error()
	}
	close(j.done)
	j.log.finish(Done{Job: j.id, Err: msg, Cancelled: cancelled})
}
