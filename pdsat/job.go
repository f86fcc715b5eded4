package pdsat

import (
	"context"
	"fmt"
	"math"
	"sync"

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
// implementations are EstimateJob, SearchJob, SolveJob and FleetJob; each is
// also the JSON body of POST /v1/jobs for its kind, next to a "kind" member
// (see Server and DecodeJobSpec).
type JobSpec interface {
	// Kind returns the job kind.
	Kind() JobKind
	// Validate checks the spec against the session without running
	// anything.  Submit calls it first, so it fails before a job is
	// created; a caller that must refuse a bad spec before the session's
	// transport can run anything (a leader still waiting for its workers)
	// calls it itself.
	Validate(s *Session) error
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

// Validate implements JobSpec.
func (spec EstimateJob) Validate(s *Session) error {
	if spec.Policy != nil {
		if err := spec.Policy.Validate(); err != nil {
			return err
		}
	}
	_, err := s.pointFromVars(spec.Vars)
	return err
}

func (spec EstimateJob) run(ctx context.Context, j *Job) (*JobResult, error) {
	s := j.session
	p, err := s.pointFromVars(spec.Vars)
	if err != nil {
		return nil, err
	}
	// An estimation has no incumbent, so staging and the cache apply but
	// pruning never triggers.
	ev, err := s.objectiveFor(j, s.runner.Scope, s.runner, s.policyFor(spec.Policy), 0).EvaluateF(ctx, p, math.Inf(1))
	if ev == nil {
		return nil, err
	}
	return &JobResult{Estimate: s.setEstimateFrom(p, ev)}, err
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

// searchFunc is a metaheuristic: optimize.TabuSearch or
// optimize.SimulatedAnnealing.
type searchFunc = func(ctx context.Context, obj optimize.Objective, start Point, opts SearchOptions) (*SearchResult, error)

// searchMethod resolves a method spelling of SearchJob.Method or
// FleetMemberSpec.Method to its long name and its search function.
func searchMethod(name string) (string, searchFunc, error) {
	switch name {
	case "sa", "annealing", MethodSimulatedAnnealing:
		return MethodSimulatedAnnealing, optimize.SimulatedAnnealing, nil
	case "", "tabu", MethodTabu:
		return MethodTabu, optimize.TabuSearch, nil
	default:
		return "", nil, fmt.Errorf("pdsat: unknown search method %q", name)
	}
}

// Validate implements JobSpec.
func (spec SearchJob) Validate(s *Session) error {
	if _, _, err := searchMethod(spec.Method); err != nil {
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
	method, search, err := searchMethod(spec.Method)
	if err != nil {
		return nil, err
	}
	start, err := s.pointFromVars(spec.Start)
	if err != nil {
		return nil, err
	}
	// A search alone is a race of one, with one engine for the whole search:
	// the optimizer threads its incumbent through the objective into the
	// engine, which prunes, stages and memoizes according to the job's
	// effective policy.  The runner evaluates in its default scope and reports
	// the session-wide conflict activity.
	run := s.newSearchRun(j, search, start, s.runner.Scope, s.runner, s.policyFor(spec.Policy), 0)
	r := s.race(ctx, []searchRun{run}, optimize.NewIncumbent(), nil)[0]
	if r.err != nil {
		return nil, r.err
	}
	return &JobResult{Search: &SearchOutcome{
		Method:        method,
		SearchSummary: wireBest(r.res),
		WallTime:      r.res.WallTime,
		Result:        r.res,
		Best:          r.best,
	}}, nil
}

// SearchSummary is what a search reports of itself on the wire — in a search
// job's result, in a fleet member's row and in its FleetMemberDone event.
type SearchSummary struct {
	// BestVars and BestValue are the best decomposition set found and its F,
	// both absent if the search finished no evaluation (it was cancelled
	// during its start evaluation: there is no best set, and JSON cannot spell
	// the +Inf it began with).
	BestVars  []Var    `json:"best_vars,omitempty"`
	BestValue *float64 `json:"best_value,omitempty"`
	// Evaluations is the search's objective evaluation count; Stop its stop
	// reason, empty only for a fleet member that failed before it had one.
	Evaluations int    `json:"evaluations"`
	Stop        string `json:"stop,omitempty"`
}

// wireBest summarizes a search result (nil for none) for the wire.
func wireBest(r *SearchResult) SearchSummary {
	if r == nil {
		return SearchSummary{}
	}
	sum := SearchSummary{Evaluations: r.Evaluations, Stop: string(r.Stop)}
	if !math.IsInf(r.BestValue, 1) {
		sum.BestVars, sum.BestValue = r.BestPoint.SortedVars(), &r.BestValue
	}
	return sum
}

// neighborhoodDoneEvent converts an optimizer neighbourhood pass summary
// into the job event.
func neighborhoodDoneEvent(job string, member int, nb optimize.Neighborhood) NeighborhoodDone {
	e := NeighborhoodDone{
		Job:        job,
		Member:     member,
		Center:     nb.Center.SortedVars(),
		Radius:     nb.Radius,
		Candidates: nb.Candidates,
		Evaluated:  nb.Evaluated,
		Pruned:     nb.Pruned,
		Cancelled:  nb.Cancelled,
		Improved:   nb.Improved,
	}
	if !math.IsInf(nb.BestValue, 1) {
		e.BestValue = &nb.BestValue
	}
	return e
}

// SolveJob processes the whole decomposition family induced by a set:
// enumerate every assignment, solve every subproblem.  It emits a
// SampleProgress event per processed subproblem and produces
// JobResult.Solve.
type SolveJob struct {
	// Vars is the decomposition set; empty means the full start set.  More
	// than 2^20 subproblems are refused unless MaxSubproblems bounds them.
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

// Validate implements JobSpec.
func (spec SolveJob) Validate(s *Session) error {
	p, err := s.pointFromVars(spec.Vars)
	if err == nil {
		_, err = runner.FamilyBatch(p.Count(), spec.MaxSubproblems)
	}
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
	}, sampleObserver(j, 0))
	if report == nil {
		return nil, err
	}
	return &JobResult{Solve: report}, err
}

// JobResult carries a finished job's typed result: exactly one field is
// non-nil, matching the job's kind.  It is its own wire form: the "result"
// member of GET /v1/jobs/{id} is json.Marshal of it.
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

// maxFinishedJobs bounds the finished jobs a session retains for replay (see
// Submit).  A variable only so tests can lower it.
var maxFinishedJobs = 1024

// Submit validates the spec, registers a job and starts it asynchronously.
// ctx bounds the job's lifetime (independently of Cancel); pass
// context.Background() for a job that only ends on its own or via Cancel.
//
// A session retains at most maxFinishedJobs finished jobs: beyond that Submit
// evicts the oldest finished ones, as Remove would — their IDs are then
// unknown, over HTTP a 404.  A running job is never evicted, and a retained
// job's event history is kept whole, however long: replay from the start is
// the contract (SampleProgress is decimated at the source instead, see
// maxSampleEvents).
func (s *Session) Submit(ctx context.Context, spec JobSpec) (*Job, error) {
	if spec == nil {
		return nil, fmt.Errorf("pdsat: nil job spec")
	}
	if err := spec.Validate(s); err != nil {
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
	s.evictFinishedLocked()
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
