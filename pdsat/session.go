package pdsat

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"github.com/paper-repro/pdsat-go/internal/cluster"
	"github.com/paper-repro/pdsat-go/internal/decomp"
	"github.com/paper-repro/pdsat-go/internal/eval"
	"github.com/paper-repro/pdsat-go/internal/montecarlo"
	"github.com/paper-repro/pdsat-go/internal/optimize"
	runner "github.com/paper-repro/pdsat-go/internal/pdsat"
	"github.com/paper-repro/pdsat-go/internal/solver"
)

// Config configures a Session.
type Config struct {
	// Runner configures the PDSAT-style leader/worker runner (sample size,
	// workers, cost metric, optional cluster transport).
	Runner RunnerConfig
	// Search configures the metaheuristic minimizers of search jobs.
	Search SearchOptions
	// Cores is the number of cores used when extrapolating 1-core
	// predictions in reports (480 in the paper's Table 3).
	Cores int
}

// DefaultConfig returns a configuration suitable for the scaled-down
// experiments.
func DefaultConfig() Config {
	return Config{
		Runner: runner.DefaultConfig(),
		Search: SearchOptions{},
		Cores:  480,
	}
}

// Session runs estimation, search and solving jobs for one Problem on one
// shared leader/worker runner.  Jobs are submitted with Submit, or with Run,
// which submits one and waits for it, and report progress through typed
// event streams; see Job.
//
// A Session is safe for concurrent use.  Concurrent jobs share the runner's
// cumulative conflict-activity statistics and its evaluation counter, so
// sample determinism across sessions requires submitting jobs in the same
// order.
type Session struct {
	problem *Problem
	runner  *runner.Runner
	cfg     Config
	space   *decomp.Space
	// fcache is the cross-search F-memoization cache: one per session, so
	// every search and job on the same Problem+Config hits the others'
	// finished evaluations.  Engines attach it only when their effective
	// policy has Cache enabled; it always exists so a per-job policy
	// override can opt in even when the session default has it off.
	fcache *eval.Cache

	mu     sync.Mutex
	jobs   []*Job          // guarded by mu
	byID   map[string]*Job // guarded by mu
	nextID int             // guarded by mu
	closed bool            // guarded by mu
}

// NewSession creates a session for the problem.
func NewSession(p *Problem, cfg Config) (*Session, error) {
	if p == nil || p.Formula == nil {
		return nil, errors.New("pdsat: nil problem")
	}
	if len(p.StartSet) == 0 {
		return nil, errors.New("pdsat: empty starting decomposition set")
	}
	// Every subproblem assumes literals over start variables, and a transport
	// refuses a batch that assumes one its formula does not have.
	for _, v := range p.StartSet {
		if v < 1 || int(v) > p.Formula.NumVars {
			return nil, fmt.Errorf("pdsat: start set variable %d is outside the formula's variables 1..%d", v, p.Formula.NumVars)
		}
	}
	if err := cfg.Runner.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Search.Validate(); err != nil {
		return nil, err
	}
	if cfg.Cores <= 0 {
		cfg.Cores = DefaultConfig().Cores
	}
	return &Session{
		problem: p,
		runner:  runner.NewRunner(p.Formula, cfg.Runner),
		cfg:     cfg,
		space:   decomp.NewSpace(p.StartSet),
		fcache:  eval.NewCache(),
		byID:    make(map[string]*Job),
	}, nil
}

// Problem returns the session's problem.
func (s *Session) Problem() *Problem { return s.problem }

// Space returns the session's search space.
func (s *Session) Space() *Space { return s.space }

// VarActivity returns a variable's conflict activity over every job's solves.
func (s *Session) VarActivity(v Var) float64 { return s.runner.VarActivity(v) }

// Config returns the session configuration.
func (s *Session) Config() Config { return s.cfg }

// Jobs returns every job submitted to the session, in submission order.
func (s *Session) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Job(nil), s.jobs...)
}

// Job returns the job with the given ID, if any.
func (s *Session) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.byID[id]
	return j, ok
}

// Remove evicts a finished job from the session, releasing its retained
// event history and result.  Finished jobs are otherwise kept so late
// subscribers can replay their streams, the newest maxFinishedJobs of them
// (see Submit).  Removing a running job is an error: cancel it and wait for
// its Done first.
func (s *Session) Remove(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.byID[id]
	if !ok {
		return fmt.Errorf("pdsat: no job %q", id)
	}
	if !j.Finished() {
		return fmt.Errorf("pdsat: job %q is still running (cancel it first)", id)
	}
	delete(s.byID, id)
	for i, other := range s.jobs {
		if other == j {
			s.jobs = append(s.jobs[:i], s.jobs[i+1:]...)
			break
		}
	}
	return nil
}

// evictFinishedLocked drops the oldest finished jobs beyond maxFinishedJobs.
//
// requires mu
func (s *Session) evictFinishedLocked() {
	excess := -maxFinishedJobs
	for _, j := range s.jobs {
		if j.Finished() {
			excess++
		}
	}
	if excess <= 0 {
		return
	}
	s.jobs = slices.DeleteFunc(s.jobs, func(j *Job) bool {
		if excess <= 0 || !j.Finished() {
			return false
		}
		excess--
		delete(s.byID, j.id)
		return true
	})
}

// Close cancels every running job and waits for them to finish.  Further
// Submit calls fail.  Close does not close a caller-provided transport (its
// creator owns its lifetime).
func (s *Session) Close() error {
	s.mu.Lock()
	s.closed = true
	jobs := append([]*Job(nil), s.jobs...)
	s.mu.Unlock()
	for _, j := range jobs {
		j.Cancel()
	}
	for _, j := range jobs {
		<-j.Done()
	}
	return nil
}

// PublishClusterEvent broadcasts what happened in the cluster to every
// running job's stream as a WorkerEvent of the same kind, worker and count
// (a refused worker concerns no job).  Wire it to the cluster leader's
// OnEvent hook on a network transport.
func (s *Session) PublishClusterEvent(ev ClusterEvent) {
	if ev.Kind == cluster.WorkerRefused {
		return
	}
	for _, j := range s.Jobs() {
		if !j.Finished() {
			j.emit(WorkerEvent{Kind: ev.Kind, Job: j.id, Worker: ev.Worker, Count: ev.Count})
		}
	}
}

// pointFromVars resolves a job spec's variable list: nil or empty means the
// full start set.
func (s *Session) pointFromVars(vars []Var) (Point, error) {
	if len(vars) == 0 {
		return s.space.FullPoint(), nil
	}
	return s.space.PointFromVars(vars)
}

// SetEstimate describes the predicted cost of processing the partitioning
// induced by one decomposition set.
type SetEstimate struct {
	// Vars is the decomposition set (sorted by variable index).
	Vars []Var `json:"vars"`
	// Estimate is the Monte Carlo estimate; Estimate.Value is the 1-core
	// predictive function value F.
	Estimate Estimate `json:"estimate"`
	// PerCores is the extrapolation of the prediction to Cores cores.
	PerCores float64 `json:"per_cores"`
	// Cores echoes the core count used for PerCores.
	Cores int `json:"cores"`
	// SatisfiableSamples counts satisfiable subproblems in the sample.
	SatisfiableSamples int `json:"satisfiable_samples"`
	// WallTime is the time spent computing the estimate.
	WallTime time.Duration `json:"wall_time_ns"`
	// Interrupted reports whether the estimation was cancelled before the
	// full sample was processed; the estimate is then partial (computed
	// from the subproblems that did complete).
	Interrupted bool `json:"interrupted"`
	// EarlyStopped reports that the evaluation policy's staged sampling
	// stopped before the full sample because the eq.-3 confidence
	// half-width met the ε target; the estimate remains unbiased, just
	// over fewer samples.
	EarlyStopped bool `json:"early_stopped,omitempty"`
	// CacheHit reports that the estimate was served from the session's
	// cross-search F-cache without solving anything (WallTime is then the
	// original evaluation's).
	CacheHit bool `json:"cache_hit,omitempty"`
	// SamplesPlanned is the configured sample size N; Estimate.SampleSize
	// is the number actually solved; SamplesAborted counts subproblems cut
	// short by a batch abort or cancellation; SamplesCensored counts solved
	// samples that ended without an answer at the runner's per-subproblem
	// budget, whose cost is that cap rather than the subproblem's.  With
	// SamplesCensored > 0 the estimate's value is a restricted-mean lower
	// bound on F, not an estimate of it, and a search never takes such a set
	// as its best.
	SamplesPlanned  int `json:"samples_planned,omitempty"`
	SamplesAborted  int `json:"samples_aborted,omitempty"`
	SamplesCensored int `json:"samples_censored,omitempty"`
}

// policyFor resolves a job spec's optional policy override against the
// session default (the runner configuration's policy).
func (s *Session) policyFor(override *EvalPolicy) EvalPolicy {
	if override != nil {
		return *override
	}
	return s.cfg.Runner.Policy
}

// objectiveFor builds the engine-backed objective for one search member of a
// job, or for the job's single estimate (member 0 on the runner's default
// scope): the scope as backend, the session's shared F-cache (when the policy
// enables it), and member-tagged sample-progress, pruning and cache-hit
// notifications wired into the job's event stream.  activity is where a tabu
// search reads conflict activity: the runner (session-wide) for a plain
// search, the member's own scope in a fleet.
func (s *Session) objectiveFor(j *Job, scope *runner.Scope, activity optimize.ActivitySource, pol EvalPolicy, member int) *runner.Objective {
	obj := runner.NewObjective(scope, activity, pol, s.fcache, sampleObserver(j, member))
	obj.OnPruned = func(p Point, ev eval.Evaluation) {
		j.emit(EvalPruned{
			Job:            j.id,
			Member:         member,
			Vars:           p.SortedVars(),
			Incumbent:      ev.Value,
			SamplesSolved:  ev.SamplesSolved,
			SamplesPlanned: ev.SamplesPlanned,
		})
	}
	obj.OnCacheHit = func(p Point, ev eval.Evaluation) {
		j.emit(CacheHit{Job: j.id, Member: member, Vars: p.SortedVars(), Value: ev.Value, Pruned: ev.Pruned})
	}
	return obj
}

// setEstimateFrom renders an engine evaluation as a SetEstimate.
func (s *Session) setEstimateFrom(p Point, ev *eval.Evaluation) *SetEstimate {
	return &SetEstimate{
		Vars:               p.SortedVars(),
		Estimate:           ev.Estimate,
		PerCores:           montecarlo.ExtrapolateCores(ev.Estimate.Value, s.cfg.Cores),
		Cores:              s.cfg.Cores,
		SatisfiableSamples: ev.SatisfiableSamples,
		WallTime:           ev.WallTime,
		Interrupted:        ev.Interrupted,
		EarlyStopped:       ev.EarlyStopped,
		CacheHit:           ev.CacheHit,
		SamplesPlanned:     ev.SamplesPlanned,
		SamplesAborted:     ev.SamplesAborted,
		SamplesCensored:    ev.SamplesCensored,
	}
}

// SessionStats aggregates the session's evaluation-engine counters: how
// much solving the predictive-function evaluations cost so far and how much
// the policy mechanisms saved.
type SessionStats struct {
	// Counters is the runner's accounting table over all jobs: evaluations
	// and pruned evaluations, subproblems solved and aborted, the sample
	// ledger (SamplesPlanned == SubproblemsSolved + SubproblemsAborted +
	// SamplesSkipped for sessions running only estimations and searches;
	// Solve jobs process decomposition families outside the sample ledger
	// but inside the solved/aborted counters), the dispatch layer's steal
	// and speculation counts, and Solver, the summed CDCL statistics.  It
	// is one snapshot: the ledger never reads overdrawn while jobs run.
	Counters
	// Cache is the cross-search F-cache's hit/miss/size counters.
	Cache eval.CacheStats `json:"cache"`
}

// Stats returns a snapshot of the session's evaluation-engine counters.
func (s *Session) Stats() SessionStats {
	return SessionStats{Counters: s.runner.Counters(), Cache: s.fcache.Stats()}
}

// maxSampleEvents bounds the SampleProgress notifications emitted per
// batch.  Event histories are retained for replay until the job is
// removed, so an unthrottled solve of the largest family runner.FamilyBatch
// accepts would pin 2^20 events per job, one per subproblem; batches larger
// than this emit evenly spaced notifications instead (satisfiable results
// and the batch's last result are always reported).  A variable only so
// tests can exercise the decimation on small batches.
var maxSampleEvents = 8192

// sampleObserver converts runner progress into the job's SampleProgress
// events, tagged with the fleet member (0 outside a fleet), decimating
// oversized batches to at most ~maxSampleEvents notifications.
func sampleObserver(j *Job, member int) func(runner.Progress) {
	return func(p runner.Progress) {
		stride := p.Total / maxSampleEvents
		sat := p.Result.Status == solver.Sat
		if stride > 1 && !sat && p.Done != p.Total && p.Done%stride != 0 {
			return
		}
		j.emit(SampleProgress{
			Job:         j.id,
			Member:      member,
			Done:        p.Done,
			Total:       p.Total,
			Cost:        p.Result.Cost,
			Satisfiable: sat,
			Solved:      p.Result.Started,
		})
	}
}

// SearchOutcome is the result of a decomposition-set search.
type SearchOutcome struct {
	// Method names the metaheuristic ("simulated annealing" or "tabu search").
	Method string `json:"method"`
	// SearchSummary is what the wire carries of Result: best set, best F,
	// evaluations, stop reason.
	SearchSummary
	// WallTime is the elapsed time of the search.
	WallTime time.Duration `json:"wall_time_ns"`
	// Result is the raw optimizer result (best point, trace, stop reason); its
	// points hold unexported search-space state and stay off the wire.
	Result *SearchResult `json:"-"`
	// Best is the estimate of the best point found.
	Best *SetEstimate `json:"best_estimate,omitempty"`
}

// Comparison relates a prediction with the measured cost of actually
// processing the decomposition family (one row of Table 3).
type Comparison struct {
	// Problem names the instance.
	Problem string
	// SetSize is |X̃_best|.
	SetSize int
	// Predicted1Core is the predictive function value F (1 CPU core).
	Predicted1Core float64
	// PredictedKCores is F divided by Cores.
	PredictedKCores float64
	// Cores is the extrapolation core count.
	Cores int
	// MeasuredTotal is the measured cost of processing the whole family
	// (1-core sequential units, same metric as the prediction).
	MeasuredTotal float64
	// MeasuredToFirstSat is the measured cost until the first satisfiable
	// subproblem.
	MeasuredToFirstSat float64
	// FoundSat reports whether a satisfiable subproblem (a key) was found.
	FoundSat bool
	// KeyValid reports whether the recovered state reproduces the observed
	// keystream (only meaningful when the problem carries an Instance).
	KeyValid bool
	// Deviation is |MeasuredTotal-Predicted1Core| / Predicted1Core.
	Deviation float64
	// WallTime is the wall-clock time of the solving run.
	WallTime time.Duration
}

// PredictAndSolve estimates the partitioning induced by the decomposition
// set and then actually processes the whole family — Run of an EstimateJob,
// then of a SolveJob, over the same set (empty means the full start set) —
// returning the prediction-versus-measurement comparison of Table 3.
func (s *Session) PredictAndSolve(ctx context.Context, vars []Var) (*Comparison, error) {
	predicted, err := s.Run(ctx, EstimateJob{Vars: vars})
	if err != nil {
		return nil, err
	}
	solved, err := s.Run(ctx, SolveJob{Vars: vars})
	if err != nil {
		return nil, err
	}
	est, report := predicted.Estimate, solved.Solve
	return &Comparison{
		Problem:            s.problem.Name,
		SetSize:            len(est.Vars),
		Predicted1Core:     est.Estimate.Value,
		PredictedKCores:    est.PerCores,
		Cores:              est.Cores,
		MeasuredTotal:      report.TotalCost,
		MeasuredToFirstSat: report.CostToFirstSat,
		FoundSat:           report.FoundSat,
		KeyValid:           report.FoundSat && s.problem.KeyValid(report.Model),
		Deviation:          montecarlo.RelativeDeviation(est.Estimate.Value, report.TotalCost),
		WallTime:           report.WallTime,
	}, nil
}

// Run submits the spec and waits for the job to finish: the synchronous twin
// of Submit.  It returns the job's result and error, and both can be non-nil
// at once — a cancelled estimation returns its partial estimate (marked
// Interrupted) together with the context's error, so Ctrl-C still yields a
// report.  A cancelled ctx propagates into the job and makes it finish
// promptly, so the wait is on the job itself, never racing ctx, which would
// drop that partial result.
func (s *Session) Run(ctx context.Context, spec JobSpec) (*JobResult, error) {
	j, err := s.Submit(ctx, spec)
	if err != nil {
		return nil, err
	}
	return j.finishedResult()
}
