package pdsat

import (
	"errors"

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

// The library's substrate lives in internal/ packages; the aliases below
// re-export the types a caller needs to configure a Session and interpret
// its results, so the public surface is importable from outside the module.

// Var identifies a CNF variable (1-based, as in DIMACS).
type Var = cnf.Var

// Lit is a CNF literal: +v or -v for a variable v.
type Lit = cnf.Lit

// Formula is a CNF formula.
type Formula = cnf.Formula

// Assignment maps variables to truth values (a model when total).
type Assignment = cnf.Assignment

// Point is the indicator vector of a decomposition set over a search Space.
type Point = decomp.Point

// Space is the ordered universe of candidate decomposition variables.
type Space = decomp.Space

// Estimate is a Monte Carlo estimate of the predictive function
// (F = 2^d · mean over a random sample of subproblem costs).
type Estimate = montecarlo.Estimate

// RunnerConfig configures the leader/worker runner backing a Session:
// sample size, workers, seed, cost metric and an optional cluster
// transport, which must be a cluster.DispatchTransport (see Transport).
// Every solver runs solver.DefaultOptions().
type RunnerConfig = runner.Config

// SolveOptions configure family processing (stop-on-SAT, subproblem cap).
type SolveOptions = runner.SolveOptions

// SolveReport is the outcome of processing a whole decomposition family.
type SolveReport = runner.SolveReport

// Counters is the runner's accounting table (evaluations, the sample
// ledger, dispatch and solver statistics); see SessionStats.
type Counters = runner.Counters

// SearchOptions configure the metaheuristic minimizers (radius, budgets,
// seed, annealing schedule).
type SearchOptions = optimize.Options

// SearchResult is the raw optimizer outcome (best point, trace, stop
// reason).
type SearchResult = optimize.Result

// StopReason describes why a search terminated.
type StopReason = optimize.StopReason

// Search stop reasons, re-exported from the optimizer.
const (
	StopTime          = optimize.StopTime
	StopEvaluations   = optimize.StopEvaluations
	StopTemperature   = optimize.StopTemperature
	StopExhausted     = optimize.StopExhausted
	StopContext       = optimize.StopContext
	StopNoImprovement = optimize.StopNoImprovement
)

// Transport decides where subproblem batches run: a session builds its own
// in-process one unless RunnerConfig.Transport names another, such as the
// cluster leader cmd/pdsat starts with -listen.  The runner sends every batch
// through RunDispatch, so a session's transport must also be a
// cluster.DispatchTransport, as both backends are; NewSession refuses any
// other.
type Transport = cluster.Transport

// ClusterEvent is something that happened among a cluster leader's workers —
// one joined, was refused or was lost, queued tasks were stolen back, a
// speculative duplicate won — as the leader's OnEvent hook reports it and
// Session.PublishClusterEvent forwards it into the running jobs' streams.
type ClusterEvent = cluster.ClusterEvent

// CostMetric selects the cost unit ζ of the predictive function.
type CostMetric = solver.CostMetric

// SolverStats are aggregated CDCL solver counters (conflicts, propagations,
// learned and removed clauses, arena size); see Session.Stats and
// RunnerStats.
type SolverStats = solver.Stats

// Budget bounds the effort spent on a single subproblem.
type Budget = solver.Budget

// EvalPolicy configures the budget-aware evaluation engine: incumbent
// pruning, staged adaptive sampling and the cross-search F-cache.  The zero
// value disables all three and reproduces full-sample evaluations bit for
// bit; DefaultEvalPolicy returns the recommended settings.  Set it on the
// session (RunnerConfig.Policy) or per job (EstimateJob.Policy,
// SearchJob.Policy).
type EvalPolicy = eval.Policy

// EvalCacheStats are the cross-search F-cache's hit/miss/size counters
// (see Session.Stats).
type EvalCacheStats = eval.CacheStats

// DefaultEvalPolicy returns the recommended evaluation policy: pruning on,
// three sample stages with a 10% relative-precision early stop at γ=0.95,
// and the F-cache enabled.
func DefaultEvalPolicy() EvalPolicy { return eval.DefaultPolicy() }

// GeneratorConfig configures an on-the-fly cryptanalysis instance (see
// FromGenerator): keystream length, number of known trailing state bits and
// the secret's seed.
type GeneratorConfig = encoder.Config

// Cost metrics, re-exported from the solver.
const (
	CostConflicts    = solver.CostConflicts
	CostPropagations = solver.CostPropagations
	CostDecisions    = solver.CostDecisions
	CostWallTime     = solver.CostWallTime
)

// Problem is a SAT instance plus the starting decomposition set from which
// partitionings are searched.
type Problem struct {
	// Name identifies the problem in reports.
	Name string
	// Formula is the CNF to be partitioned.
	Formula *Formula
	// StartSet is X̃_start, the initial decomposition set (for cryptanalysis
	// instances: the unknown circuit-input variables, a Strong
	// Unit-Propagation Backdoor Set).
	StartSet []Var
	// Instance optionally carries the cryptanalysis metadata (secret,
	// keystream) enabling end-to-end key checks.
	Instance *encoder.Instance
}

// FromInstance wraps a cryptanalysis instance as a Problem; the start set is
// the instance's unknown start variables.
func FromInstance(inst *encoder.Instance) *Problem {
	return &Problem{
		Name:     inst.Name,
		Formula:  inst.CNF,
		StartSet: inst.UnknownStartVars(),
		Instance: inst,
	}
}

// FromFormula wraps an arbitrary CNF and starting set as a Problem.
func FromFormula(name string, f *Formula, start []Var) *Problem {
	return &Problem{Name: name, Formula: f, StartSet: append([]Var(nil), start...)}
}

// FromGenerator builds a cryptanalysis Problem on the fly from one of the
// paper's keystream generators ("a5/1", "bivium" or "grain").
func FromGenerator(name string, cfg GeneratorConfig) (*Problem, error) {
	gen, err := encoder.ByName(name)
	if err != nil {
		return nil, err
	}
	inst, err := encoder.NewInstance(gen, cfg)
	if err != nil {
		return nil, err
	}
	return FromInstance(inst), nil
}

// FromDIMACSFile parses a DIMACS CNF file and wraps it as a Problem with
// the given starting decomposition set.
func FromDIMACSFile(path string, start []Var) (*Problem, error) {
	f, err := cnf.ParseDIMACSFile(path)
	if err != nil {
		return nil, err
	}
	if len(start) == 0 {
		return nil, errors.New("pdsat: empty starting decomposition set")
	}
	return FromFormula(path, f, start), nil
}

// Space returns the search space over the problem's start set.
func (p *Problem) Space() *Space { return decomp.NewSpace(p.StartSet) }

// KeyValid reports whether a model of the problem's formula recovers the
// secret: whether the register state it assigns reproduces the observed
// keystream.  A problem without an Instance has no keystream to check, so
// nothing is a valid key for it; neither is a model that leaves a start
// variable unassigned.
func (p *Problem) KeyValid(model Assignment) bool {
	if p.Instance == nil {
		return false
	}
	gen, err := encoder.ByName(p.Instance.Generator)
	if err != nil {
		return false
	}
	ok, err := p.Instance.CheckRecoveredState(gen, model)
	return ok && err == nil
}
