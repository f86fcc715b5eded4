package main

import (
	"github.com/paper-repro/pdsat-go/internal/cnf"
	"github.com/paper-repro/pdsat-go/internal/eval"
	"github.com/paper-repro/pdsat-go/internal/solver"
)

// jobKind is one step of a workload's timed job sequence.
type jobKind int

const (
	// jobEstimate is one Session.EstimateJob on the step's variables.
	jobEstimate jobKind = iota
	// jobSearch is one tabu Session.SearchJob from the full start set.
	jobSearch
	// jobPredictSolve is one Session.PredictAndSolve on the step's variables
	// (an EstimateJob followed by a SolveJob over the whole family).
	jobPredictSolve
)

// jobStep is one step of the timed job sequence; vars is the decomposition
// set (nil means the full start set).
type jobStep struct {
	kind jobKind
	vars []cnf.Var
}

// workload is one fixed-seed benchmark workload: an instance recipe, a
// session configuration and the job sequence timed on it.  Everything not
// named here stays at pdsat.DefaultConfig, so a flipped default shows up.
type workload struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json).
	why string
	// generator, keystream and knownSuffix describe the instance; the secret
	// comes from the run's seed.
	generator   string
	keystream   int
	knownSuffix int
	// cases is the number of seed-derived inputs a run measures.
	cases int
	// pinSecret, when non-zero, takes the cases' secrets from a fixed panel
	// (pinSecret + 1000·case) instead of the run's seed.
	pinSecret int64
	// tcp runs the batches through a loopback cluster.Leader with two
	// one-slot workers instead of the in-process transport.
	tcp bool
	// sample is N; policy the session's evaluation policy; maxEvals the
	// search's evaluation budget.
	sample   int
	policy   eval.Policy
	maxEvals int
	// budget bounds the effort spent on one subproblem (zero: unlimited).
	budget solver.Budget
	// steps builds the timed job sequence from the instance's unknown start
	// variables.
	steps func(start []cnf.Var) []jobStep
}

// zeroPolicy reports whether every planned subproblem is solved to
// completion, which makes the solver effort counters repeat exactly for a
// fixed seed.
func (w workload) zeroPolicy() bool { return !w.policy.Enabled() }

// sizes are the workload parameters that set how long one repetition runs.
type sizes struct {
	// cases is the number of seed-derived inputs of every workload: what a
	// search costs hangs on its seed (±9% for one of them), and more cases
	// average that out where more rounds over fewer cases do not (README,
	// Steadiness).
	cases int
	// searchEvals is MaxEvaluations of the two A5/1 searches, searchN
	// their N.
	searchEvals, searchN int
	// estimateN is N of bivium-estimate-tcp; estimateJobs its job count.
	estimateN, estimateJobs int
	// solveSuffix is a51-solve's KnownSuffix, solveBits the size of its
	// decomposition set and solveN its N.
	solveSuffix, solveBits, solveN int
	// hardSuffix is bivium-hard's KnownSuffix, hardBits the size of its
	// decomposition set and hardN its N.
	hardSuffix, hardBits, hardN int
	// hardConflicts is bivium-hard's per-subproblem conflict budget.
	hardConflicts uint64
}

// benchSizes give repetitions of one and a half to two seconds on a 2-core
// machine, so that a 25-second run repeats each of its four cases three or
// four times.
var benchSizes = sizes{
	cases:       4,
	searchEvals: 64, searchN: 100,
	estimateN: 2500, estimateJobs: 6,
	solveSuffix: 38, solveBits: 8, solveN: 32,
	hardSuffix: 36, hardBits: 4, hardN: 2, hardConflicts: 24000,
}

// tinySizes keep every layer in play but finish in a fraction of a second
// per workload; the unit tests run them.
var tinySizes = sizes{
	cases:       2,
	searchEvals: 8, searchN: 20,
	estimateN: 60, estimateJobs: 2,
	solveSuffix: 44, solveBits: 4, solveN: 8,
	hardSuffix: 60, hardBits: 2, hardN: 2, hardConflicts: 200,
}

// lastVars returns the last n variables of start.
func lastVars(start []cnf.Var, n int) []cnf.Var { return start[len(start)-n:] }

// workloads returns the five workloads at the given sizes.  Their names are
// fixed: later issues cite them.
func workloads(sz sizes) []workload {
	search := func(name, why string, tcp bool) workload {
		return workload{
			name: name, why: why,
			generator: "a5/1", keystream: 96, knownSuffix: 34,
			tcp: tcp, sample: sz.searchN, policy: eval.DefaultPolicy(), maxEvals: sz.searchEvals,
			steps: func([]cnf.Var) []jobStep { return []jobStep{{kind: jobSearch}} },
		}
	}
	ws := []workload{
		search("a51-search",
			"tabu search on a real A5/1 landscape in process: optimize, eval pruning/staging/cache and pdsat sampling carry a large share, the solver runs thousands of Reset + short solves",
			false),
		search("a51-search-tcp",
			"the same search over TCP loopback: many small batches and mid-batch aborts on the wire, the latency use of cluster; must return the same best F and set as a51-search",
			true),
		{
			name:      "bivium-estimate-tcp",
			why:       "estimates of propagation-only Bivium subproblems in large batches over TCP loopback: gob, wire bytes and leader bookkeeping per task dominate, the throughput use of cluster",
			generator: "bivium", keystream: 200, knownSuffix: 57,
			tcp: true, sample: sz.estimateN,
			steps: func(start []cnf.Var) []jobStep {
				steps := make([]jobStep, sz.estimateJobs)
				for i := range steps {
					steps[i] = jobStep{kind: jobEstimate, vars: start[:len(start)-i]}
				}
				return steps
			},
		},
		{
			name:      "a51-solve",
			why:       "predict, then solve a whole family of medium-length CDCL subproblems in process (Table 3 protocol): nearly all CPU in the solver, dispatch negligible; no change expected from cluster or eval work",
			generator: "a5/1", keystream: 96, knownSuffix: sz.solveSuffix,
			// One A5/1 secret in three has a handful of subproblems that take a
			// hundred times the median (README, findings); solving a whole
			// family then costs 3 to 12 times more, and a benchmark that re-drew
			// the secret per seed would measure the draw.  The panel from 1007
			// on has no such secret in its first cases.
			pinSecret: 1007,
			sample:    sz.solveN,
			steps: func(start []cnf.Var) []jobStep {
				return []jobStep{{kind: jobPredictSolve, vars: lastVars(start, sz.solveBits)}}
			},
		},
		{
			name:      "bivium-hard",
			why:       "a few long Bivium solves with a growing learned-clause database and reduceDB in process: the solver used the opposite way to the searches' short Reset-dominated solves",
			generator: "bivium", keystream: 200, knownSuffix: sz.hardSuffix,
			// The same number of conflicts takes up to a third longer on one
			// Bivium secret than on another (longer learned clauses), which a
			// few cases cannot average out.
			pinSecret: 1007,
			sample:    sz.hardN,
			budget:    solver.Budget{MaxConflicts: sz.hardConflicts},
			steps: func(start []cnf.Var) []jobStep {
				return []jobStep{{kind: jobEstimate, vars: lastVars(start, sz.hardBits)}}
			},
		},
	}
	for i := range ws {
		ws[i].cases = sz.cases
	}
	return ws
}
