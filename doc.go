// Package pdsatgo is a from-scratch Go reproduction of
//
//	A. Semenov, O. Zaikin — "Using Monte Carlo Method for Searching
//	Partitionings of Hard Variants of Boolean Satisfiability Problem"
//	(PaCT 2015, arXiv:1507.00862).
//
// The paper solves hard cryptanalysis SAT instances by partitioning: a
// decomposition set X̃ splits the instance C into the 2^|X̃| independent
// subproblems C[X̃/α], the total processing cost of a partitioning is
// estimated by the Monte Carlo method (a predictive function F = 2^d·mean
// over a random sample of subproblems), and metaheuristics minimize F over
// candidate decomposition sets.  See PAPER.md for a complete summary and
// README.md for the architecture and a quickstart.
//
// The public, importable surface is the top-level pdsat package
// (github.com/paper-repro/pdsat-go/pdsat): Problems, Sessions and
// asynchronous jobs (EstimateJob, SearchJob, FleetJob, SolveJob) with typed
// progress-event streams, plus an HTTP/JSON job server (cmd/pdsat -serve).
// Every search runs there as a race: a SearchJob is a race of one, and the
// fleet orchestrator races a FleetJob's searches concurrently over one
// runner/cluster, coupled through a shared incumbent and the session F-cache
// (cmd/pdsat -job examples/jobs/fleet.json).  See that package's
// documentation for the job/event model and the sub-seed reproducibility
// rule.
//
// The substrate lives in internal/ packages, layered bottom-up:
//
//   - cnf, cnfgen: propositional substrate and benchmark formulas
//   - circuit, crypto, encoder: A5/1, Bivium and Grain keystream
//     generators, their circuits and Tseitin CNF encodings
//   - solver: deterministic CDCL with assumptions, conflict activity and
//     reusable sessions (pristine Reset / incremental reuse)
//   - decomp, montecarlo, optimize: decomposition families, the predictive
//     function and its confidence intervals, simulated annealing and tabu
//     search, and the shared incumbent and sub-seed rule that couple
//     racing searches
//   - eval: the budget-aware evaluation engine — incumbent pruning of
//     hopeless candidates, staged adaptive sampling sized by the eq.-3
//     confidence interval, and the cross-search F-memoization cache
//     (policies are set via pdsat.EvalPolicy; the zero policy reproduces
//     full-sample evaluations bit for bit)
//   - cluster: worker transports for the leader/worker architecture — an
//     in-process goroutine pool with persistent solvers, and a TCP
//     network backend with a framed binary codec (worker registration,
//     heartbeats, batched task streams, interrupt broadcast, worker-loss
//     requeue)
//   - pdsat: the paper's MPI leader/worker program PDSAT on top of a
//     cluster transport (estimation and solving modes); cmd/pdsat
//     -listen/-join deploys it across machines
//   - portfolio, expts: the portfolio baseline and the experiment harness
//
// The command-line tools live in cmd/ (pdsat, keygen, dimacs, experiments;
// pdsat prints a job's result as the job API's JSON) and a runnable
// walkthrough of the public API in examples/quickstart.
//
// Every table and figure of the paper's evaluation section is one entry of
// the internal/expts registry; cmd/experiments runs them, and
// BenchmarkExperiments in bench_test.go times each at the quick scale:
//
//	go run ./cmd/experiments -list
//	go test -bench 'BenchmarkExperiments/table1' -benchtime 1x -v .
package pdsatgo
