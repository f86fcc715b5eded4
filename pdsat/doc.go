// Package pdsat is the public, job-oriented API of the library: it ties the
// SAT substrate, the cryptanalysis encodings, the Monte Carlo estimator,
// the metaheuristic minimizers and the leader/worker runner into the
// workflow of the paper (Semenov & Zaikin, PaCT 2015), exposed as
// asynchronous jobs with typed progress-event streams.
//
//  1. Build a SAT instance together with its starting decomposition set
//     (Problem: FromGenerator, FromDIMACSFile, FromInstance, FromFormula).
//  2. Open a Session for it (NewSession).  The session owns one
//     leader/worker runner — in-process goroutine workers by default, or a
//     network cluster via Config.Runner.Transport, which must be a
//     cluster.DispatchTransport as both backends are.  A network leader
//     rebalances on its own: it steals queued subproblems from a backlogged
//     worker, duplicates a batch's last running ones onto idle slots and
//     sizes worker queues from the solve times it measures (task_stolen and
//     speculation_won WorkerEvents, the tasks_stolen/speculative_duplicates/
//     speculation_wins counters of Session.Stats, which is one snapshot of
//     the runner's Counters beside the F-cache's).  None of it is
//     configurable and none of it changes a fixed-seed result.
//  3. Submit work as jobs: EstimateJob evaluates the predictive function F
//     for a decomposition set, SearchJob minimizes F with simulated
//     annealing or tabu search, FleetJob races several searches
//     concurrently over the same runner, SolveJob processes a whole
//     decomposition family (key recovery).
//  4. Follow a job through its typed event stream (Job.Events):
//     SampleProgress per solved subproblem (evenly sampled on very large
//     families), SearchVisit per optimizer step, a WorkerEvent per worker
//     joined, lost, stolen from or winning a speculation on the cluster
//     leader (its one OnEvent hook, forwarded with
//     Session.PublishClusterEvent; cmd/pdsat logs each as a slog record),
//     and a single terminal Done — also on cancellation.  Collect the
//     result with Job.Result, interrupt with Job.Cancel.
//
// Estimation and solving runs of real instances take hours to days; the
// job model is what lets a caller watch them progress and interrupt them
// without losing the partial result.  For quick scripts Session.Run submits a
// job of any kind and waits for it, returning what Job.Result would — a
// cancelled estimation's partial estimate together with the context's error —
// and PredictAndSolve is two Runs, an EstimateJob then a SolveJob, compared
// as one row of the paper's Table 3 (Problem.KeyValid checks the recovered
// key).
//
// # Evaluation policies
//
// One evaluation of F costs N subproblem solves (paper §3), so an
// EvalPolicy — set session-wide via RunnerConfig.Policy or per job via
// EstimateJob.Policy/SearchJob.Policy — lets the evaluation engine spend
// less where full precision buys nothing, with each knob mapping back to a
// device of the paper:
//
//   - Prune (the paper's per-subproblem time limits): abort an evaluation
//     as soon as its partial lower bound 2^d·(Σζ)/N exceeds the best F the
//     search has seen; the cluster leader cancels only that batch on the
//     workers, and later tasks carry a solver budget capped at the
//     remaining allowance.
//   - Stages/Epsilon/Gamma (the eq.-3 CLT confidence interval): solve the
//     sample in geometric stages and stop once the confidence half-width
//     δ_γ·σ/√n falls to ε·mean.
//   - Cache: a point-keyed F-memoization cache owned by the Session and
//     shared across its searches and jobs; hit/miss counters are reported
//     by Session.Stats and GET /v1/stats.
//
// Policy activity is visible in the event stream (EvalPruned, CacheHit;
// SearchVisit.Pruned flags visits valued at the incumbent they were pruned
// against, the one fact a prune certifies being F above it).  The zero EvalPolicy
// disables every mechanism and reproduces full-sample evaluations bit for
// bit; DefaultEvalPolicy returns the recommended settings.
//
// # Search fleets
//
// The paper compares simulated annealing and tabu search as separate
// PDSAT runs; a FleetJob races K searches concurrently against the
// session's single runner/cluster instead — mixed strategies from one start
// set, deterministic per-member sub-seeds — coupled through a global atomic
// incumbent (every member's best F tightens the pruning bound of every
// other member's evaluations) and the session F-cache.  Member i's
// randomness derives from the root seed r by the SubSeed rule: evaluation
// sampling SubSeed(r,3i), search walk SubSeed(r,3i+1); stream 3i+2 is
// unused.  Every search of a job runs through one race: a SearchJob is a
// race of one on the runner's default scope, a FleetJob a race of one
// search per member, each on its own scope.  Every member runs to its own
// budget or stop; only a hard error ends the race early.  So a SearchJob
// under matching seeds is bit-identical to the member of a fleet of one,
// and a fixed-seed fleet's per-member results are deterministic regardless
// of interleaving whenever the policy's cross-member couplings (Prune,
// Cache) are off.  A fleet of one, and so a SearchJob, is timing-independent
// under Prune too when the cache is off or no other job runs on the session
// at the same time (the F-cache is the session's, shared by every job), while
// a larger fleet still couples its members through the shared incumbent and
// cache.  Fleet streams add member-tagged events plus
// FleetMemberDone and IncumbentImproved, and MaxEvaluations is a
// fleet-total budget split fairly.
//
// # One candidate at a time
//
// A search walks its neighbourhoods in passes — a whole tabu neighbourhood,
// or one annealing candidate — and evaluates their candidates one at a time,
// each drawn just before it is evaluated, each drawing the next evaluation
// slot and pruning against
// the best F certified before it; PDSAT keeps the cores busy with the N
// subproblems of that one evaluation.  Every completed pass emits a
// NeighborhoodDone event with its counters.  Concurrency lives between
// searches and jobs: fleet members and concurrently submitted jobs share the
// transport.  EvalPolicy.MaxConcurrentEvals ("max_concurrent_evals") must be
// 0 or 1: wider passes evaluated several candidates at once, bought no wall
// clock on either backend and made which candidates got pruned depend on
// timing, so they were removed, and a wider value is refused.
//
// # One description, one report
//
// The spec structs are the wire form of a submission — the body of POST
// /v1/jobs is a "kind" beside the JSON members of that kind's spec, decoded
// strictly: an unknown member, one of another kind or trailing bytes are
// refused — and JobResult is the wire form of a result: the "result" of GET
// /v1/jobs/{id} is json.Marshal of it.  cmd/pdsat reads the same body from
// the file named by -job, decodes it with DecodeJobSpec, the server's
// decoder, is a client of Session.Submit like any other, and prints
// json.Marshal of the JobResult and of Session.Stats, the bodies the server
// returns for that job and for GET /v1/stats.  A session
// retains its newest 1024 finished jobs for replay and evicts older finished
// ones as jobs are submitted, never a running one; a retained job's event
// history is kept whole.
//
// Server exposes the same API over HTTP/JSON (submit, stream events as
// NDJSON or SSE, fetch results, cancel); `pdsat -serve :8080` serves it
// from the command line.  See the package example and README.md for
// walkthroughs.
package pdsat
