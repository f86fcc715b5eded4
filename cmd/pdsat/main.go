// Command pdsat reproduces the modes of the MPI program PDSAT used in the
// paper (estimate F, search for a set, solve the family, plus a fleet race
// of searches) on top of the library's leader/worker runner.  It runs the
// job in the file named by -job, a POST /v1/jobs body decoded by the job
// API's own decoder (examples/jobs holds one of each kind); without -job it
// estimates F for the start set.  It prints the result as the job API does,
// one line of JSON each: "result: " and the result member of GET
// /v1/jobs/{id}, "stats: " and the body of GET /v1/stats.  The other flags
// describe the session: the SAT instance, generated from a keystream
// generator (-generator, -known, -keystream, -seed) or read from a DIMACS
// file (-cnf) with its start set (-start), and the runner.  -serve serves
// the job API on that session.
//
// By default the subproblems run on in-process goroutine workers.  The same
// binary can also form a network cluster, mirroring the paper's MPI
// deployment: a leader listens with -listen and dispatches every subproblem
// to remote workers, and a worker joins a leader with -join (the session
// flags are then ignored — the leader ships the formula over the wire):
//
//	pdsat -listen :9100 -min-workers 2 -job solve.json ...   # terminal 1 (leader)
//	pdsat -join leaderhost:9100 -workers 8                   # terminal 2..n (workers)
//
// SIGINT/SIGTERM interrupt the workers cleanly (non-blocking interrupt
// messages, like PDSAT's) and still print a partial report.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/paper-repro/pdsat-go/internal/cluster"
	"github.com/paper-repro/pdsat-go/internal/solver"
	"github.com/paper-repro/pdsat-go/pdsat"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "pdsat: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		jobPath    = flag.String("job", "", `run the job in this JSON file, a POST /v1/jobs body (default {"kind":"estimate"}, F of the start set)`)
		generator  = flag.String("generator", "a5/1", "keystream generator: a5/1, bivium or grain (ignored with -cnf)")
		keystream  = flag.Int("keystream", 0, "keystream length (0 = paper default)")
		known      = flag.Int("known", 0, "number of trailing state bits fixed to their secret values")
		seed       = flag.Int64("seed", 1, "random seed (instance secret, samples and search)")
		cnfPath    = flag.String("cnf", "", "solve a DIMACS file instead of a generated instance")
		startList  = flag.String("start", "", "comma-separated start-set variables (required with -cnf)")
		samples    = flag.Int("samples", 200, "Monte Carlo sample size N")
		evals      = flag.Int("evaluations", 50, "maximum predictive-function evaluations a search makes; each fleet member's unless the fleet sets max_evaluations")
		workers    = flag.Int("workers", 0, "computing processes (0 = all CPUs)")
		cores      = flag.Int("cores", 480, "core count for extrapolated predictions")
		metric     = flag.String("cost", "propagations", "cost metric: conflicts, propagations, decisions or seconds")
		budget     = flag.Uint64("subproblem-conflicts", 0, "conflict budget per sampled subproblem (0 = unlimited)")
		timeout    = flag.Duration("timeout", 0, "overall wall-clock limit (0 = none)")
		listen     = flag.String("listen", "", "act as cluster leader: listen for remote workers on this address and dispatch all subproblems to them")
		join       = flag.String("join", "", "act as remote cluster worker: connect to a leader at this address and serve subproblems (-workers slots)")
		minWorkers = flag.Int("min-workers", 1, "with -listen, wait for this many remote workers before starting")
		serve      = flag.String("serve", "", "serve the job API over HTTP on this address (e.g. :8080) instead of running one -job; combines with -listen")
		debugAddr  = flag.String("debug-addr", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060) while the process runs, as leader, worker or server alike (empty = off)")
	)
	flag.Parse()

	switch {
	case *join != "" && *listen != "":
		return fmt.Errorf("-listen and -join are mutually exclusive")
	case *jobPath != "" && *join != "":
		return fmt.Errorf("-job and -join are mutually exclusive: a worker runs the leader's jobs")
	case *jobPath != "" && *serve != "":
		return fmt.Errorf("-job and -serve are mutually exclusive: a server runs the jobs posted to /v1/jobs")
	}

	ctx, cancel := signalContext(*timeout)
	defer cancel()

	_, stopDebug, err := startDebug(*debugAddr)
	if err != nil {
		return err
	}
	defer stopDebug()

	if *join != "" {
		return runWorker(ctx, *join, *workers)
	}

	// The spec is read before the instance is built: a malformed one fails
	// without encoding a cipher.
	spec, err := readJob(*jobPath)
	if err != nil {
		return err
	}

	costMetric, err := parseMetric(*metric)
	if err != nil {
		return err
	}

	problem, err := buildProblem(*cnfPath, *startList, *generator, *keystream, *known, *seed)
	if err != nil {
		return err
	}

	cfg := pdsat.Config{
		Runner: pdsat.RunnerConfig{
			SampleSize:       *samples,
			Workers:          *workers,
			Seed:             *seed,
			CostMetric:       costMetric,
			SubproblemBudget: solver.Budget{MaxConflicts: *budget},
		},
		Search: pdsat.SearchOptions{Seed: *seed, MaxEvaluations: *evals},
		Cores:  *cores,
	}

	// With -listen, every cluster event is logged, and forwarded into the
	// event streams of whatever jobs are running once the session exists.
	var sessionRef atomic.Pointer[pdsat.Session]
	var leader *cluster.Leader
	if *listen != "" {
		leader, err = cluster.Listen(*listen, problem.Formula, cluster.LeaderOptions{
			OnEvent: func(ev cluster.ClusterEvent) {
				logEvent(ev)
				if s := sessionRef.Load(); s != nil {
					s.PublishClusterEvent(ev)
				}
			},
		})
		if err != nil {
			return err
		}
		defer leader.Close()
		cfg.Runner.Transport = leader
	}

	// The session checks -start against the formula and the spec against
	// the session: a bad list is reported here, not after -min-workers
	// workers have joined (a leader queues a submitted batch until they do).
	session, err := pdsat.NewSession(problem, cfg)
	if err != nil {
		return err
	}
	sessionRef.Store(session)
	if err = spec.Validate(session); err != nil {
		return fmt.Errorf("-job %s: %w", *jobPath, err)
	}

	if leader != nil {
		fmt.Printf("cluster: leader listening on %s, waiting for %d worker(s)\n",
			leader.Addr(), *minWorkers)
		if werr := leader.WaitForWorkers(ctx, *minWorkers); werr != nil {
			return werr
		}
		fmt.Printf("cluster: %d worker(s) joined, %d slot(s) total\n",
			leader.WorkerCount(), leader.Workers())
	}

	fmt.Printf("instance %s: %d variables, %d clauses, start set of %d variables, costs in %s\n",
		problem.Name, problem.Formula.NumVars, problem.Formula.NumClauses(), len(problem.StartSet), costMetric)

	if *serve != "" {
		return runServe(ctx, session, *serve)
	}

	if err = printJSON("job "+string(spec.Kind()), spec); err != nil {
		return err
	}
	return runJob(ctx, session, spec)
}

// readJob decodes the -job file with the job API's own decoder; without a
// file the job is an estimate of F for the whole start set.
func readJob(path string) (pdsat.JobSpec, error) {
	if path == "" {
		return pdsat.EstimateJob{}, nil
	}
	body, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("-job: %w", err)
	}
	spec, err := pdsat.DecodeJobSpec(body)
	if err != nil {
		return nil, fmt.Errorf("-job %s: %w", path, err)
	}
	return spec, nil
}

// runJob runs the job and prints its result as the job API spells it: the
// result member of GET /v1/jobs/{id} and the body of GET /v1/stats.
// Interrupted (SIGINT, -timeout), the job still finishes, with what it has,
// and its error is printed first.  A solve that recovered the state of a
// generated instance also says whether that state reproduces the keystream,
// which no JSON member carries.
func runJob(ctx context.Context, session *pdsat.Session, spec pdsat.JobSpec) error {
	res, runErr := session.Run(ctx, spec)
	if res == nil {
		return runErr
	}
	if runErr != nil {
		fmt.Printf("error: %v\n", runErr)
	}
	if err := printJSON("result", res); err != nil {
		return err
	}
	if err := printJSON("stats", session.Stats()); err != nil {
		return err
	}
	if p := session.Problem(); res.Solve != nil && res.Solve.FoundSat && p.Instance != nil {
		fmt.Printf("recovered state reproduces keystream: %v\n", p.KeyValid(res.Solve.Model))
	}
	return nil
}

// printJSON prints the label and json.Marshal of v on one line.
func printJSON(label string, v any) error {
	body, err := json.Marshal(v)
	if err == nil {
		fmt.Printf("%s: %s\n", label, body)
	}
	return err
}

// Limits of the -serve HTTP server against peers that connect and then say
// nothing: a client has serveReadHeaderTimeout to send its request headers,
// and an idle keep-alive connection is closed after serveIdleTimeout.
const (
	serveReadHeaderTimeout = 10 * time.Second
	serveIdleTimeout       = 2 * time.Minute
)

// newHTTPServer builds the -serve HTTP server.  It sets no write timeout:
// event streams are responses that stay open for as long as their job runs.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: serveReadHeaderTimeout,
		IdleTimeout:       serveIdleTimeout,
	}
}

// debugMux serves net/http/pprof and nothing else.  The package registers
// itself on http.DefaultServeMux, which no server of this binary uses.
func debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// startDebug serves the profiling endpoints on addr until the returned stop
// is called, and returns the address it bound; with an empty addr nothing
// listens, bound is nil and stop does nothing.
func startDebug(addr string) (bound net.Addr, stop func(), err error) {
	if addr == "" {
		return nil, func() {}, nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, fmt.Errorf("-debug-addr: %w", err)
	}
	srv := newHTTPServer(addr, debugMux())
	go func() { _ = srv.Serve(ln) }() // returns ErrServerClosed at stop
	fmt.Fprintf(os.Stderr, "debug: pprof on http://%s/debug/pprof/\n", ln.Addr())
	return ln.Addr(), func() { srv.Close() }, nil
}

// runServe exposes the session's job API over HTTP until the context is
// cancelled (SIGINT/SIGTERM or -timeout): submit jobs, stream their typed
// progress events (NDJSON or SSE), fetch results, cancel.  See the pdsat
// package's Server documentation and README.md for the endpoints and a
// curl quickstart.
func runServe(ctx context.Context, session *pdsat.Session, addr string) error {
	httpServer := newHTTPServer(addr, pdsat.NewServer(session))
	errCh := make(chan error, 1)
	go func() { errCh <- httpServer.ListenAndServe() }()
	fmt.Printf("serving job API on http://%s (POST /v1/jobs, GET /v1/jobs/{id}/events, ...)\n", addr)
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	fmt.Println("shutting down: cancelling jobs, draining connections")
	// Cancel the jobs first: open event-stream responses end at their Done
	// event, so Shutdown can actually drain them within its deadline.
	session.Close()
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return httpServer.Shutdown(shutCtx)
}

// runWorker serves subproblems to a remote leader until the context is
// cancelled or the leader shuts the worker down.
func runWorker(ctx context.Context, addr string, workers int) error {
	fmt.Printf("cluster: worker joining leader at %s\n", addr)
	err := cluster.Serve(ctx, addr, cluster.WorkerOptions{
		Capacity: workers,
		Redial:   time.Second,
		OnEvent:  logEvent,
	})
	if cluster.IsInterruption(err) {
		// Ctrl-C / -timeout: a clean, operator-requested shutdown.  The
		// leader requeues whatever this worker had in flight.
		fmt.Println("cluster: worker interrupted, shutting down")
		return nil
	}
	return err
}

// logEvent writes a cluster event of either role as one log/slog text record
// on stderr: "level=INFO msg=worker_joined worker=w1 count=2 addr=… err=<nil>
// redial=0s".
func logEvent(ev cluster.ClusterEvent) {
	clusterLog.Info(string(ev.Kind), "worker", ev.Worker, "count", ev.Count, "addr", ev.Addr, "err", ev.Err, "redial", ev.Redial)
}

var clusterLog = slog.New(slog.NewTextHandler(os.Stderr, nil))

func buildProblem(cnfPath, startList, generator string, keystream, known int, seed int64) (*pdsat.Problem, error) {
	if cnfPath == "" {
		return pdsat.FromGenerator(generator, pdsat.GeneratorConfig{KeystreamLen: keystream, KnownSuffix: known, Seed: seed})
	}
	if startList == "" {
		return nil, fmt.Errorf("-start is required with -cnf")
	}
	start, err := parseVars(startList)
	if err != nil {
		return nil, err
	}
	return pdsat.FromDIMACSFile(cnfPath, start)
}

func parseMetric(s string) (solver.CostMetric, error) {
	switch s {
	case "conflicts":
		return solver.CostConflicts, nil
	case "propagations":
		return solver.CostPropagations, nil
	case "decisions":
		return solver.CostDecisions, nil
	case "seconds", "time":
		return solver.CostWallTime, nil
	default:
		return 0, fmt.Errorf("unknown cost metric %q", s)
	}
}

func parseVars(list string) ([]pdsat.Var, error) {
	var out []pdsat.Var
	for _, part := range strings.Split(list, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad variable %q", part)
		}
		out = append(out, pdsat.Var(n))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty variable list")
	}
	return out, nil
}

// signalContext returns a context cancelled by SIGINT/SIGTERM and optionally
// by a timeout.
func signalContext(timeout time.Duration) (context.Context, context.CancelFunc) {
	ctx := context.Background()
	var cancel context.CancelFunc = func() {}
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, timeout)
	}
	ctx, stop := signal.NotifyContext(ctx, syscall.SIGINT, syscall.SIGTERM)
	return ctx, func() { stop(); cancel() }
}
