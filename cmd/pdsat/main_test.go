package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"github.com/paper-repro/pdsat-go/internal/cluster"
	"github.com/paper-repro/pdsat-go/pdsat"
)

// runWithArgs calls run on a private flag set.
func runWithArgs(t *testing.T, args ...string) error {
	t.Helper()
	oldArgs, oldFlags := os.Args, flag.CommandLine
	t.Cleanup(func() { os.Args, flag.CommandLine = oldArgs, oldFlags })
	flag.CommandLine = flag.NewFlagSet("pdsat", flag.ContinueOnError)
	flag.CommandLine.SetOutput(io.Discard)
	os.Args = append([]string{"pdsat"}, args...)
	return run()
}

// writeJob writes a job spec file for -job and returns its path.
func writeJob(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "job.json")
	if err := os.WriteFile(path, []byte(body), 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

// runCapturingStdout is runWithArgs with what run prints to stdout returned.
func runCapturingStdout(t *testing.T, args ...string) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := runWithArgs(t, args...)
	os.Stdout = old
	w.Close()
	out, _ := io.ReadAll(r)
	return string(out), runErr
}

// printedResult decodes the "result: " line of the CLI's output strictly
// into a JobResult, as a client of GET /v1/jobs/{id} would its result.
func printedResult(t *testing.T, out string) *pdsat.JobResult {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		body, ok := strings.CutPrefix(line, "result: ")
		if !ok {
			continue
		}
		dec := json.NewDecoder(strings.NewReader(body))
		dec.DisallowUnknownFields()
		var res pdsat.JobResult
		if err := dec.Decode(&res); err != nil {
			t.Fatalf("result line %s: %v", body, err)
		}
		return &res
	}
	t.Fatalf("no result line in:\n%s", out)
	return nil
}

// TestBadVariableListsFailBeforeWorkersJoin: a leader reports a -start
// variable the formula does not have, a job whose variables lie outside the
// start set, or a job file that is not JSON, at once, not after -min-workers
// workers have joined.  No worker ever joins here; -timeout turns a leader
// that waits into a failure instead of a hang.
func TestBadVariableListsFailBeforeWorkersJoin(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f.cnf")
	if err := os.WriteFile(path, []byte("p cnf 3 2\n1 2 0\n-1 3 0\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	outside := writeJob(t, `{"kind":"estimate","vars":[2,3]}`)
	malformed := writeJob(t, `{"kind":"estimate","vars":[2,x]}`)
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-start", "1,2,9999"}, "start set variable 9999 is outside the formula's variables 1..3"},
		{[]string{"-start", "1,2", "-job", outside}, outside + ": decomp: variable 3 is not in the search space"},
		{[]string{"-start", "1,2", "-job", malformed}, malformed + ": bad job spec: invalid character 'x'"},
	} {
		args := append([]string{"-cnf", path, "-listen", "127.0.0.1:0", "-min-workers", "1", "-timeout", "5s"}, c.args...)
		if err := runWithArgs(t, args...); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: %v, want an error with %q", c.args, err, c.want)
		}
	}
}

// TestJobFailsBeforeTheProblem: the -job file is decoded before the instance
// is built, so a malformed spec is what a run with an unreadable formula
// reports too.
func TestJobFailsBeforeTheProblem(t *testing.T) {
	bad := writeJob(t, `{"kind":"search","metod":"sa"}`)
	err := runWithArgs(t, "-cnf", filepath.Join(t.TempDir(), "nonexistent.cnf"), "-start", "1", "-job", bad)
	if err == nil || !strings.Contains(err.Error(), bad) || strings.Contains(err.Error(), "nonexistent") {
		t.Fatalf("%v, want the spec's error, not the formula's", err)
	}
}

// TestWideJobRefused: a search whose policy asks for more than one
// evaluation at a time is refused with eval's message, and nothing runs.
func TestWideJobRefused(t *testing.T) {
	wide := writeJob(t, `{"kind":"search","method":"tabu","policy":{"max_concurrent_evals":4}}`)
	want := pdsat.EvalPolicy{MaxConcurrentEvals: 4}.Validate().Error()
	out, err := runCapturingStdout(t, "-generator", "a5/1", "-known", "52", "-keystream", "30", "-job", wide)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("%v, want an error with %q", err, want)
	}
	if strings.Contains(out, "result: ") {
		t.Fatalf("a refused job printed a result:\n%s", out)
	}
}

// TestJobRefusedWhereItWouldBeIgnored: a server runs the jobs posted to it
// and a worker the leader's, so a -job beside -serve or -join is refused
// before anything listens or dials, as -listen beside -join is.
func TestJobRefusedWhereItWouldBeIgnored(t *testing.T) {
	for _, args := range [][]string{
		{"-serve", "127.0.0.1:0", "-job", "x.json"},
		{"-join", "127.0.0.1:1", "-job", "x.json"},
		{"-join", "127.0.0.1:1", "-listen", "127.0.0.1:0"},
	} {
		if err := runWithArgs(t, args...); err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
			t.Errorf("%v: %v, want a refusal", args, err)
		}
	}
}

// TestSetIsTheSearchStart: a search's and a fleet's "start" is where they
// start.  One evaluation is the start evaluation, so the best set is the
// start.  The decoded spec is echoed once, as one JSON line.
func TestSetIsTheSearchStart(t *testing.T) {
	for _, c := range []struct{ body, echo string }{
		{`{"kind":"search","start":[2,5,7]}`, `job search: {"start":[2,5,7]}`},
		{`{"kind":"fleet","members":[{"method":"tabu"}],"start":[2,5,7]}`, `job fleet: {"members":[{"method":"tabu"}],"start":[2,5,7]}`},
	} {
		out, err := runCapturingStdout(t, "-known", "56", "-keystream", "30", "-samples", "4", "-evaluations", "1", "-job", writeJob(t, c.body))
		if err != nil || strings.Count(out, "job ") != 1 || !strings.Contains(out, c.echo+"\n") {
			t.Errorf("%s: error %v, output without %q once:\n%s", c.body, err, c.echo, out)
			continue
		}
		res := printedResult(t, out)
		var best []pdsat.Var
		if res.Search != nil {
			best = res.Search.BestVars
		} else if res.Fleet != nil {
			best = res.Fleet.BestVars
		}
		if !reflect.DeepEqual(best, []pdsat.Var{2, 5, 7}) {
			t.Errorf("%s: best_vars %v, want the start 2,5,7:\n%s", c.body, best, out)
		}
	}
}

// TestPrintedResultIsTheSessions: for every committed job file the CLI's
// result line is the JSON of the JobResult that Session.Run returns for the
// same spec on the same session configuration — F, sets, evaluations and
// best set alike — with the wall times masked.  A fleet's members couple
// through pruning and the F-cache by timing alone, so the fleet runs with
// both off: its result is then a function of the seeds.
func TestPrintedResultIsTheSessions(t *testing.T) {
	paths, err := filepath.Glob("../../examples/jobs/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no job files: %v", err)
	}
	wallTime := regexp.MustCompile(`"wall_time_ns":\d+`)
	masked := func(res *pdsat.JobResult) string {
		body, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return wallTime.ReplaceAllString(string(body), `"wall_time_ns":0`)
	}
	for _, path := range paths {
		body, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := pdsat.DecodeJobSpec(body)
		if err != nil {
			t.Fatal(err)
		}
		job := path
		if fleet, ok := spec.(pdsat.FleetJob); ok && fleet.Policy != nil {
			pol := *fleet.Policy
			pol.Prune, pol.Cache = false, false
			fleet.Policy = &pol
			spec = fleet
			members, err := json.Marshal(fleet)
			if err != nil {
				t.Fatal(err)
			}
			job = writeJob(t, `{"kind":"fleet",`+string(members[1:]))
		}
		out, err := runCapturingStdout(t, "-known", "56", "-keystream", "30", "-seed", "3",
			"-samples", "8", "-evaluations", "6", "-workers", "1", "-job", job)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		got := printedResult(t, out)

		problem, err := pdsat.FromGenerator("a5/1", pdsat.GeneratorConfig{KeystreamLen: 30, KnownSuffix: 56, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		session, err := pdsat.NewSession(problem, pdsat.Config{
			Runner: pdsat.RunnerConfig{SampleSize: 8, Workers: 1, Seed: 3,
				CostMetric: pdsat.CostPropagations},
			Search: pdsat.SearchOptions{Seed: 3, MaxEvaluations: 6},
			Cores:  480,
		})
		if err != nil {
			t.Fatal(err)
		}
		want, err := session.Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := masked(got), masked(want); g != w {
			t.Errorf("%s: the CLI printed\n%s\nSession.Run returned\n%s", path, g, w)
		}
		if !strings.Contains(out, "\nstats: {") {
			t.Errorf("%s: no stats line:\n%s", path, out)
		}
	}
}

// TestCommittedJobsDecode: every spec file under examples/jobs decodes with
// the job API's decoder and validates on a small session, so no document or
// CI step points at a spec that the binary would refuse.
func TestCommittedJobsDecode(t *testing.T) {
	paths, err := filepath.Glob("../../examples/jobs/*.json")
	if err != nil {
		t.Fatal(err)
	}
	problem, err := pdsat.FromGenerator("a5/1", pdsat.GeneratorConfig{KeystreamLen: 30, KnownSuffix: 56, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	session, err := pdsat.NewSession(problem, pdsat.Config{Runner: pdsat.RunnerConfig{SampleSize: 4, Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]pdsat.JobKind{}
	for _, path := range paths {
		body, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := pdsat.DecodeJobSpec(body)
		if err == nil {
			err = spec.Validate(session)
		}
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		kinds[strings.TrimSuffix(filepath.Base(path), ".json")] = spec.Kind()
	}
	for name, kind := range map[string]pdsat.JobKind{
		"estimate": pdsat.JobEstimate, "search-default": pdsat.JobSearch,
		"fleet": pdsat.JobFleet, "solve": pdsat.JobSolve,
	} {
		if kinds[name] != kind {
			t.Errorf("examples/jobs/%s.json: kind %q, want a valid %s job", name, kinds[name], kind)
		}
	}
}

// TestDebugAddrServesPprofOnly: the -debug-addr server answers the pprof
// endpoints and nothing else, stops when told, and without an address
// nothing listens.
func TestDebugAddrServesPprofOnly(t *testing.T) {
	if bound, stop, err := startDebug(""); bound != nil || err != nil {
		t.Fatalf("without an address: bound %v, error %v, want neither", bound, err)
	} else {
		stop()
	}
	bound, stop, err := startDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	status := func(path string) int {
		resp, err := http.Get("http://" + bound.String() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := status("/debug/pprof/cmdline"); got != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline: status %d, want 200", got)
	}
	// The runtime/trace capture beside the profiles: a short one is a 200
	// with the trace's bytes in the body.
	resp, err := http.Get("http://" + bound.String() + "/debug/pprof/trace?seconds=0.05")
	if err != nil {
		t.Fatalf("GET /debug/pprof/trace: %v", err)
	}
	trace, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || len(trace) == 0 {
		t.Errorf("/debug/pprof/trace?seconds=0.05: status %d, %d bytes (%v); want a 200 with a trace",
			resp.StatusCode, len(trace), err)
	}
	for _, path := range []string{"/", "/v1/jobs", "/debug/vars"} {
		if got := status(path); got != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404", path, got)
		}
	}
	stop()
	if resp, err := http.Get("http://" + bound.String() + "/debug/pprof/cmdline"); err == nil {
		resp.Body.Close()
		t.Error("the debug server still answers after stop")
	}
}

// TestDispatchFlagsAreGone runs one small estimate through run on a private
// flag set and then offers that set the switches adaptive dispatch used to
// sit behind, and the per-job flags a -job file replaced: they are unknown
// flags, not accepted and ignored.
func TestDispatchFlagsAreGone(t *testing.T) {
	if err := runWithArgs(t, "-known", "58", "-keystream", "30", "-samples", "4"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"-steal", "-speculate",
		"-mode", "-method", "-set", "-stop-on-sat",
		"-fleet", "-target-f", "-jitter", "-keep-racing",
		"-eval-policy", "-prune", "-stages", "-stage-epsilon", "-fcache", "-max-concurrent-evals",
	} {
		err := flag.CommandLine.Parse([]string{name})
		if err == nil || !strings.Contains(err.Error(), "not defined") {
			t.Fatalf("%s: %v, want an unknown-flag error", name, err)
		}
	}
}

// TestServeHTTPServerLimits: the -serve server bounds how long a silent peer
// may hold a connection, and leaves responses unbounded for the event
// streams.
func TestServeHTTPServerLimits(t *testing.T) {
	h := http.NewServeMux()
	srv := newHTTPServer("127.0.0.1:0", h)
	if srv.Addr != "127.0.0.1:0" || srv.Handler != h {
		t.Fatalf("address or handler not passed through: %+v", srv)
	}
	if srv.ReadHeaderTimeout != serveReadHeaderTimeout || srv.ReadHeaderTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout = %v", srv.ReadHeaderTimeout)
	}
	if srv.IdleTimeout != serveIdleTimeout || srv.IdleTimeout <= 0 {
		t.Fatalf("IdleTimeout = %v", srv.IdleTimeout)
	}
	if srv.WriteTimeout != 0 {
		t.Fatalf("WriteTimeout %v would cut event streams short", srv.WriteTimeout)
	}
}

// TestLogEventWritesOneRecord checks the cluster log: each cluster event is
// one slog text record carrying the event's kind as its message and every
// field of the event, an error and a redial wait included.
func TestLogEventWritesOneRecord(t *testing.T) {
	var buf bytes.Buffer
	saved := clusterLog
	t.Cleanup(func() { clusterLog = saved })
	clusterLog = slog.New(slog.NewTextHandler(&buf, nil))
	logEvent(cluster.ClusterEvent{Kind: cluster.WorkerJoined, Worker: "w1", Count: 2, Addr: "127.0.0.1:9321"})
	logEvent(cluster.ClusterEvent{Kind: cluster.WorkerLost, Worker: "w1", Count: 3, Addr: "127.0.0.1:9321",
		Err: cluster.ErrClosed, Redial: 2 * time.Second})
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	want := [][]string{
		{"level=INFO", "msg=worker_joined", "worker=w1", "count=2", "addr=127.0.0.1:9321", "err=<nil>", "redial=0s"},
		{"level=INFO", "msg=worker_lost", "worker=w1", "count=3", "addr=127.0.0.1:9321", `err="cluster: leader is closed"`, "redial=2s"},
	}
	if len(lines) != len(want) {
		t.Fatalf("%d records, want %d:\n%s", len(lines), len(want), buf.String())
	}
	for i, fields := range want {
		for _, f := range fields {
			if !strings.Contains(lines[i], f) {
				t.Errorf("record %d %q lacks %s", i, lines[i], f)
			}
		}
	}
}

// TestServeAndWorkerOverLoopback runs what `pdsat -serve … -listen …` and
// `pdsat -join …` run, in one process over loopback: runWorker joins a
// leader with one slot, runServe exposes a session on that leader, and one
// tiny estimate posted to /v1/jobs is polled to "done".  Its F is the one
// the same session computes in process, bit for bit.  Cancelling the context
// ends both, as SIGINT does, without an error.
func TestServeAndWorkerOverLoopback(t *testing.T) {
	problem, err := buildProblem("", "", "a5/1", 30, 58, 1)
	if err != nil {
		t.Fatal(err)
	}
	leader, err := cluster.Listen("127.0.0.1:0", problem.Formula, cluster.LeaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	cfg := pdsat.Config{Runner: pdsat.RunnerConfig{SampleSize: 4, Seed: 1, CostMetric: pdsat.CostPropagations}, Cores: 480}
	inproc, err := pdsat.NewSession(problem, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer inproc.Close()
	want, err := inproc.Run(t.Context(), pdsat.EstimateJob{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Runner.Transport = leader
	session, err := pdsat.NewSession(problem, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// runServe listens on the address it is given; take a free port for it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	ctx, cancel := context.WithCancel(t.Context())
	defer cancel()
	errs := make(chan error, 2)
	go func() { errs <- runWorker(ctx, leader.Addr().String(), 1) }()
	go func() { errs <- runServe(ctx, session, addr) }()
	if err := leader.WaitForWorkers(ctx, 1); err != nil {
		t.Fatal(err)
	}

	var posted struct{ ID string }
	var resp *http.Response
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err = http.Post("http://"+addr+"/v1/jobs", "application/json", strings.NewReader(`{"kind":"estimate"}`))
		if err == nil || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond) // runServe has not bound its port yet
	}
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&posted)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusCreated || posted.ID == "" {
		t.Fatalf("POST /v1/jobs: status %d, id %q, %v", resp.StatusCode, posted.ID, err)
	}
	var status struct {
		State  string
		Result *pdsat.JobResult
	}
	for deadline := time.Now().Add(30 * time.Second); status.State != "done"; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %q after 30 s", posted.ID, status.State)
		}
		resp, err := http.Get("http://" + addr + "/v1/jobs/" + posted.ID)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&status)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if status.State != "running" && status.State != "done" {
			t.Fatalf("job %s: state %q", posted.ID, status.State)
		}
	}
	if got := status.Result.Estimate.Estimate; got.SampleSize != 4 || got.Value != want.Estimate.Estimate.Value {
		t.Errorf("over loopback: F %v from %d samples; in process: F %v", got.Value, got.SampleSize, want.Estimate.Estimate.Value)
	}

	cancel()
	for range 2 {
		if err := <-errs; err != nil {
			t.Errorf("after cancellation: %v", err)
		}
	}
}
