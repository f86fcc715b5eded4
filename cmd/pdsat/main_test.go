package main

import (
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
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

// TestBadVariableListsFailBeforeWorkersJoin: a leader reports a -start
// variable the formula does not have, or a -set variable outside the start
// set, at once — it used to wait for -min-workers workers first.  No worker
// ever joins here; -timeout turns a leader that waits into a failure instead
// of a hang.
func TestBadVariableListsFailBeforeWorkersJoin(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f.cnf")
	if err := os.WriteFile(path, []byte("p cnf 3 2\n1 2 0\n-1 3 0\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-start", "1,2,9999"}, "start set variable 9999 is outside the formula's variables 1..3"},
		{[]string{"-start", "1,2", "-set", "2,3"}, "variable 3 is not in the search space"},
		{[]string{"-start", "1,2", "-set", "2,x"}, `bad variable "x"`},
	} {
		args := append([]string{"-cnf", path, "-listen", "127.0.0.1:0", "-min-workers", "1", "-timeout", "5s"}, c.args...)
		if err := runWithArgs(t, args...); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: %v, want an error with %q", c.args, err, c.want)
		}
	}
}

// TestSetIsTheSearchStart: -set is where -mode search and -fleet start (it used
// to be parsed, checked and then ignored: both started from the whole start
// set).  One evaluation is the start evaluation, so the best set is the start.
func TestSetIsTheSearchStart(t *testing.T) {
	for _, mode := range [][]string{{"-mode", "search"}, {"-fleet", "tabu:1"}} {
		args := append([]string{"-known", "56", "-keystream", "30", "-samples", "4", "-evaluations", "1", "-set", "2,5,7"}, mode...)
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
		if runErr != nil || !strings.Contains(string(out), "best set            2,5,7\n") {
			t.Errorf("%v: error %v, output without a best set of 2,5,7:\n%s", mode, runErr, out)
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
// sit behind: they are unknown flags, not accepted and ignored.
func TestDispatchFlagsAreGone(t *testing.T) {
	if err := runWithArgs(t, "-known", "58", "-keystream", "30", "-samples", "4"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"-steal", "-speculate"} {
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
