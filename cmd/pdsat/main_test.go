package main

import (
	"flag"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"
)

// TestDispatchFlagsAreGone runs one small estimate through run on a private
// flag set and then offers that set the switches adaptive dispatch used to
// sit behind: they are unknown flags, not accepted and ignored.
func TestDispatchFlagsAreGone(t *testing.T) {
	oldArgs, oldFlags := os.Args, flag.CommandLine
	t.Cleanup(func() { os.Args, flag.CommandLine = oldArgs, oldFlags })
	flag.CommandLine = flag.NewFlagSet("pdsat", flag.ContinueOnError)
	flag.CommandLine.SetOutput(io.Discard)
	os.Args = []string{"pdsat", "-known", "58", "-keystream", "30", "-samples", "4"}
	if err := run(); err != nil {
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
